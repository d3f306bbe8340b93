//! Fleet-level acceptance tests: graceful degradation when the best
//! device goes terminally dark mid-run, noise-aware routing beating
//! static and random device choice on accuracy, and the
//! quarantine-starvation regression (breakers must keep serving cooldown
//! with zero traffic).

use qnat_core::batch::{run_job, BatchJob};
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy};
use qnat_core::health::{BreakerPolicy, BreakerState};
use qnat_fleet::{FleetConfig, FleetDevice, FleetOutcome, FleetRouter, QuarantinePolicy};
use qnat_noise::backend::{BackendError, QuantumBackend, SimulatorBackend};
use qnat_noise::fault::{DriftModel, FaultSpec, FaultyBackend};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;

fn job(k: usize) -> BatchJob {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, 0.15 + 0.07 * k as f64));
    c.push(Gate::cx(0, 1));
    c.push(Gate::rz(1, 0.3 + 0.02 * k as f64));
    BatchJob::exact(c)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        seed: 0x5eed,
        pilots: 1,
        engine_workers: 1,
        hedge: None,
        ..FleetConfig::default()
    }
}

/// The ISSUE acceptance scenario: the best-scoring device serves the
/// early jobs, then goes terminally dark mid-run (sessionized
/// recalibration drift *plus* a hard outage); the router must complete
/// 100% of jobs via failover with zero client-visible refusals.
#[test]
fn dark_device_failover_completes_every_job() {
    const DARK_AT: u64 = 20;
    const JOBS: usize = 60;
    // santiago: preferred (lowest static noise), StepRecalibration drift,
    // total outage from global job index 20 onward.
    let drift = FaultSpec {
        gate_drift_per_job: 0.02,
        readout_drift_per_job: 0.01,
        drift: DriftModel::StepRecalibration { interval: 10 },
        seed: 7,
        drift_seed: 7,
        ..FaultSpec::none()
    };
    let santiago = FleetDevice::new(presets::santiago(), move |global, seed| {
        let rate = if global < DARK_AT { 0.0 } else { 1.0 };
        let spec = FaultSpec {
            transient_failure_rate: rate,
            seed,
            ..drift
        };
        Ok(ResilientExecutor::new(
            Box::new(FaultyBackend::starting_at(
                SimulatorBackend::new(seed),
                spec,
                global,
            )),
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
        ))
    })
    .with_faults(drift);
    // lima: noisier calibration, but steady.
    let lima = FleetDevice::new(presets::lima(), |_global, seed| {
        Ok(ResilientExecutor::new(
            Box::new(SimulatorBackend::new(seed)),
            RetryPolicy::default(),
        ))
    });
    let router = FleetRouter::new(fleet_config(), vec![santiago, lima]).unwrap();

    let mut outcomes: Vec<FleetOutcome> = Vec::new();
    for k in 0..JOBS {
        // Zero client-visible refusals: every submit is accepted.
        let t = router.submit(job(k)).expect("no submission refused");
        outcomes.push(router.wait(t).expect("every job delivered"));
    }
    for (k, o) in outcomes.iter().enumerate() {
        assert!(o.result.is_ok(), "job {k} must be rescued: {:?}", o.result);
    }
    let stats = router.stats();
    assert_eq!(stats.submitted, JOBS as u64);
    assert_eq!(stats.completed, JOBS as u64, "100% completion");
    assert_eq!(stats.refused_all_down, 0);
    assert!(stats.failovers >= 1, "the dark transition forces failover");
    // Early jobs ran on the preferred device, late jobs on the survivor.
    assert_eq!(outcomes[0].device, presets::santiago().name());
    assert_eq!(outcomes[JOBS - 1].device, presets::lima().name());
    // The trace records the whole story, sorted by fleet ticket.
    let trace = router.trace();
    assert_eq!(trace.jobs.len(), JOBS);
    assert!(trace.jobs.windows(2).all(|w| w[0].job < w[1].job));
}

/// Accuracy-per-attempt sweep: drift-aware routing vs always-the-best-
/// calibration device (static) vs a seeded pseudo-random device choice.
/// The routed fleet must beat both on mean absolute expectation error.
/// The measured numbers are recorded in EXPERIMENTS.md §Fleet.
#[test]
fn noise_aware_routing_beats_static_and_random() {
    const JOBS: usize = 40;
    let retry = RetryPolicy::default();
    // Device A: best static calibration, but degrading fast.
    let drifting = FaultSpec {
        gate_drift_per_job: 0.3,
        readout_drift_per_job: 0.3,
        seed: 11,
        drift_seed: 11,
        ..FaultSpec::none()
    };
    let device_a = FleetDevice::emulated(presets::santiago(), 2, drifting, retry.clone()).unwrap();
    // Device B: noisier calibration, but stable.
    let device_b =
        FleetDevice::emulated(presets::quito(), 2, FaultSpec::none(), retry.clone()).unwrap();

    // Ideal (noise-free, exact) expectations per job.
    let ideal: Vec<Vec<f64>> = (0..JOBS)
        .map(|k| {
            let mut sim = SimulatorBackend::new(0);
            sim.execute(&job(k).circuit, None).unwrap().expectations
        })
        .collect();
    let error_of = |k: usize, m: &qnat_noise::backend::Measurements| -> f64 {
        m.expectations
            .iter()
            .zip(&ideal[k])
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / ideal[k].len() as f64
    };
    let seed_of = |k: u64| splitmix64(0x5eed ^ splitmix64(k));

    // Arm 1: the routed fleet.
    let router =
        FleetRouter::new(fleet_config(), vec![device_a.clone(), device_b.clone()]).unwrap();
    let tickets: Vec<u64> = (0..JOBS).map(|k| router.submit(job(k)).unwrap()).collect();
    let mut routed_err = 0.0;
    for (k, &t) in tickets.iter().enumerate() {
        let o = router.wait(t).expect("delivered");
        routed_err += error_of(k, o.result.as_ref().expect("clean devices"));
    }
    routed_err /= JOBS as f64;
    drop(router);

    // Arm 2: static — every job on the best-calibration device, same
    // seeds, same run_job core.
    let mut static_err = 0.0;
    for k in 0..JOBS {
        let (result, _) = run_job(
            device_a.factory_ref(),
            k as u64,
            seed_of(k as u64),
            &job(k),
            false,
            None,
        );
        static_err += error_of(k, &result.expect("emulator is clean"));
    }
    static_err /= JOBS as f64;

    // Arm 3: seeded pseudo-random device per job (50/50 coin).
    let mut random_err = 0.0;
    for k in 0..JOBS {
        let pick = if splitmix64(0xc01_u64 ^ splitmix64(k as u64)) & 1 == 0 {
            &device_a
        } else {
            &device_b
        };
        let (result, _) = run_job(
            pick.factory_ref(),
            k as u64,
            seed_of(k as u64),
            &job(k),
            false,
            None,
        );
        random_err += error_of(k, &result.expect("emulator is clean"));
    }
    random_err /= JOBS as f64;

    println!(
        "fleet sweep: routed={routed_err:.4} static-best={static_err:.4} random={random_err:.4}"
    );
    assert!(
        routed_err < static_err,
        "drift-aware routing ({routed_err:.4}) must beat static best-device ({static_err:.4})"
    );
    assert!(
        routed_err < random_err,
        "drift-aware routing ({routed_err:.4}) must beat random choice ({random_err:.4})"
    );
}

/// Regression for the cooldown-starvation bug: a quarantined device gets
/// zero traffic, so without idle epoch ticks its breaker would sit Open
/// forever and the device could never be re-admitted. The router must
/// tick cooldowns on every routing event, probe the half-open device
/// with a live job, and re-admit it once the breaker recloses.
#[test]
fn quarantined_device_recovers_without_traffic() {
    const HEALS_AT: u64 = 6;
    // santiago: hard-down until global job index 6, clean afterwards.
    let santiago = FleetDevice::new(presets::santiago(), |global, seed| {
        let rate = if global < HEALS_AT { 1.0 } else { 0.0 };
        Ok(ResilientExecutor::new(
            Box::new(FaultyBackend::starting_at(
                SimulatorBackend::new(seed),
                FaultSpec::transient(rate, seed),
                global,
            )),
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
        ))
    });
    let quito = FleetDevice::new(presets::quito(), |_global, seed| {
        Ok(ResilientExecutor::new(
            Box::new(SimulatorBackend::new(seed)),
            RetryPolicy::default(),
        ))
    });
    let cfg = FleetConfig {
        breaker: BreakerPolicy {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown_jobs: 5,
            ..BreakerPolicy::default()
        },
        quarantine: QuarantinePolicy {
            trip_threshold: 1,
            probe_every: 3,
        },
        ..fleet_config()
    };
    let router = FleetRouter::new(cfg, vec![santiago, quito]).unwrap();

    let mut outcomes = Vec::new();
    for k in 0..40 {
        let t = router.submit(job(k)).expect("quito keeps the fleet up");
        outcomes.push(router.wait(t).expect("delivered"));
    }
    let stats = router.stats();
    assert!(
        stats.quarantined >= 1,
        "santiago must be evicted after its breaker trips: {stats:?}"
    );
    assert!(
        stats.idle_ticks >= 1,
        "zero-traffic cooldown must be served by idle ticks: {stats:?}"
    );
    assert!(
        stats.readmitted >= 1,
        "half-open probe must re-admit the healed device: {stats:?}"
    );
    let snap = router
        .health_registry()
        .snapshot(presets::santiago().name())
        .expect("breaker exists");
    assert!(snap.recoveries >= 1, "probe reclosed the breaker: {snap:?}");
    assert_eq!(snap.state, BreakerState::Closed);
    // Once healed and re-admitted, the lower-noise device wins again.
    let last = outcomes.last().unwrap();
    assert_eq!(last.device, presets::santiago().name());
    assert!(last.result.is_ok());
    // And the fleet never dropped a job along the way.
    assert_eq!(stats.completed, 40);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
}

/// `BackendError::InvalidConfig` from a too-small preset surfaces at
/// fleet-build time, not per job.
#[test]
fn emulated_device_rejects_oversized_slices() {
    let err = FleetDevice::emulated(
        presets::santiago(),
        99,
        FaultSpec::none(),
        RetryPolicy::default(),
    )
    .expect_err("santiago has nowhere near 99 qubits");
    assert!(matches!(err, BackendError::InvalidConfig { .. }));
}
