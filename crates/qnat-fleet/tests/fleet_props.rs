//! Property pin for the fleet determinism contract: whatever path a job
//! took through the router — primary, failover, hedge, probe — the
//! delivered outcome re-executes **bitwise identically** from its
//! recorded [`JobTrace`] via [`replay_job`], because per-job seeds stay
//! `splitmix64(fleet_seed ^ splitmix64(job))` on every device.

use proptest::prelude::*;
use qnat_core::batch::BatchJob;
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy};
use qnat_fleet::{
    replay_decision, replay_job, CalibConfig, Disposition, FleetConfig, FleetDevice, FleetRouter,
    QuarantinePolicy, ScorePolicy,
};
use qnat_noise::backend::SimulatorBackend;
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;

fn sim_job(angle: f64, entangle: bool) -> BatchJob {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, angle));
    if entangle {
        c.push(Gate::cx(0, 1));
    }
    BatchJob::exact(c)
}

/// A fleet device over the statevector simulator with a transient-fault
/// decorator — failure rolls are seed-deterministic, so routed failures
/// replay exactly like routed successes.
fn flaky_device(model: qnat_noise::DeviceModel, rate: f64) -> FleetDevice {
    FleetDevice::new(model, move |global, seed| {
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
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every delivered job with an executable winner replays bitwise:
    /// same result (success or typed error) and same execution report.
    #[test]
    fn delivered_outcomes_replay_bitwise(
        fleet_seed in 0u64..u64::MAX,
        rate_a in 0.0f64..0.9,
        rate_b in 0.0f64..0.9,
        angles in prop::collection::vec(0.0f64..3.1, 1..10),
        entangle in prop_oneof![Just(true), Just(false)],
    ) {
        let devices = vec![
            flaky_device(presets::santiago(), rate_a),
            flaky_device(presets::quito(), rate_b).named("quito-flaky"),
        ];
        let config = FleetConfig {
            seed: fleet_seed,
            pilots: 2,
            engine_workers: 1,
            hedge: None,
            quarantine: QuarantinePolicy { trip_threshold: 3, probe_every: 4 },
            ..FleetConfig::default()
        };
        let router = FleetRouter::new(config, devices.clone()).unwrap();
        let jobs: Vec<BatchJob> =
            angles.iter().map(|&a| sim_job(a, entangle)).collect();
        let tickets: Vec<u64> = jobs
            .iter()
            .map(|j| router.submit(j.clone()).unwrap())
            .collect();
        let outcomes: Vec<_> = tickets
            .iter()
            .map(|&t| router.wait(t).expect("delivered"))
            .collect();
        let trace = router.trace();
        drop(router);

        prop_assert_eq!(trace.jobs.len(), jobs.len());
        for (jt, outcome) in trace.jobs.iter().zip(&outcomes) {
            // The recorded seed is the pure derivation from the fleet
            // seed and the fleet ticket.
            prop_assert_eq!(
                jt.seed,
                splitmix64(fleet_seed ^ splitmix64(jt.job))
            );
            let Some(win) = jt.winner else { continue };
            let replayable = matches!(
                jt.attempts[win].disposition,
                Disposition::Won | Disposition::Failed(_)
            );
            if !replayable {
                // Fast-failed deliveries never ran: the documented
                // non-replayable relaxation.
                prop_assert!(replay_job(
                    &devices,
                    jt,
                    &jobs[jt.job as usize],
                    None
                ).is_none());
                continue;
            }
            let (result, report) = replay_job(
                &devices,
                jt,
                &jobs[jt.job as usize],
                None,
            ).expect("executable winner replays");
            prop_assert_eq!(&result, &outcome.result, "job {}", jt.job);
            prop_assert_eq!(&report, &outcome.report, "job {}", jt.job);
        }
    }

    /// ISSUE 9: every prediction-driven routing decision a live router
    /// records replays bitwise from its [`qnat_fleet::CalibTrace`] row
    /// alone — [`replay_decision`] recovers the routed winner, and the
    /// recorded per-candidate score matches an exact recomputation from
    /// its components, for arbitrary fleet seeds, fault rates and
    /// workloads.
    #[test]
    fn routed_calib_decisions_replay_bitwise(
        fleet_seed in 0u64..u64::MAX,
        rate_a in 0.0f64..0.7,
        rate_b in 0.0f64..0.7,
        angles in prop::collection::vec(0.0f64..3.1, 4..16),
    ) {
        let devices = vec![
            flaky_device(presets::santiago(), rate_a),
            flaky_device(presets::quito(), rate_b).named("quito-flaky"),
        ];
        let config = FleetConfig {
            seed: fleet_seed,
            pilots: 1,
            engine_workers: 1,
            hedge: None,
            score_policy: ScorePolicy::Predicted,
            calibration: CalibConfig {
                min_observations: 2,
                ..CalibConfig::default()
            },
            ..FleetConfig::default()
        };
        let router = FleetRouter::new(config, devices).unwrap();
        for &a in &angles {
            let t = router.submit(sim_job(a, true)).unwrap();
            router.wait(t).expect("delivered");
        }
        let trace = router.calib_trace();
        // Quarantine recovery probes bypass the scored path while
        // failover re-scores the survivors, so jobs and decisions don't
        // pair 1:1 — but routing a job never scores more rounds than
        // there are devices.
        prop_assert!(!trace.decisions.is_empty());
        prop_assert!(trace.decisions.len() <= angles.len() * 2);
        for d in &trace.decisions {
            prop_assert_eq!(
                replay_decision(d),
                Some(d.chosen),
                "job {} must replay to its routed winner",
                d.job
            );
            for c in &d.candidates {
                let recomputed =
                    d.depth_weight * c.depth + d.noise_weight * c.noise + c.penalty;
                prop_assert_eq!(
                    c.score.to_bits(),
                    recomputed.to_bits(),
                    "job {} candidate {} score must recompute bitwise",
                    d.job,
                    c.index
                );
            }
        }
    }
}
