//! Property tests for the mitigated sweep's replay contract (ISSUE 10):
//! a full served sweep — fold, bulk-lane fan-out, readout inversion,
//! extrapolation — is **bitwise** reproducible from its `sweep_seed`
//! alone. Engine seed, worker count and scheduling interleavings must
//! not matter, because every sub-run's executor seed derives from the
//! sweep seed through the repo-wide
//! `splitmix64(sweep_seed ^ splitmix64(k))` schedule; the schedule
//! itself is pinned against the factory's observed `(global, seed)`
//! pairs.

use proptest::prelude::*;
use qnat_compiler::folding::FoldStrategy;
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy};
use qnat_core::mitigate::ZneMethod;
use qnat_noise::backend::SimulatorBackend;
use qnat_serve::{
    sub_seed, submit_mitigated, MitigatedJob, MitigatedOutcome, ServeConfig, ServeEngine,
};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_sim::measure::Confusion;
use std::sync::{Arc, Mutex};

fn sweep_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, 0.43));
    c.push(Gate::sqrt_h(1)); // root gate: exercises the two-gate inverse
    c.push(Gate::cx(0, 1));
    c.push(Gate::rz(1, -0.7));
    c
}

fn run_sweep(
    engine_seed: u64,
    workers: usize,
    job: &MitigatedJob,
    sweep_seed: u64,
) -> MitigatedOutcome {
    let engine = ServeEngine::new(
        ServeConfig {
            workers,
            seed: engine_seed,
            ..ServeConfig::default()
        },
        |_job, seed| {
            Ok(ResilientExecutor::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        },
    );
    let sweep = submit_mitigated(&engine, job, sweep_seed).expect("valid sweep");
    let outcome = sweep.wait(&engine).expect("tickets live");
    engine.drain();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two engines with different seeds and worker counts serve the
    /// same sweep bitwise identically — per-qubit mitigated
    /// expectations, raw baseline and every sub-run's measurements.
    #[test]
    fn sweep_replays_bitwise_across_engines(
        sweep_seed in 0u64..u64::MAX,
        engine_seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        workers in (1usize..4, 1usize..4),
        shots in prop_oneof![Just(None), (64usize..256).prop_map(Some)],
        per_gate in (0u8..2).prop_map(|b| b == 1),
        richardson in (0u8..2).prop_map(|b| b == 1),
        with_readout in (0u8..2).prop_map(|b| b == 1),
    ) {
        let mut job = MitigatedJob::zne(sweep_circuit(), shots);
        job.strategy = if per_gate { FoldStrategy::PerGate } else { FoldStrategy::Global };
        job.method = if richardson { ZneMethod::Richardson } else { ZneMethod::Linear };
        if with_readout {
            let m: Confusion = [[0.98, 0.02], [0.03, 0.97]];
            job = job.with_readout(vec![m; 2]);
        }

        let first = run_sweep(engine_seeds.0, workers.0, &job, sweep_seed);
        let second = run_sweep(engine_seeds.1, workers.1, &job, sweep_seed);

        let a = first.mitigated.expect("aggregation succeeds");
        let b = second.mitigated.expect("aggregation succeeds");
        prop_assert_eq!(a.expectations, b.expectations);
        prop_assert_eq!(a.shots_used, b.shots_used);
        prop_assert_eq!(first.raw, second.raw);
        for (ra, rb) in first.runs.iter().zip(&second.runs) {
            prop_assert_eq!(ra.scale, rb.scale);
            prop_assert_eq!(&ra.outcome.result, &rb.outcome.result);
        }
    }

    /// The factory sees exactly the pinned `(global, seed)` schedule:
    /// sub-job `k` arrives as global job `k` with executor seed
    /// `splitmix64(sweep_seed ^ splitmix64(k))` — the same formula every
    /// other layer of the repo uses for per-job seeds.
    #[test]
    fn sub_job_seed_schedule_is_pinned(
        sweep_seed in 0u64..u64::MAX,
        workers in 1usize..4,
    ) {
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let engine = ServeEngine::new(
            ServeConfig { workers, seed: 1, ..ServeConfig::default() },
            move |job, seed| {
                record.lock().expect("recorder").push((job, seed));
                Ok(ResilientExecutor::new(
                    Box::new(SimulatorBackend::new(seed)),
                    RetryPolicy::default(),
                ))
            },
        );
        let job = MitigatedJob::zne(sweep_circuit(), None);
        let sweep = submit_mitigated(&engine, &job, sweep_seed).expect("valid sweep");
        sweep.wait(&engine).expect("tickets live");
        engine.drain();

        let mut calls = seen.lock().expect("recorder").clone();
        calls.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..3u64)
            .map(|k| (k, splitmix64(sweep_seed ^ splitmix64(k))))
            .collect();
        prop_assert_eq!(&calls, &expected);
        for (k, seed) in calls {
            prop_assert_eq!(seed, sub_seed(sweep_seed, k));
        }
    }
}
