//! Property tests for the batch executor's central guarantee: a seeded job
//! list produces bitwise identical per-job results and an identical merged
//! [`ExecutionReport`] whether the pool runs 1, 2 or 8 workers.

use proptest::prelude::*;
use qnat_core::batch::{BatchExecutor, BatchJob, BatchOutcome};
use qnat_core::executor::{ResilientExecutor, RetryPolicy, VirtualSleeper};
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;

fn jobs(n: usize, shots: Option<usize>) -> Vec<BatchJob> {
    (0..n)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.push(Gate::ry(0, 0.11 * k as f64 + 0.05));
            c.push(Gate::cx(0, 1));
            BatchJob { circuit: c, shots }
        })
        .collect()
}

fn run(
    workers: usize,
    batch_seed: u64,
    fault_rate: f64,
    n: usize,
    shots: Option<usize>,
) -> BatchOutcome {
    let factory = move |_job: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
        Ok(ResilientExecutor::with_fallback(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(seed),
                FaultSpec::transient(fault_rate, seed),
            )),
            Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
            RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
        )
        .with_sleeper(Box::new(VirtualSleeper::default())))
    };
    BatchExecutor::new(workers, batch_seed, factory).execute(&jobs(n, shots))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_results_bitwise_identical_across_worker_counts(
        batch_seed in 0u64..u64::MAX,
        fault_rate in 0.0f64..0.7,
        n in 1usize..48,
        shots in prop_oneof![Just(None), (32usize..256).prop_map(Some)],
    ) {
        let single = run(1, batch_seed, fault_rate, n, shots);
        for workers in [2usize, 8] {
            let pooled = run(workers, batch_seed, fault_rate, n, shots);
            prop_assert_eq!(pooled.results.len(), n);
            // Bitwise: Measurements carry f64 expectations compared by
            // exact equality, and errors carry their full typed payload.
            prop_assert_eq!(&single.results, &pooled.results,
                "results diverge at {} workers", workers);
            prop_assert_eq!(&single.report, &pooled.report,
                "merged report diverges at {} workers", workers);
        }
        // The report really covers the whole batch.
        prop_assert_eq!(single.report.jobs, n);
        prop_assert!(single.report.attempts >= n);
    }

    #[test]
    fn job_seeds_are_independent_of_batch_position(
        batch_seed in 0u64..u64::MAX,
        n in 2usize..32,
    ) {
        // A job's executor seed depends only on (batch seed, job index) —
        // the pool derives it with SplitMix64, never from worker identity
        // or queue order.
        let pool = BatchExecutor::new(3, batch_seed, |_job, seed| {
            Ok(ResilientExecutor::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        });
        let seeds: Vec<u64> = (0..n as u64).map(|k| pool.job_seed(k)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n, "per-job seeds must not collide");
        for (k, &s) in seeds.iter().enumerate() {
            prop_assert_eq!(s, pool.job_seed(k as u64));
        }
    }
}
