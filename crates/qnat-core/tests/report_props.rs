//! Property tests for [`ExecutionReport::merge`] — the fold that turns
//! per-job reports into the batch-global report. The batch layer relies on
//! two algebraic facts: merging in job order is associative (so any
//! chunking of the job list folds to the same report), and batch-global
//! failure indices survive arbitrary job/worker splits (so failure records
//! stay attributable no matter how the pool carved up the work).

use proptest::prelude::*;
use qnat_core::executor::{BackendUsage, ExecutionReport, FailureRecord};
use qnat_noise::backend::BackendError;
use std::collections::BTreeMap;

/// Deterministically expands compact generated stats into one per-job
/// report whose failure records carry the batch-global index `job`.
fn job_report(
    job: usize,
    attempts: usize,
    retries: usize,
    flags: u8,
    backoff: u64,
) -> ExecutionReport {
    let failures = (0..retries)
        .map(|attempt| FailureRecord {
            job: job as u64,
            attempt: attempt + 1,
            error: BackendError::TransientFailure {
                job: job as u64,
                reason: format!("fault {job}.{attempt}"),
            },
        })
        .collect();
    ExecutionReport {
        jobs: 1,
        attempts,
        retries,
        fallback_jobs: usize::from(flags & 1 != 0),
        short_circuited_jobs: usize::from(flags & 2 != 0),
        fast_failed_jobs: usize::from(flags & 4 != 0),
        deadline_exceeded_jobs: usize::from(flags & 8 != 0),
        degraded: flags & 16 != 0,
        total_backoff_ms: backoff,
        shot_shortfall: (attempts * 7) % 23,
        failures,
        by_backend: BTreeMap::from([(
            format!("backend-{}", flags % 3),
            BackendUsage {
                attempts,
                retries,
                validation_failures: usize::from(flags & 2 != 0),
                fast_failed_jobs: usize::from(flags & 4 != 0),
                fallback_jobs: usize::from(flags & 1 != 0),
                backoff_ms: backoff,
            },
        )]),
    }
}

fn merge_all(reports: &[ExecutionReport]) -> ExecutionReport {
    let mut acc = ExecutionReport::default();
    for r in reports {
        acc.merge(r);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative(
        stats in prop::collection::vec((1usize..5, 0usize..4, 0u8..32, 0u64..5_000), 3..24),
        split_a in 1usize..64,
        split_b in 1usize..64,
    ) {
        let reports: Vec<ExecutionReport> = stats
            .iter()
            .enumerate()
            .map(|(job, &(attempts, retries, flags, backoff))| {
                job_report(job, attempts, retries, flags, backoff)
            })
            .collect();
        let n = reports.len();
        // (r₀ ⊕ … ⊕ rₐ₋₁) ⊕ (rₐ ⊕ … ⊕ r_b₋₁) ⊕ (r_b ⊕ … ) for arbitrary
        // in-order cut points equals the flat left fold.
        let a = (split_a % n).max(1).min(n);
        let b = a + (split_b % (n - a + 1));
        let flat = merge_all(&reports);
        let mut chunked = merge_all(&reports[..a]);
        chunked.merge(&merge_all(&reports[a..b]));
        chunked.merge(&merge_all(&reports[b..]));
        prop_assert_eq!(&flat, &chunked);
        // And fully right-associated: r₀ ⊕ (r₁ ⊕ (r₂ ⊕ …)).
        let mut right = ExecutionReport::default();
        for r in reports.iter().rev() {
            let mut next = r.clone();
            next.merge(&right);
            right = next;
        }
        prop_assert_eq!(&flat, &right);
    }

    #[test]
    fn failure_indices_survive_any_worker_split(
        stats in prop::collection::vec((1usize..5, 0usize..4, 0u8..32, 0u64..5_000), 2..24),
        workers in 1usize..9,
    ) {
        let reports: Vec<ExecutionReport> = stats
            .iter()
            .enumerate()
            .map(|(job, &(attempts, retries, flags, backoff))| {
                job_report(job, attempts, retries, flags, backoff)
            })
            .collect();
        // However the pool assigns jobs to workers, merging the per-job
        // reports back in job-index order reproduces the single-worker
        // report, batch-global failure indices included.
        let flat = merge_all(&reports);
        let mut by_worker: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for job in 0..reports.len() {
            // Deterministic but uneven assignment.
            by_worker[(job * 7 + 3) % workers].push(job);
        }
        let mut in_order: Vec<usize> = by_worker.concat();
        in_order.sort_unstable();
        let merged = merge_all(
            &in_order.iter().map(|&j| reports[j].clone()).collect::<Vec<_>>(),
        );
        prop_assert_eq!(&flat, &merged);
        // Every failure record still names its original job, in order.
        let jobs_in_failures: Vec<u64> = merged.failures.iter().map(|f| f.job).collect();
        let mut sorted = jobs_in_failures.clone();
        sorted.sort_unstable();
        prop_assert_eq!(jobs_in_failures, sorted, "failures sorted by job");
        for f in &merged.failures {
            prop_assert!(stats[f.job as usize].1 > 0, "job {} recorded no retry", f.job);
        }
    }
}
