//! End-to-end acceptance tests for the fleet health layer (ISSUE 3):
//! breaker-on vs breaker-off cost on a flaky batch, deadline-budget
//! enforcement, and the determinism contract under breaker + deadline.

use qnat_core::batch::{BatchExecutor, BatchJob};
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_core::health::{
    BreakerPolicy, BreakerState, DeadlinePolicy, HealthPolicy, HealthRegistry,
};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn jobs(n: usize) -> Vec<BatchJob> {
    (0..n)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.push(Gate::ry(0, 0.09 * k as f64 + 0.04));
            c.push(Gate::cx(0, 1));
            BatchJob::exact(c)
        })
        .collect()
}

/// Primary failing at `rate`, clean fallback, deterministic jitter. The
/// default sleeper is virtual, so `total_backoff_ms` measures the backoff
/// schedule without real wall-clock cost.
fn flaky_factory(rate: f64) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Sync {
    move |_job, seed| {
        Ok(ResilientExecutor::with_fallback(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(seed),
                FaultSpec::transient(rate, seed),
            )),
            Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
            RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
        ))
    }
}

/// No-fallback variant: exhausted retries surface as job errors.
fn no_fallback_factory(
    rate: f64,
) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Sync {
    move |_job, seed| {
        Ok(ResilientExecutor::new(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(seed),
                FaultSpec::transient(rate, seed),
            )),
            RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
        ))
    }
}

/// ISSUE 3 acceptance: on a dying primary, the breaker-enabled batch
/// completes with strictly fewer attempts and strictly less backoff than
/// the breaker-disabled batch, at equal-or-better success count.
#[test]
fn breaker_cuts_attempts_and_backoff_at_equal_success() {
    let n = 48;
    let pool = BatchExecutor::new(4, 0xFEE7, flaky_factory(1.0));
    let off = pool.execute(&jobs(n));
    let registry = HealthRegistry::new();
    let on = pool.execute_with_health(
        &jobs(n),
        &HealthPolicy::breaker_only(),
        &registry,
        "primary",
    );

    // Same rescue quality: the fallback serves every job either way.
    assert_eq!(off.failed_jobs(), 0);
    assert!(on.failed_jobs() <= off.failed_jobs());

    // Strictly cheaper: short-circuited jobs pay zero primary attempts
    // and zero backoff.
    assert!(
        on.report.attempts < off.report.attempts,
        "breaker on: {} attempts, off: {}",
        on.report.attempts,
        off.report.attempts
    );
    assert!(
        on.report.total_backoff_ms < off.report.total_backoff_ms,
        "breaker on: {} ms backoff, off: {} ms",
        on.report.total_backoff_ms,
        off.report.total_backoff_ms
    );
    assert!(on.report.retries < off.report.retries);

    let snap = registry.snapshot("primary").expect("breaker created");
    assert!(snap.trips >= 1, "total outage must trip the breaker");
    assert_eq!(on.report.short_circuited_jobs as u64, snap.short_circuited);
    assert!(snap.recoveries == 0, "the primary never comes back");
}

/// A batch-wide backoff budget caps the total backoff spend; jobs that run
/// out of budget fail with `DeadlineExceeded` without sinking the batch.
#[test]
fn batch_deadline_budget_is_enforced_without_sinking_the_batch() {
    let n = 32;
    let budget_ms = 120;
    let pool = BatchExecutor::new(4, 0xDEAD, no_fallback_factory(0.7));
    let policy = HealthPolicy {
        breaker: None,
        deadline: Some(DeadlinePolicy::Batch(budget_ms)),
    };
    let out = pool.execute_with_health(&jobs(n), &policy, &HealthRegistry::new(), "primary");

    assert_eq!(out.results.len(), n, "every job reports a result");
    assert!(
        out.report.total_backoff_ms <= budget_ms,
        "spent {} ms of a {budget_ms} ms budget",
        out.report.total_backoff_ms
    );
    let deadline_errors = out
        .results
        .iter()
        .filter(|r| matches!(r, Err(BackendError::DeadlineExceeded { .. })))
        .count();
    assert_eq!(out.report.deadline_exceeded_jobs, deadline_errors);
    assert!(
        deadline_errors > 0,
        "a 70% fault rate over 32 jobs must exhaust a {budget_ms} ms budget"
    );
    assert!(
        out.results.iter().any(|r| r.is_ok()),
        "the budget must not starve the whole batch"
    );
    // No unbudgeted run needed for comparison: the cap plus surviving
    // successes is the whole claim.
}

/// Per-job deadline budgets are fully deterministic: every job gets the
/// same budget regardless of completion order.
#[test]
fn per_job_deadline_flags_exactly_the_over_budget_jobs() {
    let n = 24;
    let pool = BatchExecutor::new(3, 0x0DD5, no_fallback_factory(0.8));
    let run = |deadline: Option<DeadlinePolicy>| {
        let policy = HealthPolicy {
            breaker: None,
            deadline,
        };
        pool.execute_with_health(&jobs(n), &policy, &HealthRegistry::new(), "primary")
    };
    let unbounded = run(None);
    let bounded = run(Some(DeadlinePolicy::PerJob(25)));

    assert_eq!(bounded.results.len(), n);
    assert!(
        bounded.report.deadline_exceeded_jobs > 0,
        "tight per-job budget must bite"
    );
    for (i, (u, b)) in unbounded.results.iter().zip(&bounded.results).enumerate() {
        match b {
            // A job within budget behaves exactly as without a deadline.
            Err(BackendError::DeadlineExceeded { job, .. }) => {
                assert_eq!(*job, i as u64, "deadline error names its own job")
            }
            other => assert_eq!(other, u, "job {i} must be unaffected by siblings' budgets"),
        }
    }
    assert!(
        bounded.report.total_backoff_ms < unbounded.report.total_backoff_ms,
        "budgets must cut backoff spend"
    );
}

/// Determinism contract pin: breaker + per-job deadline results, merged
/// reports and breaker snapshots are bitwise invariant in the worker
/// count (fresh registry per run — the deterministic configuration).
#[test]
fn breaker_and_per_job_deadline_are_worker_count_invariant() {
    let n = 40;
    let run = |workers: usize| {
        let pool = BatchExecutor::new(workers, 0xC0FFEE, flaky_factory(0.6));
        let registry = HealthRegistry::new();
        let policy = HealthPolicy {
            breaker: Some(BreakerPolicy::default()),
            deadline: Some(DeadlinePolicy::PerJob(40)),
        };
        let out = pool.execute_with_health(&jobs(n), &policy, &registry, "primary");
        let snap = registry.snapshot("primary").expect("breaker created");
        (out.results, out.report, snap)
    };
    let (results1, report1, snap1) = run(1);
    for workers in [2usize, 8] {
        let (results, report, snap) = run(workers);
        assert_eq!(results1, results, "results diverge at {workers} workers");
        assert_eq!(report1, report, "report diverges at {workers} workers");
        assert_eq!(snap1, snap, "breaker state diverges at {workers} workers");
    }
}

/// The breaker recovers through half-open probes when the primary heals:
/// jobs past the recovery point stop short-circuiting.
#[test]
fn breaker_recovers_via_probes_when_the_primary_heals() {
    // The primary is dead for the first 16 jobs, healthy afterwards.
    let factory = |job: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
        let rate = if job < 16 { 1.0 } else { 0.0 };
        Ok(ResilientExecutor::with_fallback(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(seed),
                FaultSpec::transient(rate, seed),
            )),
            Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
            RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
        ))
    };
    let policy = HealthPolicy {
        breaker: Some(BreakerPolicy {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_jobs: 8,
            probe_budget: 2,
            decision_interval: 4,
        }),
        deadline: None,
    };
    let registry = HealthRegistry::new();
    let out = BatchExecutor::new(4, 0x7EA1, factory).execute_with_health(
        &jobs(64),
        &policy,
        &registry,
        "primary",
    );
    assert_eq!(out.failed_jobs(), 0);
    let snap = registry.snapshot("primary").expect("breaker created");
    assert!(snap.trips >= 1, "the dead phase must trip the breaker");
    assert!(snap.recoveries >= 1, "a healed primary must re-close it");
    assert_eq!(
        snap.state,
        BreakerState::Closed,
        "by job 64 the breaker has settled closed"
    );
    // Recovery is visible in the report: far fewer short circuits than a
    // never-recovering breaker would accumulate over 64 jobs.
    assert!(out.report.short_circuited_jobs < 32);
}

/// Fast deterministic smoke test of the trip path, run by `scripts/ci.sh`
/// as the health gate: a dead primary must trip the breaker at exactly
/// the planned epoch boundary, twice over for determinism.
#[test]
fn breaker_trip_smoke() {
    let run = || {
        let registry = HealthRegistry::new();
        let policy = HealthPolicy {
            breaker: Some(BreakerPolicy {
                window: 8,
                failure_threshold: 0.5,
                min_samples: 4,
                cooldown_jobs: 32,
                probe_budget: 1,
                decision_interval: 4,
            }),
            deadline: None,
        };
        let out = BatchExecutor::new(2, 5, flaky_factory(1.0)).execute_with_health(
            &jobs(12),
            &policy,
            &registry,
            "primary",
        );
        let snap = registry.snapshot("primary").expect("breaker created");
        (out.results, out.report, snap)
    };
    let (results, report, snap) = run();
    assert_eq!(snap.trips, 1, "one trip at the first epoch boundary");
    assert!(matches!(snap.state, BreakerState::Open { .. }));
    // Epoch 1 (jobs 0..4) runs against the dead primary and trips; epochs
    // 2 and 3 short-circuit entirely.
    assert_eq!(report.short_circuited_jobs, 8);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 12);
    assert_eq!(
        run(),
        (results, report, snap),
        "smoke must be deterministic"
    );
}

/// The health layer at the deployment level: `deploy_batch` +
/// `with_health` keeps inference results identical for jobs the fallback
/// rescues, while the breaker slashes the retry bill.
#[test]
fn deployed_batch_with_breaker_matches_results_and_cuts_attempts() {
    let cfg = QnnConfig::standard(16, 4, 2, 2);
    let qnn = Qnn::for_device(cfg, &presets::santiago(), 7).unwrap();
    let batch: Vec<Vec<f64>> = (0..24)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.013).sin())
                .collect()
        })
        .collect();
    let spec = FaultSpec::transient(1.0, 99);
    let run = |health: Option<HealthPolicy>| {
        let mut pooled = qnn
            .deploy_batch(
                &presets::santiago(),
                2,
                RetryPolicy::default(),
                Some(spec),
                4,
                11,
            )
            .unwrap();
        if let Some(h) = health {
            pooled = pooled.with_health(h);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let out = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&pooled),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let registry = std::sync::Arc::clone(pooled.health_registry());
        let keys = registry.keys();
        (out, keys, registry)
    };
    let (off, off_keys, _) = run(None);
    let (on, on_keys, on_registry) = run(Some(HealthPolicy::breaker_only()));

    // The total outage means every job is served by the (deterministic)
    // fallback either way — outputs agree bit-for-bit.
    assert!(off_keys.is_empty(), "no breaker registered without health");
    for (a, b) in off
        .block_outputs
        .iter()
        .flatten()
        .flatten()
        .zip(on.block_outputs.iter().flatten().flatten())
    {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
    let off_report = off.report.expect("batch run carries a report");
    let on_report = on.report.expect("batch run carries a report");
    assert!(on_report.attempts < off_report.attempts);
    assert!(on_report.total_backoff_ms < off_report.total_backoff_ms);

    // One breaker per block, keyed by the routed device window.
    assert!(!on_keys.is_empty());
    for key in &on_keys {
        assert!(key.starts_with("emulator("), "key: {key}");
        let snap = on_registry.snapshot(key).expect("key listed");
        assert!(snap.trips >= 1, "every block's primary is dead: {key}");
    }
}
