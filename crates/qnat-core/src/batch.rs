//! Batched/parallel job submission: a job queue fanned out across a fixed
//! pool of `std::thread` workers.
//!
//! The paper's evaluation (Tables 3–6) sweeps many circuits × devices ×
//! seeds, and a serving deployment pushes whole inference batches at once —
//! but [`crate::executor::ResilientExecutor`] is a single-threaded
//! front-end. [`BatchExecutor`] owns the batch layer on top of it: a shared
//! job queue, `workers` OS threads, and one freshly built
//! [`ResilientExecutor`] per *job*.
//!
//! ## Determinism: seeds are keyed to the job, not the worker
//!
//! Cloud-QPU batches must be reproducible regardless of how much hardware
//! happens to serve them. A pool whose workers carry long-lived executor
//! state cannot offer that: with a dynamic queue, which worker pops which
//! job depends on timing and on the worker count, so any per-worker RNG
//! state leaks into the results. Instead, every job index `k` is hashed
//! (SplitMix64) with the batch seed into a per-job seed, and the worker
//! that pops `k` builds that job's executor from the seed on the spot.
//! Whether the pool has 1 worker or 8, job `k` runs bit-for-bit the same
//! backends, the same fault schedule and the same retry jitter — the
//! property tests in `qnat-core/tests/batch_props.rs` pin this down.
//!
//! The one semantic trade: *cross-job* degradation state (an executor
//! permanently switching to its fallback after
//! [`crate::executor::RetryPolicy::max_consecutive_failures`] exhausted
//! jobs in a row) cannot accumulate across jobs of a batch, because that
//! counter is exactly the kind of assignment-order-dependent state the
//! determinism guarantee forbids. Each job degrades (or not) on its own;
//! the merged report's `degraded` flag is the OR over jobs.
//!
//! Reports merge in job-index order, with every
//! [`crate::executor::FailureRecord::job`] remapped to the batch-global
//! index, so the merged [`ExecutionReport`] is also identical across
//! worker counts.

use crate::executor::{ExecutionReport, ResilientExecutor};
use crate::health::{Admission, DeadlineBudget, HealthPolicy, HealthRegistry, JobSignal};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_noise::seed::derive;
use qnat_sim::circuit::Circuit;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One job of a batch: a circuit plus its shot budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// The circuit to execute.
    pub circuit: Circuit,
    /// Finite-shot budget (`None` = exact expectations).
    pub shots: Option<usize>,
}

impl BatchJob {
    /// An exact-expectation job.
    pub fn exact(circuit: Circuit) -> Self {
        BatchJob {
            circuit,
            shots: None,
        }
    }
}

/// Everything a batch run produced: per-job results in submission order
/// and the merged execution report.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job results, index-aligned with the submitted jobs.
    pub results: Vec<Result<Measurements, BackendError>>,
    /// All per-job reports merged in job-index order
    /// ([`crate::executor::FailureRecord::job`] holds batch-global
    /// indices).
    pub report: ExecutionReport,
}

impl BatchOutcome {
    /// Unwraps every job into its measurements, surfacing the first
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns the first job's [`BackendError`], if any job failed past
    /// every retry and fallback.
    pub fn into_measurements(self) -> Result<Vec<Measurements>, BackendError> {
        self.results.into_iter().collect()
    }

    /// Number of jobs that ultimately failed.
    pub fn failed_jobs(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Runs one job of a fleet — the worker-loop core shared by
/// [`BatchExecutor`] and the long-lived workers of the `qnat-serve`
/// engine. Builds the job's executor from `factory` at the global index
/// and seed, attaches a fresh `deadline_ms` backoff budget, applies the
/// health layer's `short_circuit` verdict, executes, and remaps the
/// report's failure records and any surfaced error to the global job
/// index.
///
/// Determinism contract: for a fixed `(global, seed, job)` the outcome is
/// a pure function of the factory — which worker (or which serving lane)
/// runs the job can never change the result.
pub fn run_job<F>(
    factory: &F,
    global: u64,
    seed: u64,
    job: &BatchJob,
    short_circuit: bool,
    deadline_ms: Option<u64>,
) -> (Result<Measurements, BackendError>, ExecutionReport)
where
    F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + ?Sized,
{
    let (result, mut report) = match factory(global, seed) {
        Ok(mut ex) => {
            if let Some(ms) = deadline_ms {
                ex = ex.with_deadline(DeadlineBudget::new(ms));
            }
            if short_circuit {
                ex.short_circuit_primary();
            }
            let r = ex.execute(&job.circuit, job.shots);
            (r, ex.report().clone())
        }
        Err(e) => (Err(e), ExecutionReport::default()),
    };
    // Per-job executors number their (single) job 0; remap to the global
    // index so merged failure records and surfaced errors stay
    // attributable.
    for f in &mut report.failures {
        f.job = global;
    }
    (result.map_err(|e| e.with_job(global)), report)
}

/// A worker-pool batch front-end over per-job [`ResilientExecutor`]s.
///
/// `factory` receives the batch-global job index and the splitmix-derived
/// per-job seed, and builds that job's executor (backends, fault
/// decorators, retry policy, sleeper). It must be deterministic in its
/// arguments — that is what makes batch results independent of the worker
/// count. The factory is fallible so deployment code can surface
/// backend-construction errors as that job's result instead of panicking
/// inside a worker.
pub struct BatchExecutor<F>
where
    F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Sync,
{
    factory: F,
    workers: usize,
    seed: u64,
}

impl<F> BatchExecutor<F>
where
    F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Sync,
{
    /// A pool of `workers` threads (clamped to ≥ 1) over `factory`.
    pub fn new(workers: usize, seed: u64, factory: F) -> Self {
        BatchExecutor {
            factory,
            workers: workers.max(1),
            seed,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-job executor seed for batch-global job index `job` — pure
    /// function of `(batch seed, job)`.
    pub fn job_seed(&self, job: u64) -> u64 {
        derive(self.seed, job)
    }

    /// Runs every job through the pool and merges the per-job reports.
    ///
    /// Results come back in submission order; per-job failures are stored
    /// in the outcome rather than aborting the batch, so one poisoned job
    /// cannot sink its siblings.
    pub fn execute(&self, jobs: &[BatchJob]) -> BatchOutcome {
        let finished = self.run_slice(jobs, 0, None, None);
        Self::collect(finished, jobs.len())
    }

    /// Like [`BatchExecutor::execute`], but under `policy`'s health layer:
    /// fleet-wide circuit breaking over the primary backend (the breaker
    /// registered in `registry` under `breaker_key`) and/or per-job
    /// deadline budgets.
    ///
    /// With a breaker, jobs run in epochs of
    /// [`crate::health::BreakerPolicy::decision_interval`]: admissions are
    /// planned before each epoch and outcomes observed in job-index order
    /// after it, so results stay bitwise worker-count invariant — see the
    /// determinism contract in [`crate::health`].
    pub fn execute_with_health(
        &self,
        jobs: &[BatchJob],
        policy: &HealthPolicy,
        registry: &HealthRegistry,
        breaker_key: &str,
    ) -> BatchOutcome {
        let Some(breaker_policy) = &policy.breaker else {
            let finished = self.run_slice(jobs, 0, None, policy.deadline_ms);
            return Self::collect(finished, jobs.len());
        };
        let epoch_len = breaker_policy.decision_interval.max(1);
        let mut finished = Vec::with_capacity(jobs.len());
        let mut base = 0usize;
        for chunk in jobs.chunks(epoch_len) {
            let admissions =
                registry.with_breaker(breaker_key, breaker_policy, |b| b.plan_epoch(chunk.len()));
            let mut part = self.run_slice(chunk, base, Some(&admissions), policy.deadline_ms);
            part.sort_by_key(|(i, _, _)| *i);
            registry.with_breaker(breaker_key, breaker_policy, |b| {
                for (i, result, report) in &part {
                    b.observe(admissions[i - base], job_signal(result, report));
                }
                b.end_epoch();
            });
            finished.extend(part);
            base += chunk.len();
        }
        Self::collect(finished, jobs.len())
    }

    /// Fans `jobs` (batch-global indices `base..base + jobs.len()`) across
    /// the pool. `admissions`, when given, is index-aligned with `jobs`
    /// and marks breaker-short-circuited jobs; `deadline_ms` gives each job
    /// a backoff budget.
    fn run_slice(
        &self,
        jobs: &[BatchJob],
        base: usize,
        admissions: Option<&[Admission]>,
        deadline_ms: Option<u64>,
    ) -> Vec<(usize, Result<Measurements, BackendError>, ExecutionReport)> {
        let n = jobs.len();
        let workers = self.workers.min(n.max(1));
        let next = AtomicUsize::new(0);
        let run_worker = || {
            let mut done: Vec<(usize, Result<Measurements, BackendError>, ExecutionReport)> =
                Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let g = (base + i) as u64;
                let short = admissions.map(|a| a[i]) == Some(Admission::ShortCircuit);
                let (result, report) = run_job(
                    &self.factory,
                    g,
                    self.job_seed(g),
                    &jobs[i],
                    short,
                    deadline_ms,
                );
                done.push((base + i, result, report));
            }
            done
        };
        thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect()
        })
    }

    /// Sorts per-job results into job-index order and merges the reports —
    /// the order makes the merged report (failure list included)
    /// independent of which worker finished when.
    fn collect(
        mut finished: Vec<(usize, Result<Measurements, BackendError>, ExecutionReport)>,
        n: usize,
    ) -> BatchOutcome {
        finished.sort_by_key(|(i, _, _)| *i);
        let mut report = ExecutionReport::default();
        let mut results = Vec::with_capacity(n);
        for (_, result, job_report) in finished {
            report.merge(&job_report);
            results.push(result);
        }
        BatchOutcome { results, report }
    }
}

/// What a finished job says about the *primary* backend's health.
///
/// Fallback rescues count as primary failures (the primary exhausted its
/// retries); short-circuited, validation-rejected, factory-failed and
/// deadline-aborted jobs are neutral — they carry no verdict on the
/// primary. Public so the `qnat-serve` engine feeds its breakers the same
/// verdicts the batch health layer does.
pub fn job_signal(
    result: &Result<Measurements, BackendError>,
    report: &ExecutionReport,
) -> JobSignal {
    if report.short_circuited_jobs > 0 {
        return JobSignal::Neutral;
    }
    if report.fallback_jobs > 0 {
        return JobSignal::Failure;
    }
    match result {
        Ok(_) if report.attempts > 0 => JobSignal::Success,
        Err(BackendError::DeadlineExceeded { .. }) => JobSignal::Neutral,
        Err(_) if report.attempts > 0 => JobSignal::Failure,
        _ => JobSignal::Neutral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RetryPolicy;
    use qnat_noise::backend::SimulatorBackend;
    use qnat_noise::fault::{FaultSpec, FaultyBackend};
    use qnat_sim::gate::Gate;

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|k| {
                let mut c = Circuit::new(2);
                c.push(Gate::ry(0, 0.1 + 0.05 * k as f64));
                c.push(Gate::cx(0, 1));
                BatchJob::exact(c)
            })
            .collect()
    }

    fn faulty_factory(
        rate: f64,
    ) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Sync {
        move |_job, seed| {
            Ok(ResilientExecutor::new(
                Box::new(FaultyBackend::new(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(rate, seed),
                )),
                RetryPolicy::default(),
            ))
        }
    }

    fn run(workers: usize, rate: f64, n: usize) -> BatchOutcome {
        BatchExecutor::new(workers, 0xbeef, faulty_factory(rate)).execute(&jobs(n))
    }

    #[test]
    fn clean_batch_executes_every_job_once() {
        let out = run(4, 0.0, 16);
        assert_eq!(out.results.len(), 16);
        assert_eq!(out.failed_jobs(), 0);
        assert_eq!(
            (out.report.jobs, out.report.attempts, out.report.retries),
            (16, 16, 0)
        );
        let all = out.into_measurements().unwrap();
        assert!(all.iter().all(|m| m.expectations.len() == 2));
    }

    #[test]
    fn results_and_report_are_worker_count_invariant() {
        let single = run(1, 0.4, 24);
        for workers in [2, 3, 8] {
            let pooled = run(workers, 0.4, 24);
            assert_eq!(single.results, pooled.results, "workers = {workers}");
            assert_eq!(single.report, pooled.report, "workers = {workers}");
        }
    }

    #[test]
    fn failure_records_carry_batch_global_job_indices() {
        let out = run(3, 0.5, 32);
        assert!(!out.report.failures.is_empty(), "some faults expected");
        let mut last = 0;
        for f in &out.report.failures {
            assert!(f.job < 32);
            assert!(
                f.job >= last,
                "failures sorted by job: {:?}",
                out.report.failures
            );
            last = f.job;
        }
    }

    #[test]
    fn factory_errors_become_per_job_results() {
        let factory = |_job: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
            if seed.is_multiple_of(2) {
                Err(BackendError::InvalidConfig {
                    reason: "even seed rejected".into(),
                })
            } else {
                Ok(ResilientExecutor::new(
                    Box::new(SimulatorBackend::new(seed)),
                    RetryPolicy::default(),
                ))
            }
        };
        let out = BatchExecutor::new(4, 7, factory).execute(&jobs(16));
        assert_eq!(out.results.len(), 16);
        assert!(out.failed_jobs() > 0, "some even job seeds must exist");
        assert!(out.failed_jobs() < 16, "some odd job seeds must exist");
        for r in out.results.iter().filter(|r| r.is_err()) {
            assert!(matches!(r, Err(BackendError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn health_path_without_breaker_or_deadline_matches_plain_execute() {
        let ex = BatchExecutor::new(3, 0xbeef, faulty_factory(0.4));
        let plain = ex.execute(&jobs(16));
        let health = ex.execute_with_health(
            &jobs(16),
            &HealthPolicy::default(),
            &HealthRegistry::new(),
            "primary",
        );
        assert_eq!(plain.results, health.results);
        assert_eq!(plain.report, health.report);
    }

    #[test]
    fn breaker_short_circuits_feed_no_failure_signal() {
        // Total outage with a fallback: the breaker trips after the first
        // epoch and later jobs short-circuit to the fallback; their
        // neutral signals must not keep re-tripping the (already open)
        // breaker.
        let factory = |_job: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
            Ok(ResilientExecutor::with_fallback(
                Box::new(FaultyBackend::new(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(1.0, seed),
                )),
                Box::new(SimulatorBackend::new(seed ^ 1)),
                RetryPolicy {
                    max_attempts: 3,
                    ..RetryPolicy::default()
                },
            ))
        };
        let registry = HealthRegistry::new();
        let policy = HealthPolicy::breaker_only();
        let out = BatchExecutor::new(4, 7, factory).execute_with_health(
            &jobs(32),
            &policy,
            &registry,
            "primary",
        );
        assert_eq!(out.failed_jobs(), 0, "fallback serves every job");
        let snap = registry.snapshot("primary").expect("breaker created");
        assert!(snap.trips >= 1);
        assert!(snap.short_circuited > 0);
        assert_eq!(out.report.short_circuited_jobs as u64, snap.short_circuited);
        // Short-circuited jobs pay zero primary attempts.
        assert!(
            out.report.attempts < 32 * 3,
            "breaker must cut the attempt storm: {}",
            out.report.attempts
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let out = run(4, 0.3, 0);
        assert!(out.results.is_empty());
        assert_eq!(out.report, ExecutionReport::default());
    }

    #[test]
    fn oversubscribed_pool_clamps_to_job_count() {
        let out = run(64, 0.0, 3);
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.failed_jobs(), 0);
    }
}
