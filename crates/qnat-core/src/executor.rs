//! Resilient circuit execution: retry with exponential backoff, typed
//! failure accounting, and graceful degradation to a fallback backend.
//!
//! Real cloud QPUs reject jobs transiently, time out in queues and drift
//! between calibrations. [`ResilientExecutor`] wraps a primary
//! [`QuantumBackend`] (plus an optional fallback, typically the
//! Pauli-twirled noise-model simulator — Table 11 shows it tracks hardware
//! within a few accuracy points) and drives every job through a
//! retry/backoff loop:
//!
//! 1. validate the circuit once — deterministic rejections never retry;
//! 2. attempt the primary up to [`RetryPolicy::max_attempts`] times, with
//!    exponentially growing, deterministically jittered backoff between
//!    attempts — the backoff interval is always recorded in the
//!    [`ExecutionReport`], and the injected [`Sleeper`] decides whether it
//!    also elapses on the wall clock ([`ThreadSleeper`], deployment) or
//!    not ([`VirtualSleeper`], tests and benches);
//! 3. on exhaustion, serve the job from the fallback and count a
//!    `fallback_jobs`; after [`RetryPolicy::max_consecutive_failures`]
//!    consecutive exhaustions the executor *degrades permanently* and stops
//!    submitting to the primary at all.
//!
//! Every decision is recorded in the structured [`ExecutionReport`] that
//! inference surfaces to the caller.

use qnat_noise::backend::{BackendError, Measurements, QuantumBackend};
use qnat_noise::seed::derive;
use qnat_sim::circuit::Circuit;
use std::collections::BTreeMap;
use std::fmt;

pub use crate::time::{Sleeper, ThreadSleeper, VirtualSleeper};

/// Re-exported from [`qnat_noise::seed`], where every seed derivation of
/// the stack lives.
pub use qnat_noise::seed::splitmix64;

/// Retry/backoff/degradation policy of a [`ResilientExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per job on the primary backend (≥ 1).
    pub max_attempts: usize,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling on a single backoff interval, in milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter amplitude: each backoff is scaled by a deterministic factor
    /// in `[1 − jitter, 1 + jitter]` to decorrelate retry storms.
    pub jitter: f64,
    /// Consecutive jobs that must exhaust their retries before the
    /// executor permanently degrades to the fallback backend.
    pub max_consecutive_failures: usize,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 250,
            max_backoff_ms: 8_000,
            jitter: 0.25,
            max_consecutive_failures: 3,
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and degrades after the first failed job.
    pub fn fail_fast() -> Self {
        RetryPolicy {
            max_attempts: 1,
            max_consecutive_failures: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry `retry` (0-based) of job `job`: exponential in
    /// the retry index, jittered deterministically by
    /// `(jitter_seed, job, retry)`, and clamped to
    /// [`RetryPolicy::max_backoff_ms`] *after* jitter — the documented
    /// ceiling is a hard bound on what a deployment actually sleeps.
    pub fn backoff_ms(&self, job: u64, retry: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64.checked_shl(retry.min(32)).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms);
        let h = derive(
            self.jitter_seed,
            job.wrapping_mul(0x1_0001).wrapping_add(retry as u64),
        );
        // 53-bit mantissa draw in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        ((exp as f64 * factor).round().max(0.0) as u64).min(self.max_backoff_ms)
    }
}

/// One recorded failure: which job, which attempt, what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Job index on this executor.
    pub job: u64,
    /// 1-based attempt number within the job.
    pub attempt: usize,
    /// The typed error that occurred.
    pub error: BackendError,
}

impl fmt::Display for FailureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} attempt {}: {}",
            self.job, self.attempt, self.error
        )
    }
}

/// Per-backend slice of an [`ExecutionReport`]: what one named backend
/// did, keyed by [`QuantumBackend::name`]. This is the stable feature
/// stream the calibration tracker (`qnat-calib`) consumes — counters
/// here are attributed to the backend that incurred them, unlike the
/// report's flat totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendUsage {
    /// Circuits executed on this backend (primary attempts or fallback
    /// serves).
    pub attempts: usize,
    /// Retries after this backend failed retryably.
    pub retries: usize,
    /// Circuits this backend rejected at validation (deterministic, never
    /// retried).
    pub validation_failures: usize,
    /// Jobs fast-failed while this backend was the terminally-degraded
    /// primary.
    pub fast_failed_jobs: usize,
    /// Jobs this backend served as the fallback.
    pub fallback_jobs: usize,
    /// Backoff milliseconds accrued waiting to retry this backend.
    pub backoff_ms: u64,
}

impl BackendUsage {
    /// Folds another usage record into this one.
    pub fn merge(&mut self, other: &BackendUsage) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.validation_failures += other.validation_failures;
        self.fast_failed_jobs += other.fast_failed_jobs;
        self.fallback_jobs += other.fallback_jobs;
        self.backoff_ms += other.backoff_ms;
    }
}

/// Structured account of everything a [`ResilientExecutor`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// Jobs submitted to the executor.
    pub jobs: usize,
    /// Attempts made on the primary backend (≥ retries).
    pub attempts: usize,
    /// Retries after a retryable failure.
    pub retries: usize,
    /// Jobs ultimately served by the fallback backend.
    pub fallback_jobs: usize,
    /// Jobs the health layer short-circuited past the primary (circuit
    /// breaker open): zero primary attempts, zero backoff.
    pub short_circuited_jobs: usize,
    /// Jobs failed immediately because the executor had already
    /// terminally degraded with no working fallback — the backoff tax was
    /// paid once, not per job.
    pub fast_failed_jobs: usize,
    /// Jobs abandoned because their deadline budget could not cover the
    /// next retry backoff.
    pub deadline_exceeded_jobs: usize,
    /// Whether the executor permanently degraded to the fallback.
    pub degraded: bool,
    /// Milliseconds of backoff accrued between retries. With a
    /// [`ThreadSleeper`] this time really elapsed on the wall clock; with
    /// a [`VirtualSleeper`] it was recorded only.
    pub total_backoff_ms: u64,
    /// Shots short of the requested budget, summed over truncated jobs.
    pub shot_shortfall: usize,
    /// Every failure observed, in order.
    pub failures: Vec<FailureRecord>,
    /// Per-backend attribution of the counters above, keyed by backend
    /// name — see [`ExecutionReport::backend_usage`].
    pub by_backend: BTreeMap<String, BackendUsage>,
}

impl ExecutionReport {
    /// Folds another report (e.g. a different block's executor) into this
    /// one. `degraded` is sticky: any degraded part degrades the whole.
    pub fn merge(&mut self, other: &ExecutionReport) {
        self.jobs += other.jobs;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.fallback_jobs += other.fallback_jobs;
        self.short_circuited_jobs += other.short_circuited_jobs;
        self.fast_failed_jobs += other.fast_failed_jobs;
        self.deadline_exceeded_jobs += other.deadline_exceeded_jobs;
        self.degraded |= other.degraded;
        self.total_backoff_ms += other.total_backoff_ms;
        self.shot_shortfall += other.shot_shortfall;
        self.failures.extend(other.failures.iter().cloned());
        for (name, usage) in &other.by_backend {
            self.usage_mut(name).merge(usage);
        }
    }

    /// Backend keys with recorded usage, in deterministic (sorted) order.
    pub fn backend_keys(&self) -> impl Iterator<Item = &str> {
        self.by_backend.keys().map(String::as_str)
    }

    /// This backend's usage slice (zeroes if it never ran anything).
    pub fn backend_usage(&self, backend: &str) -> BackendUsage {
        self.by_backend.get(backend).copied().unwrap_or_default()
    }

    /// Retries attributed to `backend`.
    pub fn retries_for(&self, backend: &str) -> usize {
        self.backend_usage(backend).retries
    }

    /// Validation rejections attributed to `backend`.
    pub fn validation_failures_for(&self, backend: &str) -> usize {
        self.backend_usage(backend).validation_failures
    }

    /// Fast-failed jobs attributed to `backend`.
    pub fn fast_fails_for(&self, backend: &str) -> usize {
        self.backend_usage(backend).fast_failed_jobs
    }

    /// Backoff milliseconds attributed to `backend`.
    pub fn backoff_ms_for(&self, backend: &str) -> u64 {
        self.backend_usage(backend).backoff_ms
    }

    fn usage_mut(&mut self, backend: &str) -> &mut BackendUsage {
        if !self.by_backend.contains_key(backend) {
            self.by_backend
                .insert(backend.to_string(), BackendUsage::default());
        }
        self.by_backend
            .get_mut(backend)
            .expect("usage entry just ensured")
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} attempts ({} retries, {} ms backoff), {} fallback jobs",
            self.jobs, self.attempts, self.retries, self.total_backoff_ms, self.fallback_jobs,
        )?;
        if self.short_circuited_jobs > 0 {
            write!(f, ", {} short-circuited", self.short_circuited_jobs)?;
        }
        if self.fast_failed_jobs > 0 {
            write!(f, ", {} fast-failed", self.fast_failed_jobs)?;
        }
        if self.deadline_exceeded_jobs > 0 {
            write!(f, ", {} past deadline", self.deadline_exceeded_jobs)?;
        }
        if self.degraded {
            write!(f, ", DEGRADED")?;
        }
        Ok(())
    }
}

/// A retrying, degradable front-end over one or two [`QuantumBackend`]s.
pub struct ResilientExecutor {
    primary: Box<dyn QuantumBackend>,
    fallback: Option<Box<dyn QuantumBackend>>,
    policy: RetryPolicy,
    sleeper: Box<dyn Sleeper>,
    consecutive_failures: usize,
    fallback_consecutive_failures: usize,
    job_index: u64,
    /// Health-layer flag: skip the primary entirely (breaker open) and
    /// serve from the fallback.
    short_circuited: bool,
    /// Once set, every further job fails immediately with a clone of this
    /// error — the executor is terminally degraded with nothing left to
    /// serve from, so re-paying retries and backoff per job is pure waste.
    terminal_error: Option<BackendError>,
    report: ExecutionReport,
}

impl fmt::Debug for ResilientExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientExecutor")
            .field("primary", &self.primary.name())
            .field("fallback", &self.fallback.as_ref().map(|b| b.name()))
            .field("policy", &self.policy)
            .field("report", &self.report)
            .finish()
    }
}

impl ResilientExecutor {
    /// An executor with no fallback: jobs that exhaust their retries fail.
    /// Backoff runs on a [`VirtualSleeper`]; inject a [`ThreadSleeper`]
    /// with [`ResilientExecutor::with_sleeper`] for real wall-clock
    /// throttling.
    pub fn new(primary: Box<dyn QuantumBackend>, policy: RetryPolicy) -> Self {
        ResilientExecutor {
            primary,
            fallback: None,
            policy,
            sleeper: Box::new(VirtualSleeper::default()),
            consecutive_failures: 0,
            fallback_consecutive_failures: 0,
            job_index: 0,
            short_circuited: false,
            terminal_error: None,
            report: ExecutionReport::default(),
        }
    }

    /// An executor that degrades to `fallback` when the primary keeps
    /// failing.
    pub fn with_fallback(
        primary: Box<dyn QuantumBackend>,
        fallback: Box<dyn QuantumBackend>,
        policy: RetryPolicy,
    ) -> Self {
        ResilientExecutor {
            fallback: Some(fallback),
            ..ResilientExecutor::new(primary, policy)
        }
    }

    /// Replaces the backoff sleeper (builder style). Deployments serving
    /// live traffic inject a [`ThreadSleeper`] here so retry backoff
    /// elapses on the wall clock instead of only being recorded.
    pub fn with_sleeper(mut self, sleeper: Box<dyn Sleeper>) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Caps this executor's total backoff by `budget` (builder style):
    /// the current sleeper is wrapped in a
    /// [`crate::health::DeadlineSleeper`], so a backoff interval the
    /// budget cannot cover makes the job fail with
    /// [`BackendError::DeadlineExceeded`] instead of sleeping past the
    /// deadline. Budgets can be shared across executors (batch-wide
    /// deadline) or fresh per executor (per-job deadline).
    pub fn with_deadline(mut self, budget: crate::health::DeadlineBudget) -> Self {
        let inner = std::mem::replace(&mut self.sleeper, Box::new(VirtualSleeper::default()));
        self.sleeper = Box::new(crate::health::DeadlineSleeper::new(inner, budget));
        self
    }

    /// Health-layer switch: stop submitting to the primary (its circuit
    /// breaker is open) and serve every job from the fallback. Unlike
    /// degradation this is externally imposed and carries no judgement
    /// about the primary — the breaker owns recovery.
    pub fn short_circuit_primary(&mut self) {
        self.short_circuited = true;
    }

    /// Total milliseconds of backoff the sleeper has accounted — equals
    /// [`ExecutionReport::total_backoff_ms`] for backoff accrued by this
    /// executor.
    pub fn slept_ms(&self) -> u64 {
        self.sleeper.slept_ms()
    }

    /// The accumulated execution report.
    pub fn report(&self) -> &ExecutionReport {
        &self.report
    }

    /// `true` once the executor has permanently switched to the fallback.
    pub fn is_degraded(&self) -> bool {
        self.report.degraded
    }

    /// Name of the backend currently serving jobs.
    pub fn active_backend(&self) -> &str {
        match (&self.fallback, self.report.degraded) {
            (Some(fb), true) => fb.name(),
            _ => self.primary.name(),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn run_fallback(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Option<Result<Measurements, BackendError>> {
        let fb = self.fallback.as_mut()?;
        let fb_name = fb.name().to_string();
        self.report.fallback_jobs += 1;
        let res = fb.execute(circuit, shots);
        {
            let usage = self.report.usage_mut(&fb_name);
            usage.fallback_jobs += 1;
            usage.attempts += 1;
        }
        // A fallback that keeps failing after the primary is gone leaves
        // nothing to serve from: remember the error and stop paying the
        // per-job retry/backoff tax.
        match &res {
            Ok(_) => self.fallback_consecutive_failures = 0,
            Err(e) => {
                self.fallback_consecutive_failures += 1;
                if self.report.degraded
                    && self.fallback_consecutive_failures
                        >= self.policy.max_consecutive_failures.max(1)
                {
                    self.terminal_error = Some(e.clone());
                }
            }
        }
        Some(res)
    }

    /// Submits one job: validate, retry the primary with backoff, then
    /// degrade to the fallback if the primary keeps failing.
    ///
    /// # Errors
    ///
    /// Returns the validation error; [`BackendError::DeadlineExceeded`]
    /// when a deadline budget (see [`ResilientExecutor::with_deadline`])
    /// cannot cover the next backoff and no fallback can serve the job
    /// instead; [`BackendError::CircuitOpen`] when
    /// the health layer short-circuited the primary and there is no
    /// fallback; or the last [`BackendError`] once the retry budget is
    /// exhausted and no fallback is available (or the fallback itself
    /// fails).
    pub fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        let job = self.job_index;
        self.job_index += 1;
        self.report.jobs += 1;
        let primary_name = self.primary.name().to_string();
        // Validation failures are deterministic — retries and fallbacks
        // (same register/coupling) would fail identically.
        if let Err(e) = self.primary.validate(circuit) {
            self.report.usage_mut(&primary_name).validation_failures += 1;
            return Err(e);
        }
        if let Some(err) = &self.terminal_error {
            self.report.fast_failed_jobs += 1;
            self.report.usage_mut(&primary_name).fast_failed_jobs += 1;
            return Err(err.clone());
        }
        if self.short_circuited {
            self.report.short_circuited_jobs += 1;
            return match self.run_fallback(circuit, shots) {
                Some(res) => res,
                None => Err(BackendError::CircuitOpen {
                    backend: self.primary.name().to_string(),
                }),
            };
        }
        if self.report.degraded {
            if let Some(res) = self.run_fallback(circuit, shots) {
                return res;
            }
        }
        let max_attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..max_attempts {
            self.report.attempts += 1;
            self.report.usage_mut(&primary_name).attempts += 1;
            match self.primary.execute(circuit, shots) {
                Ok(m) => {
                    self.consecutive_failures = 0;
                    if let (Some(req), Some(used)) = (shots, m.shots_used) {
                        self.report.shot_shortfall += req.saturating_sub(used);
                    }
                    return Ok(m);
                }
                Err(e) => {
                    self.report.failures.push(FailureRecord {
                        job,
                        attempt: attempt + 1,
                        error: e.clone(),
                    });
                    if !e.is_retryable() {
                        // Deterministic mid-execution failure: retrying is
                        // pointless, but the fallback backend may still
                        // serve the job (it counts toward degradation).
                        last_err = Some(e);
                        break;
                    }
                    if attempt + 1 < max_attempts {
                        let backoff = self.policy.backoff_ms(job, attempt as u32);
                        if !self.sleeper.try_sleep(backoff) {
                            // Deadline budget cannot cover this backoff:
                            // the primary's retry schedule is out of time.
                            // The fallback costs no backoff, so it may
                            // still serve the job — but the abort carries
                            // no degradation judgement about the primary.
                            let err = BackendError::DeadlineExceeded {
                                job,
                                needed_ms: backoff,
                            };
                            self.report.failures.push(FailureRecord {
                                job,
                                attempt: attempt + 1,
                                error: err.clone(),
                            });
                            self.report.deadline_exceeded_jobs += 1;
                            return match self.run_fallback(circuit, shots) {
                                Some(res) => res,
                                None => Err(err),
                            };
                        }
                        self.report.retries += 1;
                        self.report.total_backoff_ms += backoff;
                        {
                            let usage = self.report.usage_mut(&primary_name);
                            usage.retries += 1;
                            usage.backoff_ms += backoff;
                        }
                    }
                    last_err = Some(e);
                }
            }
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.policy.max_consecutive_failures.max(1) {
            self.report.degraded = true;
            if self.fallback.is_none() {
                // Nothing left to serve from: future jobs fast-fail with
                // this error instead of re-paying retries and backoff.
                self.terminal_error = last_err.clone();
            }
        }
        match self.run_fallback(circuit, shots) {
            Some(res) => res,
            // `last_err` is always set here: the loop above runs at least
            // once and only exits with an error recorded.
            None => Err(last_err.unwrap_or(BackendError::InvalidConfig {
                reason: "retry loop exited without attempting".into(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_noise::backend::SimulatorBackend;
    use qnat_noise::fault::{FaultSpec, FaultyBackend};
    use qnat_noise::presets;
    use qnat_sim::gate::Gate;
    use std::time::Duration;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn backoff_schedule_is_bounded_and_monotone_in_expectation() {
        let p = RetryPolicy::default();
        for job in 0..20u64 {
            for retry in 0..8u32 {
                let exp = (p.base_backoff_ms << retry.min(32)).min(p.max_backoff_ms);
                let lo = (exp as f64 * (1.0 - p.jitter)).floor() as u64;
                let hi = (exp as f64 * (1.0 + p.jitter)).ceil() as u64;
                let b = p.backoff_ms(job, retry);
                assert!(
                    (lo..=hi).contains(&b),
                    "job {job} retry {retry}: {b} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn backoff_never_exceeds_documented_ceiling() {
        // Regression: jitter used to apply *after* the max_backoff_ms cap,
        // so a jittered interval could overshoot the ceiling by up to
        // jitter×. The cap is a hard bound on the final value.
        let p = RetryPolicy {
            base_backoff_ms: 1_000,
            max_backoff_ms: 4_000,
            jitter: 0.25,
            ..RetryPolicy::default()
        };
        let mut saturated_draws = 0u32;
        for job in 0..200u64 {
            for retry in 0..10u32 {
                let b = p.backoff_ms(job, retry);
                assert!(
                    b <= p.max_backoff_ms,
                    "job {job} retry {retry}: {b} > cap {}",
                    p.max_backoff_ms
                );
                if retry >= 2 && b == p.max_backoff_ms {
                    saturated_draws += 1;
                }
            }
        }
        // Roughly half of the capped-exponent draws jitter upward and
        // clamp exactly onto the ceiling; if none do, the cap is not
        // actually being exercised.
        assert!(saturated_draws > 100, "cap never binds: {saturated_draws}");
    }

    #[test]
    fn thread_sleeper_executor_sleeps_exactly_the_reported_backoff() {
        // Same faulty schedule through a virtual and a wall-clock
        // executor: identical reports, identical accounted backoff, and
        // the wall-clock run measurably elapses.
        let policy = RetryPolicy {
            base_backoff_ms: 2,
            max_backoff_ms: 8,
            ..RetryPolicy::default()
        };
        let make = |sleeper: Box<dyn Sleeper>| {
            ResilientExecutor::new(
                Box::new(FaultyBackend::new(
                    SimulatorBackend::new(0),
                    FaultSpec::transient(0.5, 21),
                )),
                policy.clone(),
            )
            .with_sleeper(sleeper)
        };
        let mut virt = make(Box::<VirtualSleeper>::default());
        let mut real = make(Box::<ThreadSleeper>::default());
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let _ = virt.execute(&bell(), None);
            let _ = real.execute(&bell(), None);
        }
        let elapsed = start.elapsed();
        assert_eq!(virt.report(), real.report());
        assert_eq!(virt.slept_ms(), virt.report().total_backoff_ms);
        assert_eq!(real.slept_ms(), real.report().total_backoff_ms);
        assert!(real.slept_ms() > 0, "some retries must have backed off");
        assert!(
            elapsed >= Duration::from_millis(real.slept_ms()),
            "wall clock {elapsed:?} < accounted sleep {} ms",
            real.slept_ms()
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_varied() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(3, 1), p.backoff_ms(3, 1));
        let draws: Vec<u64> = (0..16).map(|j| p.backoff_ms(j, 1)).collect();
        let distinct: std::collections::HashSet<u64> = draws.iter().copied().collect();
        assert!(
            distinct.len() > 8,
            "jitter should vary across jobs: {draws:?}"
        );
    }

    #[test]
    fn clean_backend_needs_one_attempt_per_job() {
        let mut ex =
            ResilientExecutor::new(Box::new(SimulatorBackend::new(0)), RetryPolicy::default());
        for _ in 0..5 {
            ex.execute(&bell(), None).unwrap();
        }
        let r = ex.report();
        assert_eq!((r.jobs, r.attempts, r.retries), (5, 5, 0));
        assert!(!r.degraded && r.failures.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // 30% transient faults, 4 attempts: P(all 4 fail) ≈ 0.8% per job.
        let faulty = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(0.3, 11));
        let mut ex = ResilientExecutor::new(Box::new(faulty), RetryPolicy::default());
        let mut ok = 0;
        for _ in 0..40 {
            if ex.execute(&bell(), None).is_ok() {
                ok += 1;
            }
        }
        let r = ex.report();
        assert!(ok >= 38, "retries should absorb most faults: {ok}/40");
        assert!(r.retries > 0, "some retries must have happened");
        assert_eq!(
            r.retries as u64,
            r.failures
                .iter()
                .filter(|f| f.attempt < ex.policy.max_attempts)
                .count() as u64
        );
        assert!(r.total_backoff_ms > 0);
    }

    #[test]
    fn validation_errors_do_not_consume_attempts() {
        let mut ex =
            ResilientExecutor::new(Box::new(SimulatorBackend::new(0)), RetryPolicy::default());
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, f64::NAN));
        let err = ex.execute(&c, None).unwrap_err();
        assert!(matches!(err, BackendError::NonFiniteParameter { .. }));
        assert_eq!(ex.report().attempts, 0);
        assert_eq!(ex.report().retries, 0);
    }

    #[test]
    fn always_failing_primary_degrades_to_fallback() {
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(broken),
            Box::new(SimulatorBackend::new(1)),
            RetryPolicy {
                max_attempts: 2,
                max_consecutive_failures: 3,
                ..RetryPolicy::default()
            },
        );
        for job in 0..6 {
            let m = ex.execute(&bell(), None).unwrap();
            assert_eq!(m.expectations.len(), 2, "job {job} still served");
        }
        let r = ex.report();
        assert!(r.degraded, "3 consecutive exhausted jobs must degrade");
        assert_eq!(r.fallback_jobs, 6, "every job fell back");
        // After degradation (job 3 onward) the primary is never attempted:
        // 3 jobs × 2 attempts, then zero.
        assert_eq!(r.attempts, 6);
        assert_eq!(ex.active_backend(), "statevector-simulator");
    }

    #[test]
    fn exhausted_retries_without_fallback_return_last_error() {
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::new(
            Box::new(broken),
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let err = ex.execute(&bell(), None).unwrap_err();
        assert!(err.is_retryable(), "last error surfaced: {err}");
        assert_eq!(ex.report().attempts, 3);
        assert_eq!(ex.report().failures.len(), 3);
        assert!(!ex.report().degraded, "no fallback → no degradation");
    }

    #[test]
    fn fallback_free_outage_fast_fails_after_terminal_degradation() {
        // Regression: a permanently-failed executor with no fallback used
        // to re-pay the full retry/backoff tax on every subsequent job.
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::new(
            Box::new(broken),
            RetryPolicy {
                max_attempts: 2,
                max_consecutive_failures: 2,
                ..RetryPolicy::default()
            },
        );
        for _ in 0..2 {
            assert!(ex.execute(&bell(), None).is_err());
        }
        let paid = (ex.report().attempts, ex.report().total_backoff_ms);
        assert_eq!(paid.0, 4, "2 jobs × 2 attempts before terminal degradation");
        assert!(ex.is_degraded());
        for _ in 0..10 {
            let err = ex.execute(&bell(), None).unwrap_err();
            assert!(
                err.is_retryable(),
                "terminal error is the last real one: {err}"
            );
        }
        let r = ex.report();
        assert_eq!(r.fast_failed_jobs, 10);
        assert_eq!(
            (r.attempts, r.total_backoff_ms),
            paid,
            "fast-failed jobs pay no attempts and no backoff"
        );
    }

    #[test]
    fn dead_fallback_becomes_terminal_too() {
        // Primary and fallback both permanently down: after degradation
        // plus max_consecutive_failures failed fallback jobs, the
        // executor stops driving either backend.
        let policy = RetryPolicy {
            max_attempts: 2,
            max_consecutive_failures: 2,
            ..RetryPolicy::default()
        };
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(0),
                FaultSpec::transient(1.0, 0),
            )),
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(1),
                FaultSpec::transient(1.0, 1),
            )),
            policy,
        );
        for _ in 0..8 {
            assert!(ex.execute(&bell(), None).is_err());
        }
        let r = ex.report();
        assert!(r.degraded);
        assert!(r.fast_failed_jobs > 0, "dead fallback must go terminal");
        // Attempts stop growing once terminal.
        let attempts = r.attempts;
        let fallbacks = r.fallback_jobs;
        assert!(ex.execute(&bell(), None).is_err());
        assert_eq!(ex.report().attempts, attempts);
        assert_eq!(ex.report().fallback_jobs, fallbacks);
    }

    #[test]
    fn short_circuit_serves_from_fallback_without_primary_attempts() {
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(FaultyBackend::new(
                SimulatorBackend::new(0),
                FaultSpec::transient(1.0, 0),
            )),
            Box::new(SimulatorBackend::new(1)),
            RetryPolicy::default(),
        );
        ex.short_circuit_primary();
        let m = ex.execute(&bell(), None).unwrap();
        assert_eq!(m.expectations.len(), 2);
        let r = ex.report();
        assert_eq!((r.attempts, r.retries, r.total_backoff_ms), (0, 0, 0));
        assert_eq!((r.short_circuited_jobs, r.fallback_jobs), (1, 1));
        assert!(!r.degraded, "short-circuiting is not a degradation verdict");
    }

    #[test]
    fn short_circuit_without_fallback_is_circuit_open() {
        let mut ex =
            ResilientExecutor::new(Box::new(SimulatorBackend::new(0)), RetryPolicy::default());
        ex.short_circuit_primary();
        let err = ex.execute(&bell(), None).unwrap_err();
        assert!(matches!(err, BackendError::CircuitOpen { .. }), "{err}");
        assert!(!err.is_retryable());
        assert_eq!(ex.report().attempts, 0);
    }

    #[test]
    fn deadline_budget_aborts_backoff_with_deadline_exceeded() {
        use crate::health::DeadlineBudget;
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::new(
            Box::new(broken),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_ms: 1_000,
                jitter: 0.0,
                ..RetryPolicy::default()
            },
        )
        .with_deadline(DeadlineBudget::new(1_500));
        let err = ex.execute(&bell(), None).unwrap_err();
        assert!(
            matches!(err, BackendError::DeadlineExceeded { .. }),
            "{err}"
        );
        let r = ex.report();
        // First backoff (1000 ms) fits the 1500 ms budget; the second
        // (2000 ms) does not, so the job stops after two attempts.
        assert_eq!((r.attempts, r.retries), (2, 1));
        assert_eq!(r.total_backoff_ms, 1_000);
        assert_eq!(r.deadline_exceeded_jobs, 1);
        assert!(
            r.total_backoff_ms <= 1_500,
            "accounted backoff stays within budget"
        );
        assert!(
            !r.degraded,
            "a deadline abort says nothing about backend health"
        );
    }

    #[test]
    fn deadline_abort_is_rescued_by_the_fallback() {
        use crate::health::DeadlineBudget;
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(broken),
            Box::new(SimulatorBackend::new(1)),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_ms: 1_000,
                jitter: 0.0,
                ..RetryPolicy::default()
            },
        )
        .with_deadline(DeadlineBudget::new(1_500));
        // The second backoff (2000 ms) blows the budget, but the fallback
        // costs no backoff — the job is still served.
        let m = ex.execute(&bell(), None).expect("fallback rescues");
        assert_eq!(m.expectations.len(), 2);
        let r = ex.report();
        assert_eq!(r.deadline_exceeded_jobs, 1);
        assert_eq!(r.fallback_jobs, 1);
        assert!(r.total_backoff_ms <= 1_500);
        assert!(
            !r.degraded,
            "a deadline abort says nothing about backend health"
        );
    }

    #[test]
    fn shot_shortfall_is_accounted() {
        let truncating = FaultyBackend::new(
            SimulatorBackend::new(0),
            FaultSpec {
                shot_truncation_rate: 1.0,
                shot_truncation_factor: 0.25,
                ..FaultSpec::none()
            },
        );
        let mut ex = ResilientExecutor::new(Box::new(truncating), RetryPolicy::default());
        let m = ex.execute(&bell(), Some(8192)).unwrap();
        assert_eq!(m.shots_used, Some(2048));
        assert_eq!(ex.report().shot_shortfall, 8192 - 2048);
    }

    #[test]
    fn reports_merge_across_executors() {
        let mut a = ExecutionReport {
            jobs: 2,
            attempts: 3,
            retries: 1,
            total_backoff_ms: 500,
            ..ExecutionReport::default()
        };
        let b = ExecutionReport {
            jobs: 1,
            attempts: 2,
            retries: 1,
            degraded: true,
            fallback_jobs: 1,
            total_backoff_ms: 250,
            ..ExecutionReport::default()
        };
        a.merge(&b);
        assert_eq!(
            (a.jobs, a.attempts, a.retries, a.fallback_jobs),
            (3, 5, 2, 1)
        );
        assert!(a.degraded);
        assert_eq!(a.total_backoff_ms, 750);
    }

    #[test]
    fn per_backend_usage_attributes_retries_and_backoff_to_the_primary() {
        let faulty = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(0.4, 7));
        let name = "statevector-simulator";
        let mut ex = ResilientExecutor::new(Box::new(faulty), RetryPolicy::default());
        for _ in 0..30 {
            let _ = ex.execute(&bell(), None);
        }
        let r = ex.report().clone();
        let usage = r.backend_usage(name);
        assert_eq!(
            usage.attempts, r.attempts,
            "all attempts ran on the primary"
        );
        assert_eq!(usage.retries, r.retries);
        assert_eq!(usage.backoff_ms, r.total_backoff_ms);
        assert_eq!(r.retries_for(name), r.retries);
        assert_eq!(r.backoff_ms_for(name), r.total_backoff_ms);
        assert!(r.retries > 0, "40% faults must retry");
        assert_eq!(r.backend_keys().collect::<Vec<_>>(), vec![name]);
        // Unknown keys read as zeroes, not panics.
        assert_eq!(r.backend_usage("nonexistent"), BackendUsage::default());
    }

    #[test]
    fn per_backend_usage_splits_primary_and_fallback() {
        use qnat_noise::backend::{EmulatorBackend, NoiseModelBackend};
        let view = presets::santiago().subdevice(&[0, 1]).unwrap();
        let broken = FaultyBackend::new(
            EmulatorBackend::new(&view, 0).unwrap(),
            FaultSpec::transient(1.0, 0),
        );
        let fallback = NoiseModelBackend::new(&view, 1).unwrap();
        let primary_key = broken.name().to_string();
        let fallback_key = fallback.name().to_string();
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(broken),
            Box::new(fallback),
            RetryPolicy {
                max_attempts: 2,
                max_consecutive_failures: 2,
                ..RetryPolicy::default()
            },
        );
        for _ in 0..5 {
            ex.execute(&bell(), None).unwrap();
        }
        let r = ex.report();
        let primary = r.backend_usage(&primary_key);
        let fb = r.backend_usage(&fallback_key);
        assert_eq!(primary.attempts, r.attempts, "primary attempts attributed");
        assert_eq!(primary.fallback_jobs, 0);
        assert_eq!(fb.fallback_jobs, 5, "every job was served by the fallback");
        assert_eq!(fb.attempts, 5);
        assert_eq!(fb.retries, 0, "fallback serves are single-shot");
    }

    #[test]
    fn per_backend_usage_counts_validation_failures() {
        let mut ex =
            ResilientExecutor::new(Box::new(SimulatorBackend::new(0)), RetryPolicy::default());
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, f64::NAN));
        assert!(ex.execute(&c, None).is_err());
        assert!(ex.execute(&bell(), None).is_ok());
        let r = ex.report();
        assert_eq!(r.validation_failures_for("statevector-simulator"), 1);
        assert_eq!(r.backend_usage("statevector-simulator").attempts, 1);
    }

    #[test]
    fn per_backend_usage_counts_fast_fails() {
        let broken = FaultyBackend::new(SimulatorBackend::new(0), FaultSpec::transient(1.0, 0));
        let mut ex = ResilientExecutor::new(
            Box::new(broken),
            RetryPolicy {
                max_attempts: 1,
                max_consecutive_failures: 1,
                ..RetryPolicy::default()
            },
        );
        assert!(ex.execute(&bell(), None).is_err());
        for _ in 0..3 {
            assert!(ex.execute(&bell(), None).is_err());
        }
        assert_eq!(ex.report().fast_fails_for("statevector-simulator"), 3);
    }

    #[test]
    fn per_backend_usage_merges_by_key() {
        let mut a = ExecutionReport::default();
        a.usage_mut("emu").attempts = 3;
        a.usage_mut("emu").retries = 1;
        let mut b = ExecutionReport::default();
        b.usage_mut("emu").attempts = 2;
        b.usage_mut("emu").backoff_ms = 40;
        b.usage_mut("sim").fallback_jobs = 1;
        a.merge(&b);
        assert_eq!(a.backend_usage("emu").attempts, 5);
        assert_eq!(a.backend_usage("emu").retries, 1);
        assert_eq!(a.backend_usage("emu").backoff_ms, 40);
        assert_eq!(a.backend_usage("sim").fallback_jobs, 1);
        assert_eq!(a.backend_keys().collect::<Vec<_>>(), vec!["emu", "sim"]);
    }

    #[test]
    fn noise_model_fallback_keeps_serving_hardware_jobs() {
        // Hardware emulator that always times out degrades to the
        // noise-model backend, which still yields physical expectations.
        use qnat_noise::backend::{EmulatorBackend, NoiseModelBackend};
        let view = presets::santiago().subdevice(&[0, 1]).unwrap();
        let hw = FaultyBackend::new(
            EmulatorBackend::new(&view, 0).unwrap(),
            FaultSpec {
                timeout_rate: 1.0,
                ..FaultSpec::none()
            },
        );
        let mut ex = ResilientExecutor::with_fallback(
            Box::new(hw),
            Box::new(NoiseModelBackend::new(&view, 1).unwrap()),
            RetryPolicy::fail_fast(),
        );
        let m = ex.execute(&bell(), None).unwrap();
        assert!(m
            .expectations
            .iter()
            .all(|z| z.is_finite() && z.abs() <= 1.0));
        assert!(ex.is_degraded());
        assert!(ex.active_backend().starts_with("noise-model"));
    }
}
