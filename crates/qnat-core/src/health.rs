//! Fleet-wide backend health: shared circuit breakers, half-open recovery
//! probes, and per-job deadline budgets.
//!
//! [`crate::executor::ResilientExecutor`] degrades *per executor*: in a
//! [`crate::batch::BatchExecutor`] pool, where every job gets a fresh
//! executor, a dying backend is rediscovered from scratch by every job —
//! each one pays the full retry/backoff tax before giving up. This module
//! is the layer that remembers: a [`CircuitBreaker`] per backend, held in
//! a [`HealthRegistry`] owned by the deployment, so the first few failures
//! trip the breaker for the whole batch and later jobs skip straight to
//! the fallback.
//!
//! ## State machine
//!
//! ```text
//!             failure rate ≥ threshold
//!             over the sliding window
//!   Closed ─────────────────────────────▶ Open
//!     ▲                                    │ cooldown_jobs
//!     │ a probe                            │ short-circuited
//!     │ succeeds                           ▼
//!     └────────────────────────────── HalfOpen
//!          ▲                               │
//!          └── any probe fails: reopen ◀───┘
//!              (full cooldown again)   probe_budget jobs try the
//!                                      primary, the rest short-circuit
//! ```
//!
//! ## Determinism contract
//!
//! Breaker decisions are driven *only* at epoch boundaries: the batch is
//! processed in chunks of [`BreakerPolicy::decision_interval`] jobs, the
//! breaker plans every admission of an epoch up front
//! ([`CircuitBreaker::plan_epoch`]), the pool runs the epoch, and the
//! outcomes are observed in job-index order
//! ([`CircuitBreaker::observe`]). Workers never touch the breaker, and
//! every job gets its own deadline budget
//! ([`HealthPolicy::deadline_ms`]), so health-enabled batches remain
//! **bitwise invariant in the worker count** in every configuration — the
//! same contract the plain batch path offers, pinned by
//! `qnat-core/tests/health_e2e.rs`. The price is reaction latency: a
//! failure burst inside an epoch trips the breaker for the *next* epoch,
//! not mid-epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::time::DeadlineSleeper;

/// Circuit-breaker thresholds and cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerPolicy {
    /// Sliding window length (jobs) the failure rate is measured over.
    pub window: usize,
    /// Failure rate in `[0, 1]` that trips the breaker.
    pub failure_threshold: f64,
    /// Observations required in the window before it can trip — guards
    /// against tripping on the first unlucky job.
    pub min_samples: usize,
    /// Short-circuited jobs an open breaker waits before going half-open.
    pub cooldown_jobs: u64,
    /// Jobs per epoch allowed to probe the primary while half-open.
    pub probe_budget: usize,
    /// Epoch length: jobs per plan/observe cycle. Smaller reacts faster;
    /// larger amortizes the epoch barrier better.
    pub decision_interval: usize,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            window: 16,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown_jobs: 16,
            probe_budget: 2,
            decision_interval: 8,
        }
    }
}

/// Where a breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every job is admitted to the primary.
    Closed,
    /// Tripped: jobs short-circuit until the cooldown is served.
    Open {
        /// Short-circuited jobs left before going half-open.
        cooldown_left: u64,
    },
    /// Testing recovery: up to `probe_budget` jobs per epoch try the
    /// primary, the rest short-circuit.
    HalfOpen,
}

/// The breaker's verdict for one planned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the primary normally (breaker closed).
    Primary,
    /// Run the primary as a recovery probe (breaker half-open).
    Probe,
    /// Skip the primary, serve from the fallback (breaker open).
    ShortCircuit,
}

/// The health signal one finished job feeds back to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSignal {
    /// The primary served the job.
    Success,
    /// The primary exhausted its retries (whether or not a fallback then
    /// rescued the job).
    Failure,
    /// The job says nothing about the primary (short-circuited, rejected
    /// in validation, factory failure, or out of deadline budget before
    /// reaching a verdict).
    Neutral,
}

/// A per-backend circuit breaker: sliding-window failure rate over
/// primary outcomes, cooldown while open, bounded half-open probes.
///
/// Drive it in epochs: [`CircuitBreaker::plan_epoch`] before submitting a
/// chunk, one [`CircuitBreaker::observe`] per job *in job-index order*
/// afterwards, then [`CircuitBreaker::end_epoch`]. All methods are pure
/// state-machine transitions — no clocks, no randomness — so a replay of
/// the same signals reproduces the same trips.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    /// Recent primary outcomes, `true` = failure (ring of ≤ `window`).
    window: std::collections::VecDeque<bool>,
    probe_successes: usize,
    probe_failures: usize,
    trips: u64,
    recoveries: u64,
    short_circuited: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            window: std::collections::VecDeque::new(),
            probe_successes: 0,
            probe_failures: 0,
            trips: 0,
            recoveries: 0,
            short_circuited: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped open (including re-opens after a failed
    /// probe).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a successful probe re-closed the breaker.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Jobs short-circuited past the primary so far.
    pub fn short_circuited(&self) -> u64 {
        self.short_circuited
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open {
            cooldown_left: self.policy.cooldown_jobs,
        };
        self.trips += 1;
        self.window.clear();
        self.probe_successes = 0;
        self.probe_failures = 0;
    }

    /// Plans the admissions of the next `n` jobs. Cooldown is measured in
    /// planned (short-circuited) jobs; when it elapses mid-plan the
    /// breaker goes half-open and starts issuing probes within the same
    /// epoch.
    pub fn plan_epoch(&mut self, n: usize) -> Vec<Admission> {
        let mut admissions = Vec::with_capacity(n);
        let mut probes_issued = 0usize;
        for _ in 0..n {
            let admission = match self.state {
                BreakerState::Closed => Admission::Primary,
                BreakerState::Open { cooldown_left } => {
                    if cooldown_left == 0 {
                        self.state = BreakerState::HalfOpen;
                        self.probe_successes = 0;
                        self.probe_failures = 0;
                        probes_issued = 0;
                        // Re-match as half-open below.
                        if probes_issued < self.policy.probe_budget.max(1) {
                            probes_issued += 1;
                            Admission::Probe
                        } else {
                            Admission::ShortCircuit
                        }
                    } else {
                        self.state = BreakerState::Open {
                            cooldown_left: cooldown_left - 1,
                        };
                        Admission::ShortCircuit
                    }
                }
                BreakerState::HalfOpen => {
                    if probes_issued < self.policy.probe_budget.max(1) {
                        probes_issued += 1;
                        Admission::Probe
                    } else {
                        Admission::ShortCircuit
                    }
                }
            };
            if admission == Admission::ShortCircuit {
                self.short_circuited += 1;
            }
            admissions.push(admission);
        }
        admissions
    }

    /// Feeds back one finished job's outcome. Must be called in job-index
    /// order with the [`Admission`] the job was planned under. A failed
    /// probe re-opens the breaker immediately (full cooldown); closed-state
    /// outcomes update the sliding window and may trip it.
    pub fn observe(&mut self, admission: Admission, signal: JobSignal) {
        match (admission, signal) {
            // A trip earlier in this epoch (a sibling probe failed) voids
            // the remaining probe verdicts — hence the HalfOpen guards.
            (Admission::Probe, JobSignal::Success) if self.state == BreakerState::HalfOpen => {
                self.probe_successes += 1;
            }
            (Admission::Probe, JobSignal::Failure) if self.state == BreakerState::HalfOpen => {
                self.probe_failures += 1;
                self.trip();
            }
            (Admission::Primary, JobSignal::Success | JobSignal::Failure) => {
                // A trip earlier in this epoch voids the remaining
                // closed-state observations: they were decided under the
                // old plan.
                if self.state != BreakerState::Closed {
                    return;
                }
                self.window.push_back(signal == JobSignal::Failure);
                while self.window.len() > self.policy.window.max(1) {
                    self.window.pop_front();
                }
                if self.window.len() >= self.policy.min_samples.max(1) {
                    let failures = self.window.iter().filter(|&&f| f).count();
                    let rate = failures as f64 / self.window.len() as f64;
                    if rate >= self.policy.failure_threshold {
                        self.trip();
                    }
                }
            }
            _ => {}
        }
    }

    /// Closes out an epoch: a half-open breaker with at least one probe
    /// success and no probe failure re-closes; with no probe verdict at
    /// all it stays half-open and probes again next epoch.
    pub fn end_epoch(&mut self) {
        if self.state == BreakerState::HalfOpen
            && self.probe_failures == 0
            && self.probe_successes > 0
        {
            self.state = BreakerState::Closed;
            self.recoveries += 1;
            self.window.clear();
        }
        self.probe_successes = 0;
        self.probe_failures = 0;
    }
}

/// A point-in-time view of one breaker, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Times tripped open.
    pub trips: u64,
    /// Times re-closed by a successful probe.
    pub recoveries: u64,
    /// Jobs short-circuited past the primary.
    pub short_circuited: u64,
}

/// A breaker table keyed by backend name, one per deployment (a batch
/// deployment, a serving model or a fleet router).
#[derive(Debug, Default)]
pub struct HealthRegistry {
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
}

impl HealthRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        HealthRegistry::default()
    }

    /// Runs `f` on the breaker registered under `key`, creating it with
    /// `policy` on first use.
    pub fn with_breaker<R>(
        &self,
        key: &str,
        policy: &BreakerPolicy,
        f: impl FnOnce(&mut CircuitBreaker) -> R,
    ) -> R {
        // A poisoned lock means a worker panicked mid-epoch; the breaker
        // state is still a valid state machine, so keep serving it.
        let mut map = self.breakers.lock().unwrap_or_else(|p| p.into_inner());
        let breaker = map
            .entry(key.to_string())
            .or_insert_with(|| CircuitBreaker::new(policy.clone()));
        f(breaker)
    }

    /// Snapshot of the breaker under `key`, if one has been created.
    pub fn snapshot(&self, key: &str) -> Option<BreakerSnapshot> {
        let map = self.breakers.lock().unwrap_or_else(|p| p.into_inner());
        map.get(key).map(|b| BreakerSnapshot {
            state: b.state(),
            trips: b.trips(),
            recoveries: b.recoveries(),
            short_circuited: b.short_circuited(),
        })
    }

    /// Keys of every breaker created so far, sorted.
    pub fn keys(&self) -> Vec<String> {
        let map = self.breakers.lock().unwrap_or_else(|p| p.into_inner());
        let mut keys: Vec<String> = map.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// A point-in-time view of *every* breaker, sorted by key, taken under
    /// one lock acquisition — the consistent fleet-wide view a router
    /// scores against and `/healthz` reports.
    pub fn snapshots(&self) -> Vec<(String, BreakerSnapshot)> {
        let map = self.breakers.lock().unwrap_or_else(|p| p.into_inner());
        let mut all: Vec<(String, BreakerSnapshot)> = map
            .iter()
            .map(|(k, b)| {
                (
                    k.clone(),
                    BreakerSnapshot {
                        state: b.state(),
                        trips: b.trips(),
                        recoveries: b.recoveries(),
                        short_circuited: b.short_circuited(),
                    },
                )
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Serves one idle cooldown epoch on `key`'s breaker when it is not
    /// closed, and reports the state afterwards (`None` if no breaker
    /// exists under `key`).
    ///
    /// Cooldown is measured in *planned* jobs, so a breaker that receives
    /// zero traffic — e.g. a quarantined fleet device the router stopped
    /// selecting — would otherwise stay open forever. Callers with an
    /// event stream of their own (a router routing jobs elsewhere) tick
    /// starved breakers once per event: a single planned-and-closed epoch
    /// of one job, mirroring the serving layer's epochs-of-one cadence.
    /// Closed breakers are left untouched, and a half-open breaker's
    /// unclaimed probe admission is harmless — with no verdict it simply
    /// stays half-open until real traffic probes it.
    pub fn tick_idle(&self, key: &str) -> Option<BreakerState> {
        let mut map = self.breakers.lock().unwrap_or_else(|p| p.into_inner());
        let breaker = map.get_mut(key)?;
        if breaker.state() == BreakerState::Closed {
            return Some(BreakerState::Closed);
        }
        let _ = breaker.plan_epoch(1);
        breaker.end_epoch();
        Some(breaker.state())
    }
}

/// A shareable, thread-safe backoff budget in milliseconds.
#[derive(Debug, Clone)]
pub struct DeadlineBudget {
    remaining_ms: Arc<AtomicU64>,
}

impl DeadlineBudget {
    /// A budget of `ms` milliseconds.
    pub fn new(ms: u64) -> Self {
        DeadlineBudget {
            remaining_ms: Arc::new(AtomicU64::new(ms)),
        }
    }

    /// Milliseconds left.
    pub fn remaining_ms(&self) -> u64 {
        self.remaining_ms.load(Ordering::Relaxed)
    }

    /// Atomically takes `ms` from the budget; `false` (taking nothing) if
    /// less than `ms` remains.
    pub fn try_consume(&self, ms: u64) -> bool {
        self.remaining_ms
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |rem| {
                rem.checked_sub(ms)
            })
            .is_ok()
    }
}

/// Opt-in health configuration for batch deployment: either knob may be
/// enabled independently.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthPolicy {
    /// Fleet-wide circuit breaking over the primary backend.
    pub breaker: Option<BreakerPolicy>,
    /// Per-job backoff budget in milliseconds: every job's executor gets
    /// a fresh budget of this size.
    pub deadline_ms: Option<u64>,
}

impl HealthPolicy {
    /// Breaker with default thresholds, no deadline.
    pub fn breaker_only() -> Self {
        HealthPolicy {
            breaker: Some(BreakerPolicy::default()),
            deadline_ms: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_jobs: 6,
            probe_budget: 2,
            decision_interval: 4,
        }
    }

    /// Runs one epoch of `n` jobs whose outcomes (for Primary/Probe
    /// admissions) come from `fail`, returning the admissions.
    fn epoch(b: &mut CircuitBreaker, n: usize, fail: impl Fn(usize) -> bool) -> Vec<Admission> {
        let admissions = b.plan_epoch(n);
        for (i, &a) in admissions.iter().enumerate() {
            let signal = match a {
                Admission::ShortCircuit => JobSignal::Neutral,
                _ if fail(i) => JobSignal::Failure,
                _ => JobSignal::Success,
            };
            b.observe(a, signal);
        }
        b.end_epoch();
        admissions
    }

    #[test]
    fn closed_breaker_admits_everything() {
        let mut b = CircuitBreaker::new(policy());
        let admissions = epoch(&mut b, 8, |_| false);
        assert!(admissions.iter().all(|&a| a == Admission::Primary));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!((b.trips(), b.short_circuited()), (0, 0));
    }

    #[test]
    fn failure_rate_over_threshold_trips_the_breaker() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true);
        assert_eq!(
            b.state(),
            BreakerState::Open { cooldown_left: 6 },
            "4 failures ≥ min_samples at 100% ≥ 50% must trip"
        );
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn min_samples_guards_against_early_trips() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 3, |_| true);
        assert_eq!(b.state(), BreakerState::Closed, "3 < min_samples=4");
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn below_threshold_failure_rate_never_trips() {
        let mut b = CircuitBreaker::new(policy());
        // One failure in four, spread out: every window prefix stays at
        // ≤ 25% < 50%.
        for _ in 0..10 {
            epoch(&mut b, 8, |i| i % 4 == 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn open_breaker_short_circuits_through_the_cooldown() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true); // trip; cooldown 6
        let a1 = epoch(&mut b, 4, |_| false);
        assert!(a1.iter().all(|&a| a == Admission::ShortCircuit));
        assert_eq!(b.state(), BreakerState::Open { cooldown_left: 2 });
        let a2 = epoch(&mut b, 4, |_| false);
        // Cooldown elapses after 2 more short circuits, then 2 probes.
        assert_eq!(
            a2,
            vec![
                Admission::ShortCircuit,
                Admission::ShortCircuit,
                Admission::Probe,
                Admission::Probe
            ]
        );
        assert_eq!(b.short_circuited(), 4 + 2);
    }

    #[test]
    fn successful_probe_recloses_the_breaker() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true);
        epoch(&mut b, 6, |_| false); // serve the full cooldown
        let a = epoch(&mut b, 4, |_| false); // probes succeed
        assert_eq!(a[0], Admission::Probe);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        // Fully healthy again: next epoch admits everything.
        let a = epoch(&mut b, 4, |_| false);
        assert!(a.iter().all(|&x| x == Admission::Primary));
    }

    #[test]
    fn failed_probe_reopens_with_full_cooldown() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true);
        epoch(&mut b, 6, |_| false);
        epoch(&mut b, 4, |_| true); // probes fail
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.trips(), 2);
        assert_eq!(b.recoveries(), 0);
    }

    #[test]
    fn probe_budget_bounds_probes_per_epoch() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true);
        epoch(&mut b, 6, |_| false);
        // Half-open epoch of 8: exactly probe_budget=2 probes.
        let a = b.plan_epoch(8);
        assert_eq!(a.iter().filter(|&&x| x == Admission::Probe).count(), 2);
        assert_eq!(
            a.iter().filter(|&&x| x == Admission::ShortCircuit).count(),
            6
        );
    }

    #[test]
    fn half_open_with_no_probe_verdict_stays_half_open() {
        let mut b = CircuitBreaker::new(policy());
        epoch(&mut b, 4, |_| true);
        epoch(&mut b, 6, |_| false);
        // Probes come back Neutral (e.g. validation rejections).
        let a = b.plan_epoch(4);
        for &adm in &a {
            b.observe(adm, JobSignal::Neutral);
        }
        b.end_epoch();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Next epoch probes again.
        let a = b.plan_epoch(4);
        assert_eq!(a.iter().filter(|&&x| x == Admission::Probe).count(), 2);
    }

    #[test]
    fn trip_recovery_trip_cycle_counts() {
        let mut b = CircuitBreaker::new(policy());
        for _ in 0..3 {
            epoch(&mut b, 4, |_| true); // trip
            epoch(&mut b, 6, |_| false); // cooldown
            epoch(&mut b, 4, |_| false); // recover
        }
        assert_eq!(b.trips(), 3);
        assert_eq!(b.recoveries(), 3);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_replay_is_deterministic() {
        let run = || {
            let mut b = CircuitBreaker::new(policy());
            let mut log = Vec::new();
            for e in 0..12usize {
                log.push(epoch(&mut b, 5, |i| (e + i) % 3 != 0));
            }
            (
                log,
                b.state(),
                b.trips(),
                b.recoveries(),
                b.short_circuited(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn registry_creates_and_snapshots_breakers() {
        let reg = HealthRegistry::new();
        assert!(reg.snapshot("qpu-a").is_none());
        let p = policy();
        reg.with_breaker("qpu-a", &p, |b| {
            let a = b.plan_epoch(4);
            for &adm in &a {
                b.observe(adm, JobSignal::Failure);
            }
            b.end_epoch();
        });
        let snap = reg.snapshot("qpu-a").expect("created");
        assert_eq!(snap.trips, 1);
        assert!(matches!(snap.state, BreakerState::Open { .. }));
        // Distinct keys are independent breakers.
        reg.with_breaker("qpu-b", &p, |b| assert_eq!(b.state(), BreakerState::Closed));
        assert_eq!(reg.keys(), vec!["qpu-a".to_string(), "qpu-b".to_string()]);
    }

    #[test]
    fn registry_snapshots_views_the_whole_fleet_in_one_pass() {
        let reg = HealthRegistry::new();
        let p = policy();
        reg.with_breaker("qpu-b", &p, |_| {});
        reg.with_breaker("qpu-a", &p, |b| {
            let a = b.plan_epoch(4);
            for &adm in &a {
                b.observe(adm, JobSignal::Failure);
            }
            b.end_epoch();
        });
        let all = reg.snapshots();
        assert_eq!(
            all.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["qpu-a", "qpu-b"],
            "sorted by key"
        );
        assert!(matches!(all[0].1.state, BreakerState::Open { .. }));
        assert_eq!(all[1].1.state, BreakerState::Closed);
        // snapshots() agrees with per-key snapshot().
        for (k, s) in &all {
            assert_eq!(reg.snapshot(k), Some(*s));
        }
    }

    #[test]
    fn tick_idle_serves_cooldown_without_traffic() {
        // Regression for quarantine starvation: an open breaker on a
        // device receiving zero traffic must still reach half-open after
        // cooldown_jobs idle ticks, or it could never be re-admitted.
        let reg = HealthRegistry::new();
        let p = policy(); // cooldown_jobs: 6
        assert_eq!(reg.tick_idle("dead"), None, "no breaker yet");
        reg.with_breaker("dead", &p, |b| {
            let a = b.plan_epoch(4);
            for &adm in &a {
                b.observe(adm, JobSignal::Failure);
            }
            b.end_epoch();
        });
        // cooldown_jobs=6 ticks serve the cooldown; the next planned job
        // finds cooldown_left == 0 and flips to half-open.
        for tick in 0..6 {
            let state = reg.tick_idle("dead").expect("breaker exists");
            assert!(
                matches!(state, BreakerState::Open { .. }),
                "tick {tick}: {state:?}"
            );
        }
        assert_eq!(reg.tick_idle("dead"), Some(BreakerState::HalfOpen));
        // Idle ticks never produce a probe verdict, so further ticks park
        // at half-open — recovery needs real traffic.
        for _ in 0..4 {
            assert_eq!(reg.tick_idle("dead"), Some(BreakerState::HalfOpen));
        }
        // A closed breaker is untouched by idle ticks.
        reg.with_breaker("fine", &p, |_| {});
        assert_eq!(reg.tick_idle("fine"), Some(BreakerState::Closed));
        assert_eq!(reg.snapshot("fine").expect("exists").short_circuited, 0);
    }

    #[test]
    fn deadline_budget_is_exact_and_shareable() {
        let budget = DeadlineBudget::new(100);
        let clone = budget.clone();
        assert!(budget.try_consume(60));
        assert!(clone.try_consume(40), "budget is shared through clones");
        assert_eq!(budget.remaining_ms(), 0);
        assert!(!budget.try_consume(1));
        assert!(budget.try_consume(0), "zero consumption always fits");
    }
}
