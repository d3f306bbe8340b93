//! Clocks the retry/backoff machinery runs on: the [`Sleeper`] trait and
//! its three implementations.
//!
//! Originally this plumbing lived inside [`crate::executor`]; it is its own
//! module so layers above the executor — the batch pool, the fleet health
//! layer, and the `qnat-serve` serving engine — can drive virtual time in
//! tests and benches without reaching into executor internals.
//!
//! * [`VirtualSleeper`] records backoff without stalling (tests, benches).
//! * [`ThreadSleeper`] really sleeps on the OS clock (deployments).
//! * [`DeadlineSleeper`] decorates another sleeper with a
//!   [`DeadlineBudget`], refusing any sleep
//!   the budget cannot cover.

use crate::health::DeadlineBudget;
use std::time::Duration;

/// The clock retry backoff runs on.
///
/// The executor always *records* backoff in its
/// [`ExecutionReport`](crate::executor::ExecutionReport); the sleeper
/// decides whether the interval additionally elapses on the wall clock.
/// Tests and benches inject [`VirtualSleeper`] so retry storms cost
/// nothing; deployments serving live traffic inject [`ThreadSleeper`] so
/// backoff actually throttles the primary backend.
///
/// `Send` lets an executor (sleeper included) move into a worker thread of
/// the [`crate::batch::BatchExecutor`] pool or a long-lived serving
/// worker.
pub trait Sleeper: Send {
    /// Sleeps for `ms` milliseconds (really or virtually) and accounts it.
    fn sleep(&mut self, ms: u64);

    /// Attempts to sleep for `ms` milliseconds, returning `false` if the
    /// sleeper refuses (e.g. a deadline budget is exhausted —
    /// [`DeadlineSleeper`]). A refused sleep accounts and elapses nothing.
    /// Plain sleepers always accept.
    fn try_sleep(&mut self, ms: u64) -> bool {
        self.sleep(ms);
        true
    }

    /// Total milliseconds of backoff accounted so far.
    fn slept_ms(&self) -> u64;
}

/// Records backoff without stalling — the default for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualSleeper {
    slept_ms: u64,
}

impl Sleeper for VirtualSleeper {
    fn sleep(&mut self, ms: u64) {
        self.slept_ms = self.slept_ms.saturating_add(ms);
    }

    fn slept_ms(&self) -> u64 {
        self.slept_ms
    }
}

/// Really sleeps on the OS clock via [`std::thread::sleep`] — what a
/// deployment serving live traffic injects so backoff throttles for real.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSleeper {
    slept_ms: u64,
}

impl Sleeper for ThreadSleeper {
    fn sleep(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
        self.slept_ms = self.slept_ms.saturating_add(ms);
    }

    fn slept_ms(&self) -> u64 {
        self.slept_ms
    }
}

/// A [`Sleeper`] decorator that refuses any sleep its [`DeadlineBudget`]
/// cannot cover — the mechanism behind
/// [`crate::executor::ResilientExecutor::with_deadline`]. Refused sleeps
/// neither elapse nor count toward `slept_ms`.
pub struct DeadlineSleeper {
    inner: Box<dyn Sleeper>,
    budget: DeadlineBudget,
}

impl DeadlineSleeper {
    /// Wraps `inner` under `budget`.
    pub fn new(inner: Box<dyn Sleeper>, budget: DeadlineBudget) -> Self {
        DeadlineSleeper { inner, budget }
    }

    /// The budget handle (shareable across sleepers).
    pub fn budget(&self) -> &DeadlineBudget {
        &self.budget
    }
}

impl Sleeper for DeadlineSleeper {
    fn sleep(&mut self, ms: u64) {
        let _ = self.try_sleep(ms);
    }

    fn try_sleep(&mut self, ms: u64) -> bool {
        if self.budget.try_consume(ms) {
            self.inner.sleep(ms);
            true
        } else {
            false
        }
    }

    fn slept_ms(&self) -> u64 {
        self.inner.slept_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleepers_record_identical_backoff_totals() {
        // The two sleepers account the exact same milliseconds for the
        // same schedule; only the wall-clock behaviour differs.
        let mut virt = VirtualSleeper::default();
        let mut real = ThreadSleeper::default();
        for ms in [0, 1, 2, 5, 1, 0, 3] {
            virt.sleep(ms);
            real.sleep(ms);
        }
        assert_eq!(virt.slept_ms(), real.slept_ms());
        assert_eq!(virt.slept_ms(), 12);
    }

    #[test]
    fn deadline_sleeper_refuses_over_budget_sleeps() {
        let mut s = DeadlineSleeper::new(Box::<VirtualSleeper>::default(), DeadlineBudget::new(10));
        assert!(s.try_sleep(6));
        assert!(!s.try_sleep(6), "4 ms left cannot cover 6 ms");
        assert!(s.try_sleep(4));
        assert_eq!(s.slept_ms(), 10, "refused sleeps account nothing");
        assert_eq!(s.budget().remaining_ms(), 0);
    }
}
