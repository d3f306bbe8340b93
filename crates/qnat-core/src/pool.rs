//! Parked block workers: the threads a block's forward run and its
//! vector-Jacobian product fork onto (see [`crate::forward`]).
//!
//! The workers start once per process, one fewer than the machine's
//! available parallelism, since the forking thread works too. Between
//! forks they park on one shared queue, so a fork costs a wake-up, not a
//! thread start. A fork runs its first job on the calling thread and
//! queues the rest; the caller then takes back, and runs itself, every
//! queued job no worker has started. A fork therefore waits only for
//! its own jobs already running, never behind another caller's queued
//! jobs, and it completes even when no worker is free (or none could be
//! started).
//!
//! Jobs own what they touch (`'static`), so a job left in the queue by a
//! caller that has moved on holds no borrow. A panicking job is caught
//! where it runs and resumed on the caller, and the worker goes on.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// A queued job, type-erased for the shared queue.
trait Run: Send + Sync {
    /// Runs the job, unless a worker or the caller already took it.
    fn run(&self);
}

/// One job of a fork and the slot its result lands in.
struct Task<T> {
    job: Mutex<Option<Box<dyn FnOnce() -> T + Send>>>,
    result: Mutex<Option<thread::Result<T>>>,
    done: Condvar,
}

impl<T: Send> Run for Task<T> {
    fn run(&self) {
        let job = lock(&self.job).take();
        if let Some(job) = job {
            let result = catch_unwind(AssertUnwindSafe(job));
            *lock(&self.result) = Some(result);
            self.done.notify_one();
        }
    }
}

impl<T> Task<T> {
    /// Blocks until the job has run, then returns its result or resumes
    /// its panic.
    fn join(&self) -> T {
        let mut result = lock(&self.result);
        loop {
            match result.take() {
                Some(Ok(value)) => return value,
                Some(Err(panic)) => resume_unwind(panic),
                None => {
                    result = self
                        .done
                        .wait(result)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// Jobs handed to the parked workers, oldest first.
static QUEUE: Mutex<VecDeque<Arc<dyn Run>>> = Mutex::new(VecDeque::new());
/// Signalled once per queued job.
static READY: Condvar = Condvar::new();

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No lock is held while a job runs, so poisoning cannot leave a
    // half-written value behind.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threads a fork spreads over: the caller plus the parked workers.
/// The first call starts the workers, one fewer than
/// `available_parallelism()`, read once per process.
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let n = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        // A worker that fails to start costs parallelism only; with no
        // worker at all, `fork` queues nothing.
        let started = (1..n)
            .take_while(|i| {
                thread::Builder::new()
                    .name(format!("qnat-block-{i}"))
                    .spawn(work)
                    .is_ok()
            })
            .count();
        1 + started
    })
}

/// A parked worker's loop: take the oldest queued job and run it.
fn work() {
    loop {
        let task = {
            let mut queue = lock(&QUEUE);
            loop {
                match queue.pop_front() {
                    Some(task) => break task,
                    None => queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        task.run();
    }
}

/// Runs every job and returns their results in job order: the first on
/// the calling thread, the rest on parked workers or, if none has
/// started one by the time the caller gets to it, on the caller. A job's
/// panic is resumed here, once every job has run or is running.
pub(crate) fn fork<T, F>(jobs: impl IntoIterator<Item = F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    let tasks: Vec<Arc<Task<T>>> = jobs
        .map(|job| {
            Arc::new(Task {
                job: Mutex::new(Some(Box::new(job) as Box<dyn FnOnce() -> T + Send>)),
                result: Mutex::new(None),
                done: Condvar::new(),
            })
        })
        .collect();
    if !tasks.is_empty() && threads() > 1 {
        lock(&QUEUE).extend(tasks.iter().map(|t| Arc::clone(t) as Arc<dyn Run>));
        for _ in &tasks {
            READY.notify_one();
        }
    }
    let mut results = Vec::with_capacity(tasks.len() + 1);
    results.push(first());
    // Take back every job no worker has started before waiting on any.
    for task in &tasks {
        task.run();
    }
    results.extend(tasks.iter().map(|task| task.join()));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let out = fork((0..37u64).map(|i| move || i * i));
        assert_eq!(out, (0..37u64).map(|i| i * i).collect::<Vec<_>>());
        assert!(fork(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn a_panicking_job_resumes_on_the_caller_and_the_next_fork_completes() {
        for bad in [0usize, 1, 5] {
            let caught = catch_unwind(|| {
                fork((0..6usize).map(|i| {
                    move || {
                        assert!(i != bad, "job {i} fails");
                        i
                    }
                }))
            });
            let panic = caught.expect_err("the failing job's panic reaches the caller");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(message, format!("job {bad} fails"));
            // Every worker survived: a fork with a job per thread and
            // more still completes.
            let n = 2 * threads() + 1;
            assert_eq!(
                fork((0..n).map(|i| move || i + 1)),
                (1..=n).collect::<Vec<_>>()
            );
        }
    }
}
