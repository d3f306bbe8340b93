//! Hot block workers: the threads a block's forward run and its
//! vector-Jacobian product fork onto (see [`crate::forward`]).
//!
//! The workers start once per process, one fewer than the machine's
//! available parallelism, since the forking thread works too. A fork
//! runs its first job on the calling thread and queues the rest; the
//! caller then takes back, and runs itself, every queued job no worker
//! has started. A fork therefore waits only for its own jobs already
//! running, never behind another caller's queued jobs, and it completes
//! even when no worker is free (or none could be started).
//!
//! ## Spin, then park
//!
//! A training step forks four times (each block's forward run and its
//! VJP) with serial work of tens of microseconds in between, so a worker
//! that parked after every job would be woken, at the cost of a futex
//! call on the caller and a scheduler wake-up before it starts, four
//! times a step. An idle worker therefore first spins for `SPIN`
//! (~100 µs, about one chunk job at the training size) watching the
//! queue's length, and only then parks on the shared condvar; a fork
//! signals the condvar only when a worker is parked. Likewise a caller
//! waiting for a job a worker is running spins for up to `SPIN` before
//! it sleeps on the job's condvar. The spin is a constant, not a
//! setting, and no thread spins when [`threads`] is 1: there are no
//! workers then, and the caller has run every job itself before it
//! waits. Past the spin, an idle process costs nothing.
//!
//! Jobs own what they touch (`'static`), so a job left in the queue by a
//! caller that has moved on holds no borrow. A panicking job is caught
//! where it runs and resumed on the caller, and the worker goes on.

use std::collections::VecDeque;
use std::hint;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle worker, or a caller waiting on a running job, spins
/// before it sleeps.
const SPIN: Duration = Duration::from_micros(100);

/// A queued job, type-erased for the shared queue.
trait Run: Send + Sync {
    /// Runs the job, unless a worker or the caller already took it.
    fn run(&self);
}

/// One job of a fork and the slot its result lands in.
struct Task<T> {
    job: Mutex<Option<Box<dyn FnOnce() -> T + Send>>>,
    result: Mutex<Option<thread::Result<T>>>,
    /// Set once `result` holds the job's result, for the spinning
    /// [`Task::join`]; the `result` lock orders the value itself.
    finished: AtomicBool,
    done: Condvar,
}

impl<T: Send> Run for Task<T> {
    fn run(&self) {
        let job = lock(&self.job).take();
        if let Some(job) = job {
            let result = catch_unwind(AssertUnwindSafe(job));
            *lock(&self.result) = Some(result);
            self.finished.store(true, Ordering::Release);
            self.done.notify_one();
        }
    }
}

impl<T> Task<T> {
    /// Blocks until the job has run, then returns its result or resumes
    /// its panic. Spins for up to [`SPIN`] first while other threads
    /// exist to run the job.
    fn join(&self) -> T {
        if threads() > 1 {
            spin_until(|| self.finished.load(Ordering::Acquire));
        }
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

/// Spins until `ready` holds or [`SPIN`] has passed; returns whether
/// `ready` held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= SPIN {
            return false;
        }
        hint::spin_loop();
    }
}

/// The jobs handed to the workers, oldest first, and how many workers
/// are parked waiting for one.
struct Queue {
    jobs: VecDeque<Arc<dyn Run>>,
    parked: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    parked: 0,
});
/// `QUEUE.jobs.len()`, written under the lock, so spinning workers can
/// watch the queue without taking it. A hint only: jobs are taken under
/// the lock.
static QUEUED: AtomicUsize = AtomicUsize::new(0);
/// Signalled once per queued job while a worker is parked.
static READY: Condvar = Condvar::new();

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No lock is held while a job runs, so poisoning cannot leave a
    // half-written value behind.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threads a fork spreads over: the caller plus the workers.
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

/// A worker's loop: take the oldest queued job and run it.
fn work() {
    loop {
        let task = next_job();
        task.run();
    }
}

/// The oldest queued job: spins for up to [`SPIN`] watching the queue's
/// length, then parks until a fork signals.
fn next_job() -> Arc<dyn Run> {
    let mut queue = lock(&QUEUE);
    loop {
        if let Some(task) = queue.jobs.pop_front() {
            QUEUED.store(queue.jobs.len(), Ordering::Release);
            return task;
        }
        drop(queue);
        let queued = spin_until(|| QUEUED.load(Ordering::Acquire) > 0);
        queue = lock(&QUEUE);
        if !queued && queue.jobs.is_empty() {
            queue.parked += 1;
            while queue.jobs.is_empty() {
                queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
            queue.parked -= 1;
        }
    }
}

/// Runs every job and returns their results in job order: the first on
/// the calling thread, the rest on the workers or, if none has
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
                finished: AtomicBool::new(false),
                done: Condvar::new(),
            })
        })
        .collect();
    if !tasks.is_empty() && threads() > 1 {
        let wake = {
            let mut queue = lock(&QUEUE);
            queue
                .jobs
                .extend(tasks.iter().map(|t| Arc::clone(t) as Arc<dyn Run>));
            QUEUED.store(queue.jobs.len(), Ordering::Release);
            queue.parked.min(tasks.len())
        };
        for _ in 0..wake {
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

    /// Waits until every worker has parked (past its spin), so the next
    /// fork has to wake them.
    fn until_parked() {
        let workers = threads() - 1;
        let deadline = Instant::now() + Duration::from_secs(10);
        while lock(&QUEUE).parked < workers {
            assert!(Instant::now() < deadline, "the workers never parked");
            thread::sleep(SPIN);
        }
    }

    #[test]
    fn a_fork_after_the_workers_parked_wakes_them_and_keeps_job_order() {
        fork((0..4u64).map(|i| move || i));
        until_parked();
        // Job 0 runs on the caller and holds it until job 1 has run on
        // another thread: a worker woken from its park must take it.
        let (started, on_worker) = std::sync::mpsc::channel();
        let caller = thread::current().id();
        let mut jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(move || {
                if threads() > 1 {
                    let id = on_worker
                        .recv_timeout(Duration::from_secs(10))
                        .expect("a parked worker wakes for the fork");
                    assert_ne!(id, caller, "job 1 ran on a worker");
                }
                0
            }),
            Box::new(move || {
                // Unread when the caller ran this job itself (one thread).
                let _ = started.send(thread::current().id());
                1
            }),
        ];
        let n = 4 * threads() as u64 + 3;
        jobs.extend((2..n).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> u64 + Send>));
        assert_eq!(fork(jobs), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_resumes_on_the_caller_and_the_next_fork_completes() {
        for parked in [false, true] {
            for bad in [0usize, 1, 5] {
                if parked {
                    until_parked();
                } else {
                    // The workers are still spinning from this fork.
                    fork((0..4usize).map(|i| move || i));
                }
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
                assert_eq!(message, format!("job {bad} fails"), "parked: {parked}");
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
}
