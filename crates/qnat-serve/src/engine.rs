//! The [`ServeEngine`]: a bounded multi-producer job queue over a
//! persistent worker pool.
//!
//! [`qnat_core::batch::BatchExecutor`] blocks the caller until a whole
//! batch drains; a serving deployment instead accepts jobs as they arrive
//! ([`ServeEngine::submit`]), runs them on long-lived workers, and hands
//! results back through [`ServeEngine::poll`] (non-blocking),
//! [`ServeEngine::wait`] (blocking) or [`ServeEngine::subscribe`] (a
//! channel stream in completion order).
//!
//! ## Determinism: the ticket is the job index
//!
//! Every accepted submission gets a monotonically increasing [`Ticket`],
//! and the job's executor seed is
//! `splitmix64(engine_seed ^ splitmix64(ticket))` — exactly the derivation
//! [`qnat_core::batch::BatchExecutor`] applies to its job indices. Both
//! layers run jobs through [`qnat_core::batch::run_job`], so a served
//! workload replayed as one batch (same factory, batch seed = engine
//! seed, jobs in ticket order) is **bitwise identical** per ticket,
//! regardless of worker count or submission interleaving — pinned by
//! `qnat-serve/tests/replay_props.rs`. What is *not* deterministic is
//! completion order: subscribers observe whichever job finishes first.
//!
//! ## Admission control and backpressure
//!
//! With an [`AdmissionControl`] configured, every submission consults the
//! target backend's [`CircuitBreaker`](qnat_core::health::CircuitBreaker)
//! in the shared [`HealthRegistry`] as a streaming epoch of one
//! (`plan_epoch(1)` at submit, `observe` + `end_epoch` at completion).
//! Open-breaker submissions are shed, fast-failed or routed straight to
//! the fallback per [`OpenAction`]; shed and fast-failed submissions
//! still serve the breaker's cooldown, so a broken backend can recover.
//! Unlike the batch layer's epoch barriers, observations arrive in
//! completion order — trip points may vary across runs (a documented
//! relaxation; job *results* stay deterministic because admission only
//! selects between run/fallback/refuse, never reseeds).
//!
//! Each priority lane ([`Lane::Interactive`] drains before [`Lane::Bulk`])
//! has its own capacity and [`BackpressurePolicy`]: block the producer,
//! reject the submission, or shed the oldest queued job (which completes
//! with [`BackendError::Overloaded`]).

use qnat_core::batch::{job_signal, run_job, BatchJob};
use qnat_core::executor::{ExecutionReport, ResilientExecutor};
use qnat_core::health::{Admission, BreakerPolicy, HealthRegistry};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_noise::seed::derive;
use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Handle to one accepted submission. Tickets are dense and monotonic:
/// the ticket *is* the job index a batch replay of the served workload
/// would use.
pub type Ticket = u64;

/// Priority lane of a submission. Interactive jobs are always popped
/// before bulk jobs; each lane has its own capacity and backpressure
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive foreground traffic — drained first.
    Interactive,
    /// Throughput-oriented background traffic (hyper-parameter grids,
    /// sweeps) — drained when the interactive lane is empty.
    Bulk,
}

/// What `submit` does when a lane is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producer until a worker frees a slot.
    Block,
    /// Fail the submission with [`SubmitError::QueueFull`].
    RejectWhenFull,
    /// Evict the oldest queued job of the lane — it completes with
    /// [`BackendError::Overloaded`] — and accept the new one.
    ShedOldest,
}

/// Capacity and backpressure policy of one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneConfig {
    /// Maximum queued (not yet running) jobs (clamped to ≥ 1).
    pub capacity: usize,
    /// What to do when the lane is full.
    pub backpressure: BackpressurePolicy,
}

impl LaneConfig {
    /// A lane of `capacity` that blocks producers when full.
    pub fn blocking(capacity: usize) -> Self {
        LaneConfig {
            capacity,
            backpressure: BackpressurePolicy::Block,
        }
    }

    /// A lane of `capacity` that rejects submissions when full.
    pub fn rejecting(capacity: usize) -> Self {
        LaneConfig {
            capacity,
            backpressure: BackpressurePolicy::RejectWhenFull,
        }
    }

    /// A lane of `capacity` that sheds its oldest queued job when full.
    pub fn shedding(capacity: usize) -> Self {
        LaneConfig {
            capacity,
            backpressure: BackpressurePolicy::ShedOldest,
        }
    }
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig::blocking(64)
    }
}

/// What an open target-backend breaker does to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenAction {
    /// Accept the ticket, complete it immediately with
    /// [`BackendError::CircuitOpen`] — the job never runs.
    FastFail,
    /// Refuse the submission with [`SubmitError::Shed`] — no ticket.
    Shed,
    /// Accept the job but short-circuit its executor straight to the
    /// fallback backend (the batch health layer's behaviour).
    Fallback,
}

/// Enqueue-time admission control against one backend's circuit breaker.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    /// Registry key of the target backend's breaker.
    pub key: String,
    /// Breaker thresholds. `decision_interval` is ignored here — the
    /// serving layer streams epochs of one job.
    pub policy: BreakerPolicy,
    /// What an open breaker does to new submissions.
    pub on_open: OpenAction,
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Persistent worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Engine seed: job `t` runs under
    /// `splitmix64(seed ^ splitmix64(t))`, exactly as a
    /// [`qnat_core::batch::BatchExecutor`] with this batch seed would.
    pub seed: u64,
    /// The interactive (high-priority) lane.
    pub interactive: LaneConfig,
    /// The bulk (background) lane.
    pub bulk: LaneConfig,
    /// Optional per-job backoff budget in milliseconds: each job's
    /// executor gets a fresh budget of this size.
    pub deadline_ms: Option<u64>,
    /// Optional enqueue-time admission control.
    pub admission: Option<AdmissionControl>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            seed: 0,
            interactive: LaneConfig::default(),
            bulk: LaneConfig::default(),
            deadline_ms: None,
            admission: None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The lane is at capacity under
    /// [`BackpressurePolicy::RejectWhenFull`].
    QueueFull {
        /// The refusing lane.
        lane: Lane,
        /// Its configured capacity.
        capacity: usize,
    },
    /// Admission control shed the job: the target backend's breaker is
    /// open and the engine runs [`OpenAction::Shed`].
    Shed {
        /// Registry key of the open breaker.
        backend: String,
    },
    /// The engine is draining or dropped; no new work is accepted.
    Stopping,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { lane, capacity } => {
                write!(f, "{lane:?} lane full ({capacity} queued jobs)")
            }
            SubmitError::Shed { backend } => {
                write!(f, "shed: circuit breaker open for backend {backend}")
            }
            SubmitError::Stopping => write!(f, "engine is stopping"),
        }
    }
}

impl Error for SubmitError {}

impl From<SubmitError> for BackendError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Shed { backend } => BackendError::CircuitOpen { backend },
            other => BackendError::Overloaded {
                reason: other.to_string(),
            },
        }
    }
}

/// Why a bounded [`ServeEngine::wait_timeout`] returned without an
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The ticket did not complete within the budget; it is still live
    /// and a later `wait`/`wait_timeout`/`poll` can still consume it.
    Timeout {
        /// The budget that elapsed, in milliseconds.
        waited_ms: u64,
    },
    /// The engine does not know the ticket (never issued, already
    /// consumed, or discarded at shutdown).
    Unknown,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::Timeout { waited_ms } => {
                write!(f, "ticket not ready after {waited_ms} ms")
            }
            WaitError::Unknown => write!(f, "unknown ticket"),
        }
    }
}

impl Error for WaitError {}

/// A point-in-time view of how much work an engine is holding — the
/// queue-depth half of a fleet router's scoring input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLoad {
    /// Jobs queued (not running) on the interactive lane.
    pub queued_interactive: usize,
    /// Jobs queued (not running) on the bulk lane.
    pub queued_bulk: usize,
    /// Jobs currently executing on workers.
    pub running: usize,
}

impl EngineLoad {
    /// Total jobs the engine is holding (queued + running).
    pub fn total(&self) -> usize {
        self.queued_interactive + self.queued_bulk + self.running
    }
}

/// Everything one finished job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's result (fallback rescues included).
    pub result: Result<Measurements, BackendError>,
    /// The job's execution report (retries, backoff, degradation).
    pub report: ExecutionReport,
}

/// Non-blocking status of a ticket ([`ServeEngine::poll`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// Still waiting in a lane.
    Queued,
    /// A worker is executing it right now.
    Running,
    /// Finished — the outcome is handed over (a second poll of the same
    /// ticket returns [`Poll::Unknown`]).
    Ready(JobOutcome),
    /// Never submitted, already consumed, or discarded at shutdown.
    Unknown,
}

/// Counters of everything the engine did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tickets issued (fast-failed submissions included).
    pub submitted: u64,
    /// Jobs completed (failures, evictions and fast-fails included).
    pub completed: u64,
    /// Completions whose result was `Ok` — the goodput numerator a load
    /// harness or `/healthz` reader wants without replaying outcomes.
    pub completed_ok: u64,
    /// Completions whose result was a typed error (evictions and
    /// fast-fails included). `completed_ok + completed_err == completed`.
    pub completed_err: u64,
    /// Submissions refused with [`SubmitError::QueueFull`].
    pub rejected_full: u64,
    /// Queued jobs evicted by [`BackpressurePolicy::ShedOldest`].
    pub shed_oldest: u64,
    /// Submissions shed by admission control (no ticket issued).
    pub shed_admission: u64,
    /// Submissions fast-failed by admission control
    /// ([`OpenAction::FastFail`]).
    pub fast_failed: u64,
}

/// One queued submission.
struct Queued {
    ticket: Ticket,
    job: BatchJob,
    /// The breaker's verdict at enqueue time (`None` without admission
    /// control). `ShortCircuit` here means [`OpenAction::Fallback`].
    admission: Option<Admission>,
    /// The global job index `run_job` reports failures under — the local
    /// ticket, unless a router overrode it at submit time.
    global: u64,
    /// The executor seed — ticket-derived, unless a router pinned it.
    seed: u64,
}

/// Mutable engine state behind the one mutex.
struct State {
    next_ticket: u64,
    /// `lanes[0]` interactive, `lanes[1]` bulk.
    lanes: [VecDeque<Queued>; 2],
    running: HashSet<Ticket>,
    ready: HashMap<Ticket, JobOutcome>,
    subscribers: Vec<Sender<(Ticket, Result<Measurements, BackendError>)>>,
    stats: EngineStats,
    /// No new submissions; workers finish the queue.
    stopping: bool,
    /// Queued jobs were discarded (drop path); workers exit immediately.
    discard: bool,
    /// Workers hold off popping (deterministic tests).
    paused: bool,
    /// Probe admissions currently queued or running — bounds concurrent
    /// half-open probes at the policy's `probe_budget` (a streaming
    /// `plan_epoch(1)` would otherwise grant one probe per submission).
    outstanding_probes: usize,
}

fn lane_index(lane: Lane) -> usize {
    match lane {
        Lane::Interactive => 0,
        Lane::Bulk => 1,
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for jobs.
    jobs_cv: Condvar,
    /// Blocked producers wait here for lane space.
    space_cv: Condvar,
    /// `wait` callers wait here for completions.
    done_cv: Condvar,
    registry: Arc<HealthRegistry>,
    factory: Box<dyn Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync>,
    config: ServeConfig,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means a worker panicked mid-delivery; the queue
        // bookkeeping is still consistent (mutations happen before any
        // panic-prone user code), so keep serving.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn deliver(&self, st: &mut State, ticket: Ticket, outcome: JobOutcome) {
        st.subscribers
            .retain(|tx| tx.send((ticket, outcome.result.clone())).is_ok());
        if outcome.result.is_ok() {
            st.stats.completed_ok += 1;
        } else {
            st.stats.completed_err += 1;
        }
        st.ready.insert(ticket, outcome);
        st.stats.completed += 1;
        self.done_cv.notify_all();
    }
}

/// A long-lived serving front-end: bounded multi-producer job queue,
/// persistent worker pool, admission control and per-lane backpressure.
/// See the module docs for the determinism contract.
pub struct ServeEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts `config.workers` persistent workers over `factory` with a
    /// private [`HealthRegistry`].
    ///
    /// `factory` receives `(ticket, seed)` — the same contract as the
    /// batch layer's factory, so the exact closure handed to a
    /// [`qnat_core::batch::BatchExecutor`] serves here too.
    pub fn new<F>(config: ServeConfig, factory: F) -> Self
    where
        F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static,
    {
        Self::with_registry(config, factory, Arc::new(HealthRegistry::new()))
    }

    /// Like [`ServeEngine::new`], but breakers live in a shared
    /// `registry` so several engines (e.g. one per QNN block) pool their
    /// health bookkeeping under distinct keys.
    pub fn with_registry<F>(
        mut config: ServeConfig,
        factory: F,
        registry: Arc<HealthRegistry>,
    ) -> Self
    where
        F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static,
    {
        config.workers = config.workers.max(1);
        config.interactive.capacity = config.interactive.capacity.max(1);
        config.bulk.capacity = config.bulk.capacity.max(1);
        let workers = config.workers;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_ticket: 0,
                lanes: [VecDeque::new(), VecDeque::new()],
                running: HashSet::new(),
                ready: HashMap::new(),
                subscribers: Vec::new(),
                stats: EngineStats::default(),
                stopping: false,
                discard: false,
                paused: false,
                outstanding_probes: 0,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            done_cv: Condvar::new(),
            registry,
            factory: Box::new(factory),
            config,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServeEngine { shared, handles }
    }

    /// The per-job executor seed for ticket `t` — the same pure function
    /// of `(engine seed, ticket)` that
    /// [`qnat_core::batch::BatchExecutor::job_seed`] computes from its
    /// batch seed and job index.
    pub fn job_seed(&self, ticket: Ticket) -> u64 {
        derive(self.shared.config.seed, ticket)
    }

    /// Enqueues a job on `lane` and returns its [`Ticket`].
    ///
    /// With admission control configured, the target breaker is consulted
    /// first: an open breaker sheds, fast-fails or falls the job back per
    /// [`OpenAction`]. A full lane then applies its
    /// [`BackpressurePolicy`] — under [`BackpressurePolicy::Block`] this
    /// call blocks until a worker frees a slot.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when a rejecting lane is full,
    /// [`SubmitError::Shed`] when admission control refuses the job, and
    /// [`SubmitError::Stopping`] once the engine drains or drops.
    pub fn submit(&self, job: BatchJob, lane: Lane) -> Result<Ticket, SubmitError> {
        self.submit_inner(job, lane, None)
    }

    /// Like [`ServeEngine::submit`], but with the job's global index and
    /// executor seed pinned by the caller instead of derived from the
    /// local ticket.
    ///
    /// This is the fleet hook: a router spreading one logical workload
    /// over several engines keeps the fleet-wide invariant
    /// `seed = splitmix64(fleet_seed ^ splitmix64(fleet_job))` intact
    /// regardless of which engine (and therefore which local ticket) a
    /// job lands on — including a failover or hedged re-submission of the
    /// *same* `(global, seed)` pair, which runs bitwise identically on an
    /// identical device. Admission control and backpressure apply exactly
    /// as in `submit`; the returned ticket is still this engine's local
    /// handle.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServeEngine::submit`].
    pub fn submit_routed(
        &self,
        job: BatchJob,
        lane: Lane,
        global: u64,
        seed: u64,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(job, lane, Some((global, seed)))
    }

    fn submit_inner(
        &self,
        job: BatchJob,
        lane: Lane,
        routed: Option<(u64, u64)>,
    ) -> Result<Ticket, SubmitError> {
        let shared = &*self.shared;
        let mut st = shared.lock_state();
        if st.stopping {
            return Err(SubmitError::Stopping);
        }
        // Admission: a streaming epoch of one job. Shed and fast-failed
        // submissions still plan (and therefore tick) the breaker's
        // cooldown, which is what lets an open breaker reach half-open
        // and recover under pure submission pressure.
        let mut admission = None;
        if let Some(ac) = &shared.config.admission {
            let mut planned = shared
                .registry
                .with_breaker(&ac.key, &ac.policy, |b| b.plan_epoch(1)[0]);
            if planned == Admission::Probe {
                // plan_epoch(1) grants a probe on *every* half-open
                // submission; cap concurrent probes at the budget.
                if st.outstanding_probes >= ac.policy.probe_budget.max(1) {
                    planned = Admission::ShortCircuit;
                }
            }
            match planned {
                Admission::ShortCircuit => match ac.on_open {
                    OpenAction::Shed => {
                        st.stats.shed_admission += 1;
                        return Err(SubmitError::Shed {
                            backend: ac.key.clone(),
                        });
                    }
                    OpenAction::FastFail => {
                        let ticket = st.next_ticket;
                        st.next_ticket += 1;
                        st.stats.submitted += 1;
                        st.stats.fast_failed += 1;
                        let outcome = JobOutcome {
                            result: Err(BackendError::CircuitOpen {
                                backend: ac.key.clone(),
                            }),
                            report: ExecutionReport::default(),
                        };
                        shared.deliver(&mut st, ticket, outcome);
                        return Ok(ticket);
                    }
                    OpenAction::Fallback => admission = Some(Admission::ShortCircuit),
                },
                Admission::Probe => {
                    st.outstanding_probes += 1;
                    admission = Some(Admission::Probe);
                }
                Admission::Primary => admission = Some(Admission::Primary),
            }
        }
        // Backpressure on the target lane.
        let li = lane_index(lane);
        let cfg = match lane {
            Lane::Interactive => &shared.config.interactive,
            Lane::Bulk => &shared.config.bulk,
        };
        let cap = cfg.capacity;
        if st.lanes[li].len() >= cap {
            match cfg.backpressure {
                BackpressurePolicy::Block => {
                    while st.lanes[li].len() >= cap && !st.stopping {
                        st = shared.space_cv.wait(st).unwrap_or_else(|p| p.into_inner());
                    }
                    if st.stopping {
                        if admission == Some(Admission::Probe) {
                            st.outstanding_probes = st.outstanding_probes.saturating_sub(1);
                        }
                        return Err(SubmitError::Stopping);
                    }
                }
                BackpressurePolicy::RejectWhenFull => {
                    st.stats.rejected_full += 1;
                    if admission == Some(Admission::Probe) {
                        st.outstanding_probes = st.outstanding_probes.saturating_sub(1);
                    }
                    return Err(SubmitError::QueueFull {
                        lane,
                        capacity: cap,
                    });
                }
                BackpressurePolicy::ShedOldest => {
                    if let Some(victim) = st.lanes[li].pop_front() {
                        if victim.admission == Some(Admission::Probe) {
                            st.outstanding_probes = st.outstanding_probes.saturating_sub(1);
                        }
                        st.stats.shed_oldest += 1;
                        let outcome = JobOutcome {
                            result: Err(BackendError::Overloaded {
                                reason: format!(
                                    "job {} shed from {lane:?} lane by a newer submission \
                                     (capacity {cap})",
                                    victim.ticket
                                ),
                            }),
                            report: ExecutionReport::default(),
                        };
                        shared.deliver(&mut st, victim.ticket, outcome);
                    }
                }
            }
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.stats.submitted += 1;
        let (global, seed) = routed.unwrap_or((ticket, derive(shared.config.seed, ticket)));
        st.lanes[li].push_back(Queued {
            ticket,
            job,
            admission,
            global,
            seed,
        });
        shared.jobs_cv.notify_one();
        Ok(ticket)
    }

    /// Non-blocking status of `ticket`. [`Poll::Ready`] hands the outcome
    /// over — the engine forgets the ticket afterwards.
    pub fn poll(&self, ticket: Ticket) -> Poll {
        let mut st = self.shared.lock_state();
        if let Some(outcome) = st.ready.remove(&ticket) {
            return Poll::Ready(outcome);
        }
        if st.running.contains(&ticket) {
            return Poll::Running;
        }
        if st
            .lanes
            .iter()
            .any(|q| q.iter().any(|j| j.ticket == ticket))
        {
            return Poll::Queued;
        }
        Poll::Unknown
    }

    /// Blocks until `ticket` completes and hands its outcome over.
    /// Returns `None` for tickets the engine does not know (never issued,
    /// already consumed, or discarded at shutdown).
    pub fn wait(&self, ticket: Ticket) -> Option<JobOutcome> {
        let mut st = self.shared.lock_state();
        loop {
            if let Some(outcome) = st.ready.remove(&ticket) {
                return Some(outcome);
            }
            let pending = st.running.contains(&ticket)
                || st
                    .lanes
                    .iter()
                    .any(|q| q.iter().any(|j| j.ticket == ticket));
            if !pending {
                return None;
            }
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Like [`ServeEngine::wait`], but bounded: blocks at most `ms`
    /// milliseconds. On [`WaitError::Timeout`] the ticket stays live —
    /// its outcome is *not* consumed and any later wait or poll can still
    /// claim it, which is what lets a fleet router hedge a slow job on a
    /// second device and deterministically discard the loser.
    ///
    /// # Errors
    ///
    /// [`WaitError::Timeout`] when the budget elapses first,
    /// [`WaitError::Unknown`] for tickets the engine does not know.
    pub fn wait_timeout(&self, ticket: Ticket, ms: u64) -> Result<JobOutcome, WaitError> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
        let mut st = self.shared.lock_state();
        loop {
            if let Some(outcome) = st.ready.remove(&ticket) {
                return Ok(outcome);
            }
            let pending = st.running.contains(&ticket)
                || st
                    .lanes
                    .iter()
                    .any(|q| q.iter().any(|j| j.ticket == ticket));
            if !pending {
                return Err(WaitError::Unknown);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(WaitError::Timeout { waited_ms: ms });
            }
            let (guard, _) = self
                .shared
                .done_cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// A result stream: every completion (evictions and fast-fails
    /// included) is sent as `(ticket, result)` in completion order. The
    /// channel disconnects when the engine drains or drops.
    pub fn subscribe(&self) -> Receiver<(Ticket, Result<Measurements, BackendError>)> {
        let (tx, rx) = channel();
        self.shared.lock_state().subscribers.push(tx);
        rx
    }

    /// Holds workers off popping new jobs (running jobs finish). For
    /// deterministic backpressure/priority tests.
    pub fn pause(&self) {
        self.shared.lock_state().paused = true;
    }

    /// Resumes a paused engine.
    pub fn resume(&self) {
        self.shared.lock_state().paused = false;
        self.shared.jobs_cv.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.lock_state().stats
    }

    /// Jobs currently queued (not running) on `lane`.
    pub fn queue_depth(&self, lane: Lane) -> usize {
        self.shared.lock_state().lanes[lane_index(lane)].len()
    }

    /// Queue depths and running count in one consistent snapshot — what a
    /// fleet router scores candidate engines by.
    pub fn load(&self) -> EngineLoad {
        let st = self.shared.lock_state();
        EngineLoad {
            queued_interactive: st.lanes[0].len(),
            queued_bulk: st.lanes[1].len(),
            running: st.running.len(),
        }
    }

    /// The breaker registry admission control consults.
    pub fn health_registry(&self) -> &Arc<HealthRegistry> {
        &self.shared.registry
    }

    /// Graceful shutdown: stops accepting submissions, lets the workers
    /// finish every queued job, joins them, and returns the final stats.
    /// Unconsumed outcomes are dropped with the engine.
    pub fn drain(mut self) -> EngineStats {
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
            st.paused = false;
        }
        self.shared.jobs_cv.notify_all();
        self.shared.space_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let stats = self.shared.lock_state().stats;
        stats
    }
}

impl Drop for ServeEngine {
    /// Immediate shutdown: queued jobs are discarded (their `wait`ers get
    /// `None`), running jobs finish, workers are joined.
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
            st.discard = true;
            st.paused = false;
            st.lanes[0].clear();
            st.lanes[1].clear();
        }
        self.shared.jobs_cv.notify_all();
        self.shared.space_cv.notify_all();
        self.shared.done_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The persistent worker: pop (interactive before bulk), run through the
/// batch layer's [`run_job`] core, observe the breaker, deliver.
fn worker_loop(shared: &Shared) {
    loop {
        let queued = {
            let mut st = shared.lock_state();
            loop {
                if st.discard {
                    return;
                }
                if !st.paused {
                    let popped = st.lanes[0].pop_front().or_else(|| st.lanes[1].pop_front());
                    if let Some(q) = popped {
                        st.running.insert(q.ticket);
                        shared.space_cv.notify_all();
                        break q;
                    }
                    if st.stopping {
                        return;
                    }
                }
                st = shared.jobs_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let short = queued.admission == Some(Admission::ShortCircuit);
        let (result, report) = run_job(
            &*shared.factory,
            queued.global,
            queued.seed,
            &queued.job,
            short,
            shared.config.deadline_ms,
        );
        // Feed the breaker *without* the state lock (lock order: state →
        // registry on the submit path; never registry → state here).
        if let (Some(ac), Some(adm)) = (&shared.config.admission, queued.admission) {
            let signal = job_signal(&result, &report);
            shared.registry.with_breaker(&ac.key, &ac.policy, |b| {
                b.observe(adm, signal);
                b.end_epoch();
            });
        }
        let mut st = shared.lock_state();
        if queued.admission == Some(Admission::Probe) {
            st.outstanding_probes = st.outstanding_probes.saturating_sub(1);
        }
        st.running.remove(&queued.ticket);
        shared.deliver(&mut st, queued.ticket, JobOutcome { result, report });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_core::batch::BatchExecutor;
    use qnat_core::executor::RetryPolicy;
    use qnat_core::health::BreakerState;
    use qnat_noise::backend::SimulatorBackend;
    use qnat_noise::fault::{FaultSpec, FaultyBackend};
    use qnat_noise::seed::splitmix64;
    use qnat_sim::circuit::Circuit;
    use qnat_sim::gate::Gate;

    fn job(k: usize) -> BatchJob {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.1 + 0.05 * k as f64));
        c.push(Gate::cx(0, 1));
        BatchJob::exact(c)
    }

    fn faulty_factory(
        rate: f64,
    ) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static {
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

    /// Primary is a total outage until the backend's job counter reaches
    /// `heal_at`; no per-executor fallback, so failures surface.
    fn outage_factory(
        heal_at: u64,
    ) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static {
        move |job, seed| {
            let rate = if job < heal_at { 1.0 } else { 0.0 };
            Ok(ResilientExecutor::new(
                Box::new(FaultyBackend::starting_at(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(rate, seed),
                    job,
                )),
                RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
            ))
        }
    }

    fn config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            seed: 0xbeef,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn submit_wait_matches_batch_execute() {
        let jobs: Vec<BatchJob> = (0..12).map(job).collect();
        let batch = BatchExecutor::new(3, 0xbeef, faulty_factory(0.4)).execute(&jobs);
        let engine = ServeEngine::new(config(3), faulty_factory(0.4));
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|j| engine.submit(j.clone(), Lane::Interactive).unwrap())
            .collect();
        for (k, &t) in tickets.iter().enumerate() {
            assert_eq!(t, k as u64, "tickets are dense job indices");
            let outcome = engine.wait(t).expect("job completes");
            assert_eq!(outcome.result, batch.results[k], "ticket {t}");
        }
        assert_eq!(engine.stats().completed, 12);
    }

    #[test]
    fn poll_consumes_ready_outcomes() {
        let engine = ServeEngine::new(config(2), faulty_factory(0.0));
        assert_eq!(engine.poll(99), Poll::Unknown);
        let t = engine.submit(job(0), Lane::Interactive).unwrap();
        // Spin until ready.
        let outcome = loop {
            match engine.poll(t) {
                Poll::Ready(o) => break o,
                Poll::Queued | Poll::Running => std::thread::yield_now(),
                Poll::Unknown => panic!("live ticket must not be unknown"),
            }
        };
        assert!(outcome.result.is_ok());
        assert_eq!(
            engine.poll(t),
            Poll::Unknown,
            "ready outcome was handed over"
        );
        assert!(engine.wait(t).is_none());
    }

    #[test]
    fn subscribe_streams_every_completion() {
        let engine = ServeEngine::new(config(4), faulty_factory(0.3));
        let rx = engine.subscribe();
        let tickets: Vec<Ticket> = (0..10)
            .map(|k| engine.submit(job(k), Lane::Interactive).unwrap())
            .collect();
        let mut seen: Vec<Ticket> = (0..10).map(|_| rx.recv().expect("stream open").0).collect();
        seen.sort_unstable();
        assert_eq!(seen, tickets);
        let stats = engine.drain();
        assert_eq!(stats.completed, 10);
        assert!(rx.recv().is_err(), "stream disconnects after drain");
    }

    #[test]
    fn interactive_lane_preempts_bulk() {
        let engine = ServeEngine::new(config(1), faulty_factory(0.0));
        engine.pause();
        let rx = engine.subscribe();
        let b0 = engine.submit(job(0), Lane::Bulk).unwrap();
        let b1 = engine.submit(job(1), Lane::Bulk).unwrap();
        let i0 = engine.submit(job(2), Lane::Interactive).unwrap();
        engine.resume();
        let order: Vec<Ticket> = (0..3).map(|_| rx.recv().unwrap().0).collect();
        assert_eq!(order, vec![i0, b0, b1], "interactive drains first");
    }

    #[test]
    fn shed_oldest_evicts_with_overloaded() {
        let engine = ServeEngine::new(
            ServeConfig {
                workers: 1,
                interactive: LaneConfig::shedding(2),
                ..config(1)
            },
            faulty_factory(0.0),
        );
        engine.pause();
        let t0 = engine.submit(job(0), Lane::Interactive).unwrap();
        let t1 = engine.submit(job(1), Lane::Interactive).unwrap();
        let t2 = engine.submit(job(2), Lane::Interactive).unwrap();
        // t0 was evicted to make room for t2 — completed with Overloaded.
        let evicted = engine.wait(t0).expect("eviction delivers an outcome");
        assert!(matches!(
            evicted.result,
            Err(BackendError::Overloaded { .. })
        ));
        assert_eq!(engine.queue_depth(Lane::Interactive), 2);
        engine.resume();
        assert!(engine.wait(t1).unwrap().result.is_ok());
        assert!(engine.wait(t2).unwrap().result.is_ok());
        let stats = engine.stats();
        assert_eq!((stats.shed_oldest, stats.completed), (1, 3));
    }

    /// ISSUE 5 satellite: a `ShedOldest` eviction is *delivered*, not
    /// merely recorded — subscribers see the evicted ticket complete
    /// with `Overloaded` promptly (while the workers are still paused,
    /// i.e. without waiting on any job to actually run), and the
    /// outcome also remains available to `poll`/`wait` consumers.
    #[test]
    fn shed_oldest_eviction_reaches_subscribers_promptly() {
        let engine = ServeEngine::new(
            ServeConfig {
                workers: 1,
                interactive: LaneConfig::shedding(2),
                ..config(1)
            },
            faulty_factory(0.0),
        );
        let rx = engine.subscribe();
        engine.pause();
        let t0 = engine.submit(job(0), Lane::Interactive).unwrap();
        let _t1 = engine.submit(job(1), Lane::Interactive).unwrap();
        let _t2 = engine.submit(job(2), Lane::Interactive).unwrap();
        // The eviction is the only completion so far: with the workers
        // paused, nothing else can possibly be delivered.
        let (ticket, result) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("eviction is broadcast without waiting on a worker");
        assert_eq!(ticket, t0);
        assert!(matches!(result, Err(BackendError::Overloaded { .. })));
        // The same outcome is still held for a poll/wait consumer.
        match engine.poll(t0) {
            Poll::Ready(outcome) => {
                assert!(matches!(
                    outcome.result,
                    Err(BackendError::Overloaded { .. })
                ));
            }
            other => panic!("evicted ticket should be Ready, got {other:?}"),
        }
        engine.resume();
        let stats = engine.drain();
        assert_eq!((stats.shed_oldest, stats.completed), (1, 3));
    }

    #[test]
    fn reject_when_full_is_a_typed_error() {
        let engine = ServeEngine::new(
            ServeConfig {
                workers: 1,
                bulk: LaneConfig::rejecting(2),
                ..config(1)
            },
            faulty_factory(0.0),
        );
        engine.pause();
        engine.submit(job(0), Lane::Bulk).unwrap();
        engine.submit(job(1), Lane::Bulk).unwrap();
        let err = engine.submit(job(2), Lane::Bulk).unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                lane: Lane::Bulk,
                capacity: 2
            }
        );
        // The interactive lane is unaffected.
        engine.submit(job(3), Lane::Interactive).unwrap();
        assert_eq!(engine.stats().rejected_full, 1);
        engine.resume();
    }

    #[test]
    fn blocking_lane_accepts_everything_under_multi_producer_load() {
        let engine = ServeEngine::new(
            ServeConfig {
                workers: 2,
                interactive: LaneConfig::blocking(2),
                ..config(2)
            },
            faulty_factory(0.2),
        );
        std::thread::scope(|s| {
            for p in 0..3usize {
                let engine = &engine;
                s.spawn(move || {
                    for k in 0..8 {
                        engine.submit(job(p * 8 + k), Lane::Interactive).unwrap();
                    }
                });
            }
        });
        let stats = engine.drain();
        assert_eq!((stats.submitted, stats.completed), (24, 24));
        assert_eq!(stats.rejected_full, 0);
    }

    fn admission_config(on_open: OpenAction) -> ServeConfig {
        ServeConfig {
            workers: 1,
            admission: Some(AdmissionControl {
                key: "primary".into(),
                policy: BreakerPolicy {
                    window: 4,
                    min_samples: 2,
                    failure_threshold: 0.5,
                    cooldown_jobs: 3,
                    probe_budget: 1,
                    decision_interval: 1,
                },
                on_open,
            }),
            ..config(1)
        }
    }

    #[test]
    fn open_breaker_fast_fails_submissions() {
        let engine = ServeEngine::new(
            admission_config(OpenAction::FastFail),
            outage_factory(u64::MAX),
        );
        let mut fast_failed = 0;
        for k in 0..6 {
            let t = engine.submit(job(k), Lane::Interactive).unwrap();
            let outcome = engine.wait(t).unwrap();
            assert!(outcome.result.is_err());
            if matches!(outcome.result, Err(BackendError::CircuitOpen { .. })) {
                fast_failed += 1;
                assert_eq!(
                    outcome.report,
                    ExecutionReport::default(),
                    "fast-failed jobs never run"
                );
            }
        }
        assert!(
            fast_failed >= 2,
            "breaker must trip and fast-fail: {fast_failed}"
        );
        assert_eq!(engine.stats().fast_failed, fast_failed);
    }

    #[test]
    fn open_breaker_sheds_submissions_without_tickets() {
        let engine = ServeEngine::new(admission_config(OpenAction::Shed), outage_factory(u64::MAX));
        let mut shed = 0;
        let mut submitted = 0;
        for k in 0..6 {
            match engine.submit(job(k), Lane::Interactive) {
                Ok(t) => {
                    submitted += 1;
                    let _ = engine.wait(t);
                }
                Err(SubmitError::Shed { backend }) => {
                    shed += 1;
                    assert_eq!(backend, "primary");
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(shed >= 2, "breaker must trip and shed: {shed}");
        let stats = engine.stats();
        assert_eq!(stats.shed_admission, shed);
        assert_eq!(stats.submitted, submitted, "shed submissions get no ticket");
    }

    #[test]
    fn breaker_recovers_through_probes_after_outage_heals() {
        // Outage for the first 2 backend jobs; every later job is clean.
        // Trip → cooldown (served by fast-failed submissions) → half-open
        // probe → reclose.
        let engine = ServeEngine::new(admission_config(OpenAction::FastFail), outage_factory(2));
        let mut last_ok = false;
        for k in 0..24 {
            let t = engine.submit(job(k), Lane::Interactive).unwrap();
            last_ok = engine.wait(t).unwrap().result.is_ok();
        }
        assert!(last_ok, "healed backend must serve again");
        let snap = engine
            .health_registry()
            .snapshot("primary")
            .expect("breaker created");
        assert!(snap.trips >= 1, "outage must trip the breaker");
        assert!(snap.recoveries >= 1, "probe must re-close the breaker");
        assert_eq!(snap.state, BreakerState::Closed);
    }

    #[test]
    fn fallback_action_serves_open_breaker_jobs_from_fallback() {
        // Factory with a dead primary and a clean fallback: once the
        // breaker opens, admitted jobs short-circuit to the fallback and
        // still succeed — the batch health layer's semantics, streamed.
        let factory = move |_job: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
            Ok(ResilientExecutor::with_fallback(
                Box::new(FaultyBackend::new(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(1.0, seed),
                )),
                Box::new(SimulatorBackend::new(seed ^ 1)),
                RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
            ))
        };
        let engine = ServeEngine::new(admission_config(OpenAction::Fallback), factory);
        let mut short_circuited = 0usize;
        for k in 0..12 {
            let t = engine.submit(job(k), Lane::Interactive).unwrap();
            let outcome = engine.wait(t).unwrap();
            assert!(outcome.result.is_ok(), "fallback serves every job");
            short_circuited += outcome.report.short_circuited_jobs;
        }
        assert!(short_circuited > 0, "open breaker must skip the primary");
        let snap = engine.health_registry().snapshot("primary").unwrap();
        assert!(snap.trips >= 1);
    }

    #[test]
    fn submit_routed_pins_global_index_and_seed() {
        // A routed submission must run under the caller's (global, seed),
        // not the local-ticket derivation: outcome bitwise equals a direct
        // run_job with those values, even though the local ticket differs.
        use qnat_core::batch::run_job;
        let engine = ServeEngine::new(config(2), faulty_factory(0.4));
        // Burn local tickets 0..3 so routed tickets diverge from globals.
        for k in 0..3 {
            let t = engine.submit(job(k), Lane::Bulk).unwrap();
            let _ = engine.wait(t);
        }
        let fleet_seed = 0x0005_eedf_1ee7_u64;
        let factory = faulty_factory(0.4);
        for global in [7u64, 11, 42] {
            let seed = splitmix64(fleet_seed ^ splitmix64(global));
            let t = engine
                .submit_routed(job(global as usize), Lane::Interactive, global, seed)
                .unwrap();
            assert_ne!(t, global, "local ticket diverged from the global index");
            let outcome = engine.wait(t).expect("routed job completes");
            let (result, report) =
                run_job(&factory, global, seed, &job(global as usize), false, None);
            assert_eq!(outcome.result, result, "global {global}");
            assert_eq!(outcome.report, report, "global {global}");
        }
    }

    #[test]
    fn wait_timeout_times_out_and_keeps_the_ticket_live() {
        let engine = ServeEngine::new(config(1), faulty_factory(0.0));
        engine.pause();
        let t = engine.submit(job(0), Lane::Interactive).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(
            engine.wait_timeout(t, 30),
            Err(WaitError::Timeout { waited_ms: 30 }),
            "paused engine cannot complete the job"
        );
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(engine.wait_timeout(9999, 10), Err(WaitError::Unknown));
        engine.resume();
        // The timeout consumed nothing: the same ticket still delivers.
        let outcome = engine
            .wait_timeout(t, 5_000)
            .expect("completes after resume");
        assert!(outcome.result.is_ok());
        assert_eq!(
            engine.wait_timeout(t, 10),
            Err(WaitError::Unknown),
            "consumed"
        );
    }

    #[test]
    fn load_reports_queued_and_running() {
        let engine = ServeEngine::new(config(1), faulty_factory(0.0));
        assert_eq!(engine.load(), EngineLoad::default());
        engine.pause();
        engine.submit(job(0), Lane::Interactive).unwrap();
        engine.submit(job(1), Lane::Bulk).unwrap();
        engine.submit(job(2), Lane::Bulk).unwrap();
        let load = engine.load();
        assert_eq!(load.queued_interactive, 1);
        assert_eq!(load.queued_bulk, 2);
        assert_eq!(load.total(), 3);
        engine.resume();
        let stats = engine.drain();
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn drain_finishes_queued_jobs_and_refuses_new_ones() {
        let engine = ServeEngine::new(config(2), faulty_factory(0.0));
        engine.pause();
        let tickets: Vec<Ticket> = (0..6)
            .map(|k| engine.submit(job(k), Lane::Bulk).unwrap())
            .collect();
        let rx = engine.subscribe();
        engine.resume();
        let stats = engine.drain();
        assert_eq!(
            stats.completed,
            tickets.len() as u64,
            "drain runs the queue dry"
        );
        let streamed: Vec<_> = rx.try_iter().collect();
        assert_eq!(streamed.len(), tickets.len());
        assert!(streamed.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn drop_discards_queued_jobs() {
        let engine = ServeEngine::new(config(1), faulty_factory(0.0));
        engine.pause();
        for k in 0..4 {
            engine.submit(job(k), Lane::Bulk).unwrap();
        }
        let rx = engine.subscribe();
        drop(engine);
        // The engine was paused, so nothing ran: every queued job was
        // discarded and the stream disconnects without delivering any.
        assert_eq!(rx.iter().count(), 0);
    }
}
