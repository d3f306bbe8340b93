//! The [`FleetRouter`]: one logical job queue sharded over many serving
//! engines with noise-aware routing, failover, hedged retries and
//! quarantine.
//!
//! ## Architecture
//!
//! The router fronts N [`ServeEngine`]s — one per [`FleetDevice`], all
//! sharing one [`HealthRegistry`] keyed by device name. Callers submit
//! fleet jobs ([`FleetRouter::submit`]) into a bounded FIFO; a pool of
//! *pilot* threads pops them and, per job: scores every candidate device,
//! routes to the best, waits for the outcome, and delivers it through
//! [`FleetRouter::poll`]/[`FleetRouter::wait`].
//!
//! ## Routing score
//!
//! Lower is better:
//!
//! ```text
//! score(d) = 0.01 · load(d)               // queued + running jobs
//!          + 1.0 · noise(d, job)          // drifted mean error estimate
//!          + breaker_penalty(d)           // 0 / 0.05 half-open / 10³ open
//! ```
//!
//! `noise(d, job)` evaluates the device's declared [`DriftCursor`] at the
//! fleet job index and sums the drifted model's mean single-qubit,
//! two-qubit and readout errors — the fleet analogue of QuantumNAT's
//! noise-adaptive compilation, lifted from qubit mapping to device
//! choice. Ties break toward the lower device index, so scoring is
//! deterministic given identical observations.
//!
//! ## Failover, hedging, quarantine
//!
//! A refused submission ([`SubmitError`]) or an error outcome
//! (`CircuitOpen` fast-fails and terminal `BackendError`s alike) sends
//! the job to the next-best untried device instead of surfacing the
//! refusal; only when *every* device has been tried does the last error
//! reach the caller. Jobs slower than a configurable latency percentile
//! get a **hedged** duplicate on the next-best device with the *same*
//! `(global, seed)` pair; whichever attempt completes first wins
//! (ties break toward the primary), and the loser's outcome is reaped
//! and discarded after delivery. Devices whose breaker trips repeatedly
//! are **quarantined** out of the candidate set; their breakers keep
//! serving cooldown through idle ticks (`HealthRegistry::tick_idle`, one
//! planned epoch per routing event — the serving layer's epochs-of-one
//! cadence, applied to zero-traffic devices), and once half-open the
//! router probes them with a live job every few routing rounds,
//! re-admitting on reclose. With every device quarantined and none
//! probe-ready, [`FleetRouter::submit`] refuses with the typed
//! [`FleetError::AllDevicesDown`].
//!
//! ## Determinism contract
//!
//! Fleet job `t` always runs under seed
//! `splitmix64(fleet_seed ^ splitmix64(t))` — the same derivation the
//! batch and serving layers use — pinned through every engine by
//! [`ServeEngine::submit_routed`], so a failover or hedge re-runs the
//! *identical* executor stack. Which device wins is timing- and
//! health-dependent (documented relaxation), but the router records a
//! [`RoutingTrace`], and [`replay_job`] re-executes any delivered
//! attempt bitwise identically — pinned by
//! `qnat-fleet/tests/fleet_props.rs`. Fast-failed deliveries (the
//! breaker refused, nothing ran) carry no executable attempt and are the
//! one non-replayable disposition.

use crate::device::FleetDevice;
use qnat_calib::{
    CalibConfig, CalibDecision, CalibTrace, CalibrationHealth, CalibrationTracker, CandidateScore,
    NoiseSource,
};
use qnat_core::batch::{run_job, BatchJob};
use qnat_core::executor::ExecutionReport;
use qnat_core::health::{BreakerPolicy, BreakerSnapshot, BreakerState, HealthRegistry};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_noise::device::DeviceModel;
use qnat_noise::fault::DriftCursor;
use qnat_noise::seed::derive;
use qnat_serve::engine::{
    AdmissionControl, EngineLoad, JobOutcome, Lane, LaneConfig, OpenAction, ServeConfig,
    ServeEngine, SubmitError, Ticket, WaitError,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Handle to one accepted fleet submission. Fleet tickets are dense and
/// monotonic: the ticket *is* the fleet-wide job index the seed is
/// derived from, independent of which device ends up running the job.
pub type FleetTicket = u64;

/// Routing-score weight per queued-or-running job on the device's engine
/// (lower score wins).
const DEPTH_WEIGHT: f64 = 0.01;
/// Routing-score weight per unit of estimated mean error (single +
/// two-qubit + readout).
const NOISE_WEIGHT: f64 = 1.0;
/// Flat routing-score penalty while the device's breaker is half-open.
const HALF_OPEN_PENALTY: f64 = 0.05;
/// Flat routing-score penalty while the device's breaker is open — large
/// enough to lose to any healthy device, small enough to still order
/// several open devices by noise.
const OPEN_PENALTY: f64 = 1e3;
/// Bounded fleet queue capacity; producers block when full.
const QUEUE_CAPACITY: usize = 256;
/// Per-device engine lane capacity (both lanes).
const LANE_CAPACITY: usize = 64;

/// Where the routing score's noise term comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorePolicy {
    /// The declared calibration: the device's static model, drifted along
    /// its declared [`DriftCursor`] (the original fleet behavior).
    #[default]
    Static,
    /// The learned calibration: the [`CalibrationTracker`]'s routing
    /// estimate (prediction plus uncertainty margin), learned online from
    /// the execution-report stream and blended with the static term in
    /// proportion to the device's observation-window fill — an
    /// under-observed device is scored mostly by its declared calibration
    /// so early pessimism can't starve it of traffic. Fully cold devices
    /// fall back to the static term per candidate, and every scored
    /// decision is recorded in the router's [`CalibTrace`] for bitwise
    /// replay.
    Predicted,
}

/// When to launch a hedged duplicate of a slow job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Completed-job latency percentile (0–100) past which the duplicate
    /// launches.
    pub percentile: f64,
    /// Completed jobs required in the latency window before hedging arms
    /// (before that, jobs wait unhedged).
    pub min_samples: usize,
    /// Lower bound on the hedge budget in milliseconds — guards against
    /// hedging every job when the fleet is fast.
    pub floor_ms: u64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            percentile: 95.0,
            min_samples: 16,
            floor_ms: 10,
        }
    }
}

/// When to evict a device from the candidate set, and how to let it
/// earn its way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Breaker trips since the device's last (re-)admission that trigger
    /// quarantine (clamped to ≥ 1).
    pub trip_threshold: u64,
    /// Every `probe_every`-th routing round offers one half-open
    /// quarantined device a live job as a recovery probe (clamped to
    /// ≥ 1).
    pub probe_every: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            trip_threshold: 2,
            probe_every: 4,
        }
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet seed: job `t` runs under `splitmix64(seed ^ splitmix64(t))`
    /// on whichever device serves it.
    pub seed: u64,
    /// Pilot threads routing jobs concurrently (clamped to ≥ 1). Each
    /// pilot shepherds one fleet job at a time end-to-end.
    pub pilots: usize,
    /// Worker threads per device engine (clamped to ≥ 1).
    pub engine_workers: usize,
    /// Optional per-job backoff budget in milliseconds, applied on every
    /// device.
    pub deadline_ms: Option<u64>,
    /// Breaker thresholds for every device's admission control.
    pub breaker: BreakerPolicy,
    /// Hedged-retry policy (`None` disables hedging).
    pub hedge: Option<HedgePolicy>,
    /// Quarantine policy.
    pub quarantine: QuarantinePolicy,
    /// Noise-term source for the routing score. The tracker observes the
    /// report stream under both policies (so `/healthz` and accuracy
    /// accounting work everywhere); the policy only controls whether
    /// routing *acts* on its estimates.
    pub score_policy: ScorePolicy,
    /// Calibration-tracker hyper-parameters.
    pub calibration: CalibConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            pilots: 4,
            engine_workers: 2,
            deadline_ms: None,
            breaker: BreakerPolicy::default(),
            hedge: Some(HedgePolicy::default()),
            quarantine: QuarantinePolicy::default(),
            score_policy: ScorePolicy::default(),
            calibration: CalibConfig::default(),
        }
    }
}

/// Why the fleet refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Every device is quarantined and none has cooled down to a
    /// probe-ready half-open breaker — the fleet has fully degraded.
    AllDevicesDown {
        /// Fleet size, for the error message.
        devices: usize,
    },
    /// The router is draining or dropped; no new work is accepted.
    Stopping,
    /// A fleet needs at least one device.
    NoDevices,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::AllDevicesDown { devices } => {
                write!(f, "all {devices} fleet devices are quarantined")
            }
            FleetError::Stopping => write!(f, "fleet router is stopping"),
            FleetError::NoDevices => write!(f, "fleet has no devices"),
        }
    }
}

impl Error for FleetError {}

/// Why an attempt was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The first, best-scored attempt of the job.
    Primary,
    /// A re-route after a refused or failed earlier attempt.
    Failover,
    /// A duplicate launched because the running attempt exceeded the
    /// hedge budget.
    Hedge,
    /// A live recovery probe routed to a half-open quarantined device.
    Probe,
}

/// What became of one attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// This attempt's outcome was delivered to the caller.
    Won,
    /// The attempt ran and completed with this error; the router failed
    /// over (or, if it was the last candidate, delivered the error — then
    /// it is also the winner).
    Failed(BackendError),
    /// The device's open breaker fast-failed the attempt without running
    /// it.
    FastFailed,
    /// The engine refused the submission outright (no ticket issued).
    Refused(SubmitError),
    /// The attempt lost a hedge race; its outcome was reaped and
    /// discarded.
    Lost,
}

/// One attempt of one fleet job on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptTrace {
    /// Device (and breaker-key) name.
    pub device: String,
    /// Why the attempt was made.
    pub kind: AttemptKind,
    /// The device engine's local ticket (`None` for refused
    /// submissions).
    pub ticket: Option<Ticket>,
    /// What became of it.
    pub disposition: Disposition,
}

/// The full routing history of one fleet job — enough to re-execute the
/// delivered outcome bitwise via [`replay_job`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Fleet ticket (= fleet-wide job index).
    pub job: FleetTicket,
    /// The seed every attempt ran under:
    /// `splitmix64(fleet_seed ^ splitmix64(job))`.
    pub seed: u64,
    /// Attempts in launch order.
    pub attempts: Vec<AttemptTrace>,
    /// Index into `attempts` of the attempt whose outcome was delivered
    /// (`None` only if no device could even be attempted).
    pub winner: Option<usize>,
}

/// Every job's [`JobTrace`], sorted by fleet ticket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTrace {
    /// One trace per delivered fleet job.
    pub jobs: Vec<JobTrace>,
}

/// Everything one delivered fleet job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The delivered result (failover rescues included).
    pub result: Result<Measurements, BackendError>,
    /// The winning attempt's execution report.
    pub report: ExecutionReport,
    /// Device that produced the delivered outcome.
    pub device: String,
    /// Total attempts the job consumed (refusals included).
    pub attempts: usize,
    /// Whether a hedged duplicate was launched.
    pub hedged: bool,
}

/// Non-blocking status of a fleet ticket ([`FleetRouter::poll`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetPoll {
    /// Waiting in the fleet queue.
    Queued,
    /// A pilot is shepherding it across devices.
    Running,
    /// Finished — the outcome is handed over (a second poll returns
    /// [`FleetPoll::Unknown`]).
    Ready(Box<FleetOutcome>),
    /// Never submitted, already consumed, or discarded at shutdown.
    Unknown,
}

/// Counters of everything the fleet did so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Fleet tickets issued.
    pub submitted: u64,
    /// Fleet jobs delivered.
    pub completed: u64,
    /// Attempts that failed or were refused and triggered a re-route.
    pub failovers: u64,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Hedge races won by the duplicate.
    pub hedge_wins: u64,
    /// Live recovery probes routed to quarantined devices.
    pub probes: u64,
    /// Devices evicted into quarantine.
    pub quarantined: u64,
    /// Devices re-admitted after their breaker reclosed.
    pub readmitted: u64,
    /// Submissions refused with [`FleetError::AllDevicesDown`].
    pub refused_all_down: u64,
    /// Idle cooldown epochs served to zero-traffic breakers.
    pub idle_ticks: u64,
}

/// One device's row in [`FleetHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceHealthView {
    /// Device (and breaker-key) name.
    pub name: String,
    /// Whether the router currently excludes it from the candidate set.
    pub quarantined: bool,
    /// Its engine's queue/running depths.
    pub load: EngineLoad,
    /// Its breaker, once traffic has created one.
    pub breaker: Option<BreakerSnapshot>,
    /// The router's current noise estimate for it (drift evaluated at
    /// the next fleet ticket).
    pub noise_estimate: f64,
}

/// A point-in-time view of the whole fleet, for `/healthz` and
/// operators.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// One row per device, in fleet order.
    pub devices: Vec<DeviceHealthView>,
}

/// Router-side bookkeeping about one device.
struct DeviceState {
    quarantined: bool,
    /// Breaker trip count at the device's last (re-)admission; the
    /// quarantine trigger compares against this baseline.
    trips_baseline: u64,
}

/// Mutable router state behind the one mutex.
struct RouterState {
    next: FleetTicket,
    queue: VecDeque<(FleetTicket, BatchJob)>,
    running: HashSet<FleetTicket>,
    ready: HashMap<FleetTicket, FleetOutcome>,
    traces: Vec<JobTrace>,
    /// Recent delivered-job latencies (ms), the hedge budget's sample.
    latencies: VecDeque<u64>,
    /// One drift cursor per device with a declared fault spec.
    cursors: Vec<Option<DriftCursor>>,
    /// The learned calibration tracker, fed every delivered job's report
    /// in ticket order (regardless of [`ScorePolicy`]).
    tracker: CalibrationTracker,
    /// Every prediction-driven scoring decision, in routing order.
    calib_decisions: Vec<CalibDecision>,
    devices: Vec<DeviceState>,
    stats: FleetStats,
    /// Monotone routing-round counter driving the probe cadence.
    route_rounds: u64,
    stopping: bool,
    discard: bool,
}

struct Slot {
    device: FleetDevice,
    engine: ServeEngine,
}

struct Shared {
    state: Mutex<RouterState>,
    /// Pilots wait here for fleet jobs.
    jobs_cv: Condvar,
    /// Blocked producers wait here for queue space.
    space_cv: Condvar,
    /// `wait` callers wait here for deliveries.
    done_cv: Condvar,
    slots: Vec<Slot>,
    registry: Arc<HealthRegistry>,
    config: FleetConfig,
}

const LATENCY_WINDOW: usize = 256;
/// Slice length of the hedge race's alternating bounded waits.
const RACE_SLICE_MS: u64 = 2;

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, RouterState> {
        // A poisoned lock means a pilot panicked mid-delivery; the queue
        // bookkeeping mutations all complete before any panic-prone user
        // code, so keep serving.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sum of the drifted model's mean errors for `slot` at fleet job
    /// index `job` — the noise half of the routing score.
    fn noise_estimate(&self, index: usize, cursor: Option<&mut DriftCursor>, job: u64) -> f64 {
        let model = self.slots[index].device.model();
        match cursor {
            Some(c) => {
                let (gate_scale, readout_scale) = c.scales_at(job);
                mean_error_sum(&model.drifted(gate_scale, readout_scale))
            }
            None => mean_error_sum(model),
        }
    }

    /// Refreshes quarantine bookkeeping from breaker snapshots, serves
    /// idle cooldown ticks, and picks the best candidate device for
    /// fleet job `job`, excluding `tried`. Returns the device index and
    /// whether the choice is a quarantine recovery probe. `None` only
    /// when every device is in `tried`.
    ///
    /// Lock order: called with the router state lock held; takes engine
    /// state locks (load) and the registry lock briefly — never the
    /// reverse anywhere in the fleet.
    fn choose_device(
        &self,
        st: &mut RouterState,
        job: u64,
        tried: &HashSet<usize>,
        allow_probe: bool,
    ) -> Option<(usize, bool)> {
        st.route_rounds += 1;
        let snaps: Vec<Option<BreakerSnapshot>> = self
            .slots
            .iter()
            .map(|s| self.registry.snapshot(s.device.name()))
            .collect();
        let trip_threshold = self.config.quarantine.trip_threshold.max(1);
        for (i, snap) in snaps.iter().enumerate() {
            let Some(snap) = snap else { continue };
            let d = &mut st.devices[i];
            if !d.quarantined && snap.trips.saturating_sub(d.trips_baseline) >= trip_threshold {
                d.quarantined = true;
                st.stats.quarantined += 1;
            } else if d.quarantined && snap.state == BreakerState::Closed {
                // The breaker reclosed (a probe succeeded): re-admit, and
                // restart the trip count from here.
                d.quarantined = false;
                d.trips_baseline = snap.trips;
                st.stats.readmitted += 1;
            }
        }
        // Probe cadence: every probe_every-th round, one half-open
        // quarantined device gets a live job to prove itself with.
        let chosen = if allow_probe
            && st
                .route_rounds
                .is_multiple_of(self.config.quarantine.probe_every.max(1))
        {
            (0..self.slots.len()).find(|i| {
                !tried.contains(i)
                    && st.devices[*i].quarantined
                    && snaps[*i].map(|s| s.state) == Some(BreakerState::HalfOpen)
            })
        } else {
            None
        };
        let probe = chosen.is_some();
        let chosen = chosen.or_else(|| {
            // Score the healthy candidates (lower wins, ties to the
            // lower index). Under `ScorePolicy::Predicted` the noise
            // term is the tracker's routing estimate (static fallback
            // per cold candidate) and the full scoring row set is
            // recorded as a replayable [`CalibDecision`].
            let predicted = self.config.score_policy == ScorePolicy::Predicted;
            let mut rows: Vec<CandidateScore> = Vec::new();
            let mut best: Option<(usize, f64)> = None;
            for i in 0..self.slots.len() {
                if tried.contains(&i) || st.devices[i].quarantined {
                    continue;
                }
                let depth = self.slots[i].engine.load().total() as f64;
                let (noise, source) = match st.tracker.routing_estimate(i) {
                    Some(e) if predicted => {
                        // Evidence-proportional blend: a device that has
                        // barely been observed carries a wide uncertainty
                        // margin, and trusting that pessimistic learned
                        // estimate outright starves it of the very traffic
                        // that would tighten the margin. Weight the learned
                        // estimate by how full the observation window is
                        // and fall back to the declared calibration for
                        // the remainder, so routing converges to the
                        // tracker only as real evidence accumulates.
                        let fill = st.tracker.window_fill(i).clamp(0.0, 1.0);
                        let stat = self.noise_estimate(i, st.cursors[i].as_mut(), job);
                        (fill * e + (1.0 - fill) * stat, NoiseSource::Predicted)
                    }
                    _ => (
                        self.noise_estimate(i, st.cursors[i].as_mut(), job),
                        NoiseSource::Static,
                    ),
                };
                let penalty = match snaps[i].map(|s| s.state) {
                    Some(BreakerState::Open { .. }) => OPEN_PENALTY,
                    Some(BreakerState::HalfOpen) => HALF_OPEN_PENALTY,
                    _ => 0.0,
                };
                let score = DEPTH_WEIGHT * depth + NOISE_WEIGHT * noise + penalty;
                if predicted {
                    rows.push(CandidateScore {
                        device: self.slots[i].device.name().to_owned(),
                        index: i,
                        noise,
                        source,
                        depth,
                        penalty,
                        score,
                    });
                }
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((i, score));
                }
            }
            if predicted {
                if let Some((i, _)) = best {
                    st.calib_decisions.push(CalibDecision {
                        job,
                        depth_weight: DEPTH_WEIGHT,
                        noise_weight: NOISE_WEIGHT,
                        candidates: rows,
                        chosen: i,
                    });
                }
            }
            best.map(|(i, _)| i)
        });
        let chosen = chosen.or_else(|| {
            // Graceful degradation's last resort: every untried device is
            // quarantined. Attempt the least-noisy one anyway — its
            // breaker will fast-fail instantly if still open, and the
            // attempt doubles as recovery traffic.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..self.slots.len() {
                if tried.contains(&i) {
                    continue;
                }
                let noise = self.noise_estimate(i, st.cursors[i].as_mut(), job);
                if best.is_none_or(|(_, b)| noise < b) {
                    best = Some((i, noise));
                }
            }
            best.map(|(i, _)| i)
        });
        // Devices not receiving this job still serve their cooldowns:
        // one idle epoch per routing event keeps zero-traffic breakers
        // moving toward half-open instead of starving open forever.
        for (i, slot) in self.slots.iter().enumerate() {
            if Some(i) == chosen {
                continue;
            }
            if let Some(state) = self.registry.tick_idle(slot.device.name()) {
                if state != BreakerState::Closed {
                    st.stats.idle_ticks += 1;
                }
            }
        }
        if probe {
            st.stats.probes += 1;
        }
        chosen.map(|i| (i, probe))
    }

    /// The current hedge budget in ms, or `None` when hedging is off or
    /// not yet armed.
    fn hedge_budget_ms(&self) -> Option<u64> {
        let policy = self.config.hedge.as_ref()?;
        let st = self.lock_state();
        if st.latencies.len() < policy.min_samples {
            return None;
        }
        if st.latencies.is_empty() {
            return Some(policy.floor_ms.max(1));
        }
        let mut sorted: Vec<u64> = st.latencies.iter().copied().collect();
        drop(st);
        sorted.sort_unstable();
        let frac = (policy.percentile.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let budget = sorted[frac.round() as usize];
        Some(budget.max(policy.floor_ms).max(1))
    }
}

fn mean_error_sum(model: &DeviceModel) -> f64 {
    model.mean_single_qubit_error() + model.mean_two_qubit_error() + model.mean_readout_error()
}

/// A fleet of serving engines behind one noise-aware router. See the
/// module docs for the routing, failover and determinism contracts.
pub struct FleetRouter {
    shared: Arc<Shared>,
    pilots: Vec<JoinHandle<()>>,
}

impl FleetRouter {
    /// Builds one [`ServeEngine`] per device (admission-controlled
    /// against a shared registry, keyed by device name) and starts
    /// `config.pilots` routing pilots.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoDevices`] for an empty device list.
    pub fn new(config: FleetConfig, devices: Vec<FleetDevice>) -> Result<Self, FleetError> {
        if devices.is_empty() {
            return Err(FleetError::NoDevices);
        }
        let registry = Arc::new(HealthRegistry::new());
        let slots: Vec<Slot> = devices
            .into_iter()
            .map(|device| {
                let factory = device.factory();
                let engine = ServeEngine::with_registry(
                    ServeConfig {
                        workers: config.engine_workers.max(1),
                        seed: config.seed,
                        interactive: LaneConfig::blocking(LANE_CAPACITY),
                        bulk: LaneConfig::blocking(LANE_CAPACITY),
                        deadline_ms: config.deadline_ms,
                        admission: Some(AdmissionControl {
                            key: device.name().to_owned(),
                            policy: config.breaker.clone(),
                            on_open: OpenAction::FastFail,
                        }),
                    },
                    move |global, seed| factory(global, seed),
                    Arc::clone(&registry),
                );
                Slot { device, engine }
            })
            .collect();
        let n = slots.len();
        let cursors = slots
            .iter()
            .map(|s| s.device.faults().copied().map(DriftCursor::new))
            .collect();
        // Warm-start the tracker from each device's declared calibration:
        // its first predictions match the static noise term instead of an
        // uninformed 0.5, so prequential accuracy never regresses below
        // the frozen-preset baseline while the window fills.
        let priors: Vec<f64> = slots
            .iter()
            .map(|s| mean_error_sum(s.device.model()))
            .collect();
        let tracker = CalibrationTracker::with_priors(
            config.calibration,
            slots.iter().map(|s| s.device.name().to_owned()).collect(),
            &priors,
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(RouterState {
                next: 0,
                queue: VecDeque::new(),
                running: HashSet::new(),
                ready: HashMap::new(),
                traces: Vec::new(),
                latencies: VecDeque::new(),
                cursors,
                tracker,
                calib_decisions: Vec::new(),
                devices: (0..n)
                    .map(|_| DeviceState {
                        quarantined: false,
                        trips_baseline: 0,
                    })
                    .collect(),
                stats: FleetStats::default(),
                route_rounds: 0,
                stopping: false,
                discard: false,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            done_cv: Condvar::new(),
            slots,
            registry,
            config,
        });
        let pilots = (0..shared.config.pilots.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || pilot_loop(&shared))
            })
            .collect();
        Ok(FleetRouter { shared, pilots })
    }

    /// The per-job executor seed for fleet ticket `t` — the same pure
    /// derivation the batch and serving layers use.
    pub fn job_seed(&self, ticket: FleetTicket) -> u64 {
        derive(self.shared.config.seed, ticket)
    }

    /// Enqueues a fleet job and returns its [`FleetTicket`]. Blocks when
    /// the fleet queue is full.
    ///
    /// # Errors
    ///
    /// [`FleetError::AllDevicesDown`] when every device is quarantined
    /// with no probe-ready breaker — the typed signal that the fleet has
    /// fully degraded — and [`FleetError::Stopping`] once the router
    /// drains or drops.
    pub fn submit(&self, job: BatchJob) -> Result<FleetTicket, FleetError> {
        let shared = &*self.shared;
        let mut st = shared.lock_state();
        if st.stopping {
            return Err(FleetError::Stopping);
        }
        let all_down = shared.slots.iter().enumerate().all(|(i, slot)| {
            st.devices[i].quarantined
                && shared
                    .registry
                    .snapshot(slot.device.name())
                    .map(|s| s.state)
                    != Some(BreakerState::HalfOpen)
        });
        if all_down {
            // Even refusals serve the fleet's cooldowns — pure refusal
            // pressure must still be able to resurrect a device.
            for slot in &shared.slots {
                if shared
                    .registry
                    .tick_idle(slot.device.name())
                    .is_some_and(|s| s != BreakerState::Closed)
                {
                    st.stats.idle_ticks += 1;
                }
            }
            st.stats.refused_all_down += 1;
            return Err(FleetError::AllDevicesDown {
                devices: shared.slots.len(),
            });
        }
        while st.queue.len() >= QUEUE_CAPACITY && !st.stopping {
            st = shared.space_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.stopping {
            return Err(FleetError::Stopping);
        }
        let ticket = st.next;
        st.next += 1;
        st.stats.submitted += 1;
        st.queue.push_back((ticket, job));
        shared.jobs_cv.notify_one();
        Ok(ticket)
    }

    /// Non-blocking status of `ticket`. [`FleetPoll::Ready`] hands the
    /// outcome over — the router forgets the ticket afterwards.
    pub fn poll(&self, ticket: FleetTicket) -> FleetPoll {
        let mut st = self.shared.lock_state();
        if let Some(outcome) = st.ready.remove(&ticket) {
            return FleetPoll::Ready(Box::new(outcome));
        }
        if st.running.contains(&ticket) {
            return FleetPoll::Running;
        }
        if st.queue.iter().any(|(t, _)| *t == ticket) {
            return FleetPoll::Queued;
        }
        FleetPoll::Unknown
    }

    /// Blocks until `ticket` is delivered and hands its outcome over.
    /// `None` for tickets the router does not know (never issued, already
    /// consumed, or discarded at shutdown).
    pub fn wait(&self, ticket: FleetTicket) -> Option<FleetOutcome> {
        let mut st = self.shared.lock_state();
        loop {
            if let Some(outcome) = st.ready.remove(&ticket) {
                return Some(outcome);
            }
            let pending =
                st.running.contains(&ticket) || st.queue.iter().any(|(t, _)| *t == ticket);
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

    /// Counter snapshot.
    pub fn stats(&self) -> FleetStats {
        self.shared.lock_state().stats
    }

    /// The shared breaker registry (one key per device name).
    pub fn health_registry(&self) -> &Arc<HealthRegistry> {
        &self.shared.registry
    }

    /// Device names in fleet order.
    pub fn device_names(&self) -> Vec<String> {
        self.shared
            .slots
            .iter()
            .map(|s| s.device.name().to_owned())
            .collect()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.shared.config
    }

    /// A point-in-time view of every device: quarantine flag, engine
    /// load, breaker snapshot and the router's current noise estimate.
    pub fn health(&self) -> FleetHealth {
        let shared = &*self.shared;
        let mut st = shared.lock_state();
        let next = st.next;
        let devices = (0..shared.slots.len())
            .map(|i| DeviceHealthView {
                name: shared.slots[i].device.name().to_owned(),
                quarantined: st.devices[i].quarantined,
                load: shared.slots[i].engine.load(),
                breaker: shared.registry.snapshot(shared.slots[i].device.name()),
                noise_estimate: shared.noise_estimate(i, st.cursors[i].as_mut(), next),
            })
            .collect();
        FleetHealth { devices }
    }

    /// The routing history so far, sorted by fleet ticket. Traces of
    /// delivered jobs replay bitwise via [`replay_job`].
    pub fn trace(&self) -> RoutingTrace {
        let st = self.shared.lock_state();
        let mut jobs = st.traces.clone();
        jobs.sort_by_key(|t| t.job);
        RoutingTrace { jobs }
    }

    /// A point-in-time snapshot of the calibration tracker: per-device
    /// estimate, routing estimate, residual EMA, window fill and
    /// observation count — the `/healthz` calibration section.
    pub fn calibration_health(&self) -> CalibrationHealth {
        self.shared.lock_state().tracker.health()
    }

    /// Every prediction-driven scoring decision so far, sorted by fleet
    /// ticket (failover rounds of one job stay in round order). Each
    /// decision's winner recomputes from the trace alone via
    /// [`qnat_calib::replay_decision`]. Empty under
    /// [`ScorePolicy::Static`].
    pub fn calib_trace(&self) -> CalibTrace {
        let st = self.shared.lock_state();
        let mut decisions = st.calib_decisions.clone();
        decisions.sort_by_key(|d| d.job);
        CalibTrace { decisions }
    }

    /// Runs `f` against the live calibration tracker under the router
    /// lock — for accuracy accounting (prequential MAE, raw estimates)
    /// that the health snapshot does not carry. Keep `f` short: it
    /// blocks routing.
    pub fn with_tracker<R>(&self, f: impl FnOnce(&CalibrationTracker) -> R) -> R {
        f(&self.shared.lock_state().tracker)
    }

    /// Graceful shutdown: refuses new submissions, lets the pilots
    /// deliver every queued job, joins them, and returns the final
    /// stats. Unconsumed outcomes are dropped with the router.
    pub fn drain(mut self) -> FleetStats {
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
        }
        self.shared.jobs_cv.notify_all();
        self.shared.space_cv.notify_all();
        for h in self.pilots.drain(..) {
            let _ = h.join();
        }
        self.shared.lock_state().stats
    }
}

impl Drop for FleetRouter {
    /// Immediate shutdown: queued fleet jobs are discarded (their
    /// `wait`ers get `None`), in-flight jobs finish, pilots and engines
    /// are joined.
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.stopping = true;
            st.discard = true;
            st.queue.clear();
        }
        self.shared.jobs_cv.notify_all();
        self.shared.space_cv.notify_all();
        self.shared.done_cv.notify_all();
        for h in self.pilots.drain(..) {
            let _ = h.join();
        }
        // Engines shut down when the last Arc<Shared> drops (their own
        // Drop joins their workers); by now the pilots are gone, so any
        // remaining engine work is hedge losers, which finish there.
    }
}

/// One pilot: pop a fleet job, route it across devices until an outcome
/// wins, deliver, reap hedge losers.
fn pilot_loop(shared: &Arc<Shared>) {
    loop {
        let (ticket, job) = {
            let mut st = shared.lock_state();
            loop {
                if st.discard {
                    return;
                }
                if let Some((t, j)) = st.queue.pop_front() {
                    st.running.insert(t);
                    shared.space_cv.notify_all();
                    break (t, j);
                }
                if st.stopping {
                    return;
                }
                st = shared.jobs_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let seed = derive(shared.config.seed, ticket);
        let started = Instant::now();
        let mut trace = JobTrace {
            job: ticket,
            seed,
            attempts: Vec::new(),
            winner: None,
        };
        let mut tried: HashSet<usize> = HashSet::new();
        // Hedge losers to reap (device index, engine ticket) — consumed
        // after delivery so the engines' ready maps never leak.
        let mut reap: Vec<(usize, Ticket)> = Vec::new();
        let mut delivered: Option<FleetOutcome> = None;
        // Best-so-far error outcome, delivered if every device fails.
        let mut last_error: Option<(usize, JobOutcome, String)> = None;
        let mut hedged = false;

        'attempts: loop {
            let choice = {
                let mut st = shared.lock_state();
                shared.choose_device(&mut st, ticket, &tried, true)
            };
            let Some((di, probe)) = choice else {
                break 'attempts;
            };
            tried.insert(di);
            let kind = if probe {
                AttemptKind::Probe
            } else if trace.attempts.is_empty() {
                AttemptKind::Primary
            } else {
                AttemptKind::Failover
            };
            let name = shared.slots[di].device.name().to_owned();
            let engine = &shared.slots[di].engine;
            let engine_ticket =
                match engine.submit_routed(job.clone(), Lane::Interactive, ticket, seed) {
                    Ok(t) => t,
                    Err(e) => {
                        trace.attempts.push(AttemptTrace {
                            device: name,
                            kind,
                            ticket: None,
                            disposition: Disposition::Refused(e),
                        });
                        shared.lock_state().stats.failovers += 1;
                        continue 'attempts;
                    }
                };
            let attempt_index = trace.attempts.len();
            trace.attempts.push(AttemptTrace {
                device: name.clone(),
                kind,
                ticket: Some(engine_ticket),
                disposition: Disposition::Lost,
            });

            // Wait — hedged when armed, plain otherwise. `winner` is
            // (device index, attempt index, outcome).
            let winner: (usize, usize, JobOutcome) = match shared.hedge_budget_ms() {
                Some(budget_ms) => match engine.wait_timeout(engine_ticket, budget_ms) {
                    Ok(o) => (di, attempt_index, o),
                    Err(WaitError::Unknown) => return,
                    Err(WaitError::Timeout { .. }) => {
                        // Slow job: launch the duplicate on the next-best
                        // untried device and race the two.
                        let hedge_choice = {
                            let mut st = shared.lock_state();
                            shared.choose_device(&mut st, ticket, &tried, false)
                        };
                        let mut racer: Option<(usize, usize, Ticket)> = None;
                        if let Some((hi, _)) = hedge_choice {
                            tried.insert(hi);
                            let hedge_name = shared.slots[hi].device.name().to_owned();
                            match shared.slots[hi].engine.submit_routed(
                                job.clone(),
                                Lane::Interactive,
                                ticket,
                                seed,
                            ) {
                                Ok(ht) => {
                                    hedged = true;
                                    shared.lock_state().stats.hedges += 1;
                                    let hedge_index = trace.attempts.len();
                                    trace.attempts.push(AttemptTrace {
                                        device: hedge_name,
                                        kind: AttemptKind::Hedge,
                                        ticket: Some(ht),
                                        disposition: Disposition::Lost,
                                    });
                                    racer = Some((hi, hedge_index, ht));
                                }
                                Err(e) => {
                                    trace.attempts.push(AttemptTrace {
                                        device: hedge_name,
                                        kind: AttemptKind::Hedge,
                                        ticket: None,
                                        disposition: Disposition::Refused(e),
                                    });
                                }
                            }
                        }
                        match racer {
                            Some((hi, hedge_index, ht)) => loop {
                                // Ties break toward the primary: it is
                                // polled first each round.
                                match engine.wait_timeout(engine_ticket, RACE_SLICE_MS) {
                                    Ok(o) => {
                                        reap.push((hi, ht));
                                        break (di, attempt_index, o);
                                    }
                                    Err(WaitError::Unknown) => return,
                                    Err(WaitError::Timeout { .. }) => {}
                                }
                                match shared.slots[hi].engine.wait_timeout(ht, RACE_SLICE_MS) {
                                    Ok(o) => {
                                        reap.push((di, engine_ticket));
                                        shared.lock_state().stats.hedge_wins += 1;
                                        break (hi, hedge_index, o);
                                    }
                                    Err(WaitError::Unknown) => return,
                                    Err(WaitError::Timeout { .. }) => {}
                                }
                            },
                            None => match engine.wait(engine_ticket) {
                                Some(o) => (di, attempt_index, o),
                                None => return,
                            },
                        }
                    }
                },
                None => match engine.wait(engine_ticket) {
                    Some(o) => (di, attempt_index, o),
                    None => return,
                },
            };
            let (win_device, win_index, outcome) = winner;
            let win_name = shared.slots[win_device].device.name().to_owned();
            match &outcome.result {
                Ok(_) => {
                    trace.attempts[win_index].disposition = Disposition::Won;
                    trace.winner = Some(win_index);
                    delivered = Some(FleetOutcome {
                        result: outcome.result,
                        report: outcome.report,
                        device: win_name,
                        attempts: trace.attempts.len(),
                        hedged,
                    });
                    break 'attempts;
                }
                Err(e) => {
                    trace.attempts[win_index].disposition =
                        if matches!(e, BackendError::CircuitOpen { .. }) {
                            // In this fleet CircuitOpen only arises from
                            // admission fast-fail: the job never ran.
                            Disposition::FastFailed
                        } else {
                            Disposition::Failed(e.clone())
                        };
                    last_error = Some((win_index, outcome, win_name));
                    shared.lock_state().stats.failovers += 1;
                }
            }
        }

        let outcome = match delivered {
            Some(o) => o,
            None => match last_error {
                Some((win_index, outcome, device)) => {
                    // Every candidate failed: deliver the last error and
                    // mark its attempt as the winner so the trace still
                    // replays the delivered outcome.
                    trace.winner = Some(win_index);
                    FleetOutcome {
                        result: outcome.result,
                        report: outcome.report,
                        device,
                        attempts: trace.attempts.len(),
                        hedged,
                    }
                }
                None => FleetOutcome {
                    // Nothing could even be attempted (every engine
                    // refused) — surface a typed overload.
                    result: Err(BackendError::Overloaded {
                        reason: "no fleet device accepted the job".into(),
                    }),
                    report: ExecutionReport::default(),
                    device: String::new(),
                    attempts: trace.attempts.len(),
                    hedged,
                },
            },
        };
        {
            let mut st = shared.lock_state();
            st.running.remove(&ticket);
            // Feed the calibration tracker: the winning device's report
            // usage, keyed by the fleet ticket so updates apply in ticket
            // order no matter which pilot delivers first. Undeliverable
            // jobs (no device attempted) still advance the ticket with an
            // evidence-free record so the reorder buffer never stalls.
            let win_device_index = shared
                .slots
                .iter()
                .position(|s| s.device.name() == outcome.device)
                .unwrap_or(0);
            let usage = CalibrationTracker::report_usage(&outcome.report);
            st.tracker
                .observe(ticket, win_device_index, &usage, outcome.result.is_ok());
            let latency_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            st.latencies.push_back(latency_ms);
            while st.latencies.len() > LATENCY_WINDOW {
                st.latencies.pop_front();
            }
            st.traces.push(trace);
            st.ready.insert(ticket, outcome);
            st.stats.completed += 1;
            shared.done_cv.notify_all();
        }
        // Reap hedge losers only after delivery: the winner's latency is
        // never extended by the loser, but the loser's outcome must not
        // rot in its engine's ready map.
        for (device_index, loser_ticket) in reap.drain(..) {
            let _ = shared.slots[device_index].engine.wait(loser_ticket);
        }
    }
}

/// Re-executes the delivered attempt of `trace` through the same
/// [`run_job`] core the device engines use, returning the bitwise
/// identical `(result, report)` pair — or `None` when the delivered
/// outcome never ran (a fast-failed delivery), when the winner's device
/// is not in `devices`, or when the trace has no winner.
///
/// `job` and `deadline_ms` must match what the fleet ran
/// (`FleetConfig::deadline_ms`).
pub fn replay_job(
    devices: &[FleetDevice],
    trace: &JobTrace,
    job: &BatchJob,
    deadline_ms: Option<u64>,
) -> Option<(Result<Measurements, BackendError>, ExecutionReport)> {
    let attempt = trace.attempts.get(trace.winner?)?;
    match attempt.disposition {
        Disposition::Won | Disposition::Failed(_) => {}
        _ => return None,
    }
    let device = devices.iter().find(|d| d.name() == attempt.device)?;
    Some(run_job(
        device.factory_ref(),
        trace.job,
        trace.seed,
        job,
        false,
        deadline_ms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FleetDevice;
    use qnat_core::executor::{ResilientExecutor, RetryPolicy};
    use qnat_noise::backend::{QuantumBackend, SimulatorBackend};
    use qnat_noise::fault::{FaultSpec, FaultyBackend};
    use qnat_noise::presets;
    use qnat_noise::seed::splitmix64;
    use qnat_sim::circuit::Circuit;
    use qnat_sim::gate::Gate;
    use std::time::Duration;

    fn job(k: usize) -> BatchJob {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.1 + 0.05 * k as f64));
        c.push(Gate::cx(0, 1));
        BatchJob::exact(c)
    }

    /// A clean simulator device scored by `model`'s static calibration.
    fn sim_device(model: DeviceModel) -> FleetDevice {
        FleetDevice::new(model, |_global, seed| {
            Ok(ResilientExecutor::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        })
    }

    /// A device whose every job fails (no rescue), regardless of retries.
    fn dead_device(model: DeviceModel) -> FleetDevice {
        FleetDevice::new(model, |global, seed| {
            Ok(ResilientExecutor::new(
                Box::new(FaultyBackend::starting_at(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(1.0, seed),
                    global,
                )),
                RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
            ))
        })
    }

    /// Wraps the simulator with a fixed wall-clock delay per execution —
    /// the hedge tests' "slow device".
    struct SlowBackend {
        inner: SimulatorBackend,
        delay: Duration,
    }

    impl QuantumBackend for SlowBackend {
        fn name(&self) -> &str {
            "slow-sim"
        }
        fn n_qubits(&self) -> usize {
            self.inner.n_qubits()
        }
        fn execute(
            &mut self,
            circuit: &Circuit,
            shots: Option<usize>,
        ) -> Result<Measurements, BackendError> {
            std::thread::sleep(self.delay);
            self.inner.execute(circuit, shots)
        }
    }

    fn slow_device(model: DeviceModel, delay_ms: u64) -> FleetDevice {
        FleetDevice::new(model, move |_global, seed| {
            Ok(ResilientExecutor::new(
                Box::new(SlowBackend {
                    inner: SimulatorBackend::new(seed),
                    delay: Duration::from_millis(delay_ms),
                }),
                RetryPolicy::default(),
            ))
        })
    }

    fn config() -> FleetConfig {
        FleetConfig {
            seed: 0xf1ee7,
            pilots: 1,
            engine_workers: 1,
            hedge: None,
            ..FleetConfig::default()
        }
    }

    /// A device whose jobs flake with probability `rate` per attempt but
    /// usually succeed within the retry budget — and whose drift is NOT
    /// declared to the router, so static scoring cannot see it.
    fn flaky_device(model: DeviceModel, rate: f64) -> FleetDevice {
        FleetDevice::new(model, move |global, seed| {
            Ok(ResilientExecutor::new(
                Box::new(FaultyBackend::starting_at(
                    SimulatorBackend::new(seed),
                    FaultSpec::transient(rate, seed),
                    global,
                )),
                RetryPolicy {
                    max_attempts: 4,
                    ..RetryPolicy::default()
                },
            ))
        })
    }

    #[test]
    fn predicted_policy_learns_to_avoid_an_undeclared_flaky_device() {
        // santiago scores best statically and declares no drift, but
        // 55% of its attempts flake. Static scoring routes to it
        // forever; the tracker reads the retry pressure out of the
        // report stream and reroutes.
        let mut cfg = config();
        cfg.score_policy = ScorePolicy::Predicted;
        cfg.calibration = CalibConfig {
            min_observations: 6,
            ..CalibConfig::default()
        };
        let router = FleetRouter::new(
            cfg,
            vec![
                flaky_device(presets::santiago(), 0.55),
                sim_device(presets::quito()),
            ],
        )
        .unwrap();
        for k in 0..40 {
            let t = router.submit(job(k)).unwrap();
            router.wait(t).unwrap();
        }
        let late = router.wait(router.submit(job(40)).unwrap()).unwrap();
        assert_eq!(late.device, presets::quito().name(), "learned reroute");
        let health = router.calibration_health();
        assert_eq!(health.devices.len(), 2);
        assert_eq!(health.devices[0].name, presets::santiago().name());
        // The tracker warm-starts at each device's declared calibration
        // and reroutes as soon as the blended score flips, so the flaky
        // device's absolute estimate stays modest — what matters is that
        // it climbed above its declared prior while the clean device's
        // fell below its own, flipping the learned ranking.
        let flaky_estimate = health.devices[0].estimate.expect("warm after 40 jobs");
        let steady_estimate = health.devices[1].estimate.expect("warm after 40 jobs");
        let flaky_prior = mean_error_sum(&presets::santiago());
        assert!(
            flaky_estimate > flaky_prior,
            "tracker saw the flake rate: estimate {flaky_estimate} vs declared {flaky_prior}"
        );
        assert!(
            flaky_estimate > steady_estimate,
            "tracker ranks the flaky device riskier: {flaky_estimate} vs {steady_estimate}"
        );
        assert_eq!(health.applied, 41, "every delivery advanced the ticket");
        // Every prediction-driven decision replays to its recorded
        // winner from the trace alone.
        let trace = router.calib_trace();
        assert!(!trace.decisions.is_empty());
        for d in &trace.decisions {
            assert_eq!(
                qnat_calib::replay_decision(d),
                Some(d.chosen),
                "job {}",
                d.job
            );
        }
        // At least one late decision was actually driven by a predicted
        // noise term.
        assert!(trace.decisions.iter().any(|d| d
            .candidates
            .iter()
            .any(|c| c.source == NoiseSource::Predicted)));
    }

    #[test]
    fn static_policy_records_no_calib_decisions_but_still_tracks() {
        let router = FleetRouter::new(
            config(),
            vec![
                sim_device(presets::quito()),
                sim_device(presets::santiago()),
            ],
        )
        .unwrap();
        for k in 0..12 {
            let t = router.submit(job(k)).unwrap();
            router.wait(t).unwrap();
        }
        assert!(router.calib_trace().decisions.is_empty());
        let health = router.calibration_health();
        assert_eq!(health.applied, 12, "tracker observes under Static too");
        assert!(health.devices.iter().any(|d| d.observations > 0));
    }

    #[test]
    fn routes_every_job_to_the_lowest_noise_idle_device() {
        // santiago's static mean errors are strictly below quito's.
        let router = FleetRouter::new(
            config(),
            vec![
                sim_device(presets::quito()),
                sim_device(presets::santiago()),
            ],
        )
        .unwrap();
        let tickets: Vec<FleetTicket> = (0..6).map(|k| router.submit(job(k)).unwrap()).collect();
        for &t in &tickets {
            let outcome = router.wait(t).expect("delivered");
            assert!(outcome.result.is_ok());
            assert_eq!(outcome.device, presets::santiago().name());
            assert_eq!(outcome.attempts, 1);
            assert!(!outcome.hedged);
        }
        let trace = router.trace();
        assert_eq!(trace.jobs.len(), 6);
        for jt in &trace.jobs {
            assert_eq!(jt.winner, Some(0));
            assert_eq!(jt.attempts[0].kind, AttemptKind::Primary);
            assert_eq!(jt.attempts[0].disposition, Disposition::Won);
            assert_eq!(
                jt.seed,
                splitmix64(0xf1ee7 ^ splitmix64(jt.job)),
                "fleet seeds stay splitmix64(seed ^ splitmix64(job))"
            );
        }
        assert_eq!(router.stats().failovers, 0);
    }

    #[test]
    fn drift_aware_scoring_reroutes_as_the_preferred_device_degrades() {
        // santiago starts cleaner but degrades fast (linear gate-error
        // drift); quito is static. Routing scores evaluate the *drift
        // cursor* at each job index, so late jobs flip to quito without
        // a single failure being observed.
        let drift = FaultSpec {
            gate_drift_per_job: 0.9,
            ..FaultSpec::none()
        };
        let santiago = sim_device(presets::santiago()).with_faults(drift);
        let router =
            FleetRouter::new(config(), vec![santiago, sim_device(presets::quito())]).unwrap();
        let early = router.wait(router.submit(job(0)).unwrap()).unwrap();
        assert_eq!(early.device, presets::santiago().name());
        // By job 40 santiago's drifted estimate dwarfs quito's static one.
        for k in 1..40 {
            router.wait(router.submit(job(k)).unwrap()).unwrap();
        }
        let late = router.wait(router.submit(job(40)).unwrap()).unwrap();
        assert_eq!(late.device, presets::quito().name());
        assert_eq!(router.stats().failovers, 0, "rerouting, not failover");
    }

    #[test]
    fn failover_rescues_every_job_when_the_best_device_is_dead() {
        // santiago scores best but every job on it fails; the router must
        // deliver 100% Ok via quito with zero caller-visible refusals.
        let router = FleetRouter::new(
            config(),
            vec![
                dead_device(presets::santiago()),
                sim_device(presets::quito()),
            ],
        )
        .unwrap();
        let tickets: Vec<FleetTicket> = (0..10).map(|k| router.submit(job(k)).unwrap()).collect();
        for &t in &tickets {
            let outcome = router.wait(t).expect("delivered");
            assert!(outcome.result.is_ok(), "failover rescued job {t}");
            assert_eq!(outcome.device, presets::quito().name());
        }
        let stats = router.stats();
        assert_eq!(stats.completed, 10);
        assert!(stats.failovers >= 1);
        let trace = router.trace();
        // Job 0 ran before any health signal existed, so it must have
        // been attempted on santiago first and failed over live.
        assert!(trace.jobs[0].attempts.len() >= 2);
        for jt in &trace.jobs {
            let win = jt.winner.expect("winner recorded");
            assert_eq!(jt.attempts[win].device, presets::quito().name());
            assert_eq!(jt.attempts[win].disposition, Disposition::Won);
            for a in &jt.attempts {
                if a.device == presets::santiago().name() {
                    // Every santiago attempt either ran and failed or was
                    // fast-failed by its open breaker.
                    assert!(matches!(
                        a.disposition,
                        Disposition::Failed(_) | Disposition::FastFailed
                    ));
                }
            }
        }
    }

    #[test]
    fn all_devices_down_is_a_typed_refusal() {
        let cfg = FleetConfig {
            breaker: BreakerPolicy {
                window: 4,
                failure_threshold: 0.5,
                min_samples: 2,
                cooldown_jobs: 10_000,
                ..BreakerPolicy::default()
            },
            quarantine: QuarantinePolicy {
                trip_threshold: 1,
                probe_every: 1_000_000,
            },
            ..config()
        };
        let router = FleetRouter::new(
            cfg,
            vec![
                dead_device(presets::santiago()),
                dead_device(presets::quito()),
            ],
        )
        .unwrap();
        // Pump jobs until both breakers trip and both devices quarantine.
        let mut k = 0;
        while router.stats().quarantined < 2 {
            let t = router.submit(job(k)).expect("fleet not yet fully down");
            let outcome = router.wait(t).expect("delivered");
            assert!(outcome.result.is_err(), "both devices are dead");
            k += 1;
            assert!(k < 200, "quarantine must engage");
        }
        let err = router.submit(job(k)).expect_err("fleet is fully down");
        assert_eq!(err, FleetError::AllDevicesDown { devices: 2 });
        assert!(router.stats().refused_all_down >= 1);
    }

    #[test]
    fn hedged_duplicate_wins_against_a_slow_primary() {
        let cfg = FleetConfig {
            hedge: Some(HedgePolicy {
                percentile: 50.0,
                min_samples: 0,
                floor_ms: 20,
            }),
            ..config()
        };
        // santiago scores best but stalls 300ms per job; quito is fast.
        let router = FleetRouter::new(
            cfg,
            vec![
                slow_device(presets::santiago(), 300),
                sim_device(presets::quito()),
            ],
        )
        .unwrap();
        let t = router.submit(job(0)).unwrap();
        let outcome = router.wait(t).expect("delivered");
        assert!(outcome.result.is_ok());
        assert!(outcome.hedged);
        assert_eq!(outcome.device, presets::quito().name());
        let stats = router.stats();
        assert_eq!(stats.hedges, 1);
        assert_eq!(stats.hedge_wins, 1);
        let trace = router.trace();
        let jt = &trace.jobs[0];
        assert_eq!(jt.attempts.len(), 2);
        assert_eq!(jt.attempts[0].kind, AttemptKind::Primary);
        assert_eq!(jt.attempts[0].disposition, Disposition::Lost);
        assert_eq!(jt.attempts[1].kind, AttemptKind::Hedge);
        assert_eq!(jt.attempts[1].disposition, Disposition::Won);
        assert_eq!(jt.winner, Some(1));
        // The losing primary replays too — same seed, same device — but
        // the delivered outcome replays from the *winner*.
        let (result, _report) = replay_job(
            &[
                slow_device(presets::santiago(), 0),
                sim_device(presets::quito()),
            ],
            jt,
            &job(0),
            None,
        )
        .expect("winner is replayable");
        assert_eq!(result, outcome.result);
    }

    #[test]
    fn delivered_outcomes_replay_bitwise_from_their_trace() {
        let devices = vec![
            sim_device(presets::santiago()),
            dead_device(presets::quito()).named("quito-dead"),
        ];
        let router = FleetRouter::new(config(), devices.clone()).unwrap();
        let tickets: Vec<FleetTicket> = (0..8).map(|k| router.submit(job(k)).unwrap()).collect();
        let outcomes: Vec<FleetOutcome> = tickets
            .iter()
            .map(|&t| router.wait(t).expect("delivered"))
            .collect();
        let trace = router.trace();
        drop(router);
        for (jt, outcome) in trace.jobs.iter().zip(&outcomes) {
            let (result, report) =
                replay_job(&devices, jt, &job(jt.job as usize), None).expect("replayable");
            assert_eq!(result, outcome.result, "job {}", jt.job);
            assert_eq!(report, outcome.report, "job {}", jt.job);
        }
    }

    #[test]
    fn drain_delivers_queued_work_and_drop_discards_it() {
        let router = FleetRouter::new(config(), vec![sim_device(presets::santiago())]).unwrap();
        let tickets: Vec<FleetTicket> = (0..5).map(|k| router.submit(job(k)).unwrap()).collect();
        for &t in &tickets {
            assert!(router.wait(t).is_some());
        }
        let stats = router.drain();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);

        let router = FleetRouter::new(config(), vec![sim_device(presets::santiago())]).unwrap();
        let _t = router.submit(job(0)).unwrap();
        drop(router); // must not hang
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert_eq!(
            FleetRouter::new(config(), Vec::new()).err(),
            Some(FleetError::NoDevices)
        );
    }
}
