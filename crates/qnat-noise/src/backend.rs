//! Fallible quantum execution backends.
//!
//! Deployment treats a quantum processor as an unreliable remote service:
//! jobs can be rejected (bad circuit), fail transiently (calibration in
//! progress, queue hiccups), time out, or come back with a truncated shot
//! budget. [`QuantumBackend`] is the object-safe interface the resilient
//! executor in `qnat-core` drives; every implementation returns typed
//! [`BackendError`]s instead of panicking, and [`BackendError::is_retryable`]
//! tells the executor whether a retry can possibly help.
//!
//! Three backends mirror the paper's evaluation columns:
//! [`SimulatorBackend`] (ideal statevector), [`NoiseModelBackend`] (the
//! Pauli-twirled calibration model — Table 11's "noise model" column, and
//! the graceful-degradation fallback) and [`EmulatorBackend`] (the full
//! density-matrix hardware emulator standing in for the real QC).

use crate::device::DeviceModel;
use crate::emulator::HardwareEmulator;
use crate::trajectory::TrajectoryEmulator;
use qnat_sim::channel::InvalidChannelError;
use qnat_sim::circuit::Circuit;
use qnat_sim::measure::sampled_expect_all_z;
use qnat_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Window registers up to this size use the exact density-matrix emulator;
/// larger ones fall back to Monte-Carlo trajectories.
pub const DENSITY_MATRIX_LIMIT: usize = 7;

/// Default trajectory count for large-register emulation.
pub const DEFAULT_TRAJECTORIES: usize = 48;

/// Qubit registers beyond this are rejected by the statevector simulator
/// (2ⁿ amplitudes stop fitting in memory long before usize overflows).
pub const SIMULATOR_QUBIT_LIMIT: usize = 24;

/// Typed failure modes of quantum circuit execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The circuit needs more qubits than the backend provides.
    QubitCount {
        /// Qubits the circuit uses.
        needed: usize,
        /// Qubits the backend has.
        available: usize,
        /// Backend name for diagnostics.
        backend: String,
    },
    /// A two-qubit gate addresses a pair that is not coupled on the device
    /// (the circuit was not routed for this topology).
    UnmappedTwoQubitGate {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// A gate parameter is NaN or infinite.
    NonFiniteParameter {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// Parameter slot within the gate.
        slot: usize,
    },
    /// A requested shot budget of zero.
    ShotBudget {
        /// The (invalid) requested shot count.
        requested: usize,
    },
    /// The device model produced an invalid noise channel.
    InvalidChannel {
        /// Human-readable reason.
        reason: String,
    },
    /// Backend configuration error (e.g. zero trajectories).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The job failed transiently (calibration run, network blip); worth
    /// retrying.
    TransientFailure {
        /// Job index on the backend.
        job: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The job sat in the queue past its deadline; worth retrying.
    QueueTimeout {
        /// Job index on the backend.
        job: u64,
        /// Simulated time spent waiting, in milliseconds.
        waited_ms: u64,
    },
    /// The job's deadline budget ran out before the next retry backoff
    /// could be paid — the executor gave up within its wall-clock cap
    /// instead of blowing past it. Not retryable: the budget is gone.
    DeadlineExceeded {
        /// Job index on the executor when the budget ran out.
        job: u64,
        /// The backoff interval (ms) the budget could no longer cover.
        needed_ms: u64,
    },
    /// The fleet health layer short-circuited the job because the
    /// primary's circuit breaker is open and no fallback could serve it.
    CircuitOpen {
        /// Name of the backend whose breaker is open.
        backend: String,
    },
    /// The serving layer refused or evicted the job under load — queue
    /// admission shed it, or a newer submission displaced it under a
    /// shed-oldest backpressure policy. Not retryable as-is: the caller
    /// should back off and resubmit.
    Overloaded {
        /// Human-readable reason (which queue/lane and why).
        reason: String,
    },
}

impl BackendError {
    /// `true` for failures where a retry can possibly succeed (transient
    /// faults and timeouts); `false` for deterministic rejections such as
    /// validation errors, which would fail identically every attempt.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            BackendError::TransientFailure { .. } | BackendError::QueueTimeout { .. }
        )
    }

    /// Rebinds the job index carried by job-scoped variants; other
    /// variants pass through unchanged. The batch layer uses this to remap
    /// executor-local indices (always 0 — one executor per job) to
    /// batch-global ones, keeping surfaced errors attributable.
    #[must_use]
    pub fn with_job(self, job: u64) -> Self {
        match self {
            BackendError::TransientFailure { reason, .. } => {
                BackendError::TransientFailure { job, reason }
            }
            BackendError::QueueTimeout { waited_ms, .. } => {
                BackendError::QueueTimeout { job, waited_ms }
            }
            BackendError::DeadlineExceeded { needed_ms, .. } => {
                BackendError::DeadlineExceeded { job, needed_ms }
            }
            other => other,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::QubitCount {
                needed,
                available,
                backend,
            } => write!(
                f,
                "circuit needs {needed} qubits, backend {backend} has {available}"
            ),
            BackendError::UnmappedTwoQubitGate { gate_index, a, b } => write!(
                f,
                "gate {gate_index} acts on uncoupled pair ({a}, {b}); route the circuit first"
            ),
            BackendError::NonFiniteParameter { gate_index, slot } => {
                write!(f, "gate {gate_index} parameter {slot} is not finite")
            }
            BackendError::ShotBudget { requested } => {
                write!(f, "shot budget must be positive, got {requested}")
            }
            BackendError::InvalidChannel { reason } => {
                write!(f, "invalid noise channel: {reason}")
            }
            BackendError::InvalidConfig { reason } => {
                write!(f, "invalid backend configuration: {reason}")
            }
            BackendError::TransientFailure { job, reason } => {
                write!(f, "transient failure on job {job}: {reason}")
            }
            BackendError::QueueTimeout { job, waited_ms } => {
                write!(f, "job {job} timed out after {waited_ms} ms in queue")
            }
            BackendError::DeadlineExceeded { job, needed_ms } => {
                write!(
                    f,
                    "job {job} deadline exceeded: {needed_ms} ms backoff over budget"
                )
            }
            BackendError::CircuitOpen { backend } => {
                write!(f, "circuit breaker open for backend {backend}")
            }
            BackendError::Overloaded { reason } => {
                write!(f, "serving layer overloaded: {reason}")
            }
        }
    }
}

impl Error for BackendError {}

impl From<InvalidChannelError> for BackendError {
    fn from(e: InvalidChannelError) -> Self {
        BackendError::InvalidChannel {
            reason: e.to_string(),
        }
    }
}

/// Measurement outcomes of one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurements {
    /// Per-qubit Z expectations (readout error included where the backend
    /// models it).
    pub expectations: Vec<f64>,
    /// Shots actually executed — may be less than requested under
    /// shot-budget truncation. `None` means exact (infinite-shot)
    /// expectations.
    pub shots_used: Option<usize>,
}

/// Validates a circuit against a register size and (optionally) a coupling
/// map, returning the typed error the deployment pipeline surfaces.
///
/// # Errors
///
/// Returns [`BackendError::QubitCount`], [`BackendError::NonFiniteParameter`]
/// or [`BackendError::UnmappedTwoQubitGate`].
pub fn validate_circuit(
    circuit: &Circuit,
    n_qubits: usize,
    backend: &str,
    coupling: Option<&DeviceModel>,
) -> Result<(), BackendError> {
    if circuit.n_qubits() > n_qubits {
        return Err(BackendError::QubitCount {
            needed: circuit.n_qubits(),
            available: n_qubits,
            backend: backend.to_string(),
        });
    }
    for (gi, g) in circuit.gates().iter().enumerate() {
        for slot in 0..g.kind.param_count() {
            if !g.params[slot].is_finite() {
                return Err(BackendError::NonFiniteParameter {
                    gate_index: gi,
                    slot,
                });
            }
        }
        if let Some(model) = coupling {
            if g.arity() == 2 && !model.are_coupled(g.qubits[0], g.qubits[1]) {
                return Err(BackendError::UnmappedTwoQubitGate {
                    gate_index: gi,
                    a: g.qubits[0],
                    b: g.qubits[1],
                });
            }
        }
    }
    Ok(())
}

/// An unreliable quantum execution service (object-safe).
///
/// `execute` takes `&mut self` because physical backends hold sampling RNG
/// state and a job counter; determinism is per-backend-seed, not global.
///
/// The `Send` supertrait lets `Box<dyn QuantumBackend>` trait objects (and
/// the executors that own them) move into worker threads — the batch
/// executor in `qnat-core` fans jobs out across a `std::thread` pool.
pub trait QuantumBackend: Send {
    /// Backend name for reports and error messages.
    fn name(&self) -> &str;

    /// Register size the backend accepts.
    fn n_qubits(&self) -> usize;

    /// Checks a circuit without running it.
    ///
    /// # Errors
    ///
    /// Returns the typed validation errors of [`validate_circuit`].
    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        validate_circuit(circuit, self.n_qubits(), self.name(), None)
    }

    /// Runs a circuit and measures all qubits in the Z basis.
    /// `shots = None` requests exact expectations.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`]; check [`BackendError::is_retryable`]
    /// before giving up.
    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError>;

    /// Applies calibration-drift scale factors (gate errors, readout
    /// errors). Backends without a physical noise model ignore this.
    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        let _ = (gate_scale, readout_scale);
    }
}

fn check_shots(shots: Option<usize>) -> Result<(), BackendError> {
    match shots {
        Some(0) => Err(BackendError::ShotBudget { requested: 0 }),
        _ => Ok(()),
    }
}

/// Ideal statevector simulation — the "noise-free" column.
#[derive(Debug, Clone)]
pub struct SimulatorBackend {
    max_qubits: usize,
    rng: StdRng,
}

impl SimulatorBackend {
    /// Creates a simulator; `seed` drives finite-shot sampling.
    pub fn new(seed: u64) -> Self {
        SimulatorBackend {
            max_qubits: SIMULATOR_QUBIT_LIMIT,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl QuantumBackend for SimulatorBackend {
    fn name(&self) -> &str {
        "statevector-simulator"
    }

    fn n_qubits(&self) -> usize {
        self.max_qubits
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        self.validate(circuit)?;
        check_shots(shots)?;
        let mut psi = StateVector::zero_state(circuit.n_qubits());
        // `validate` already bounds the register, but route the simulator's
        // own mismatch check through the typed error path rather than a
        // panic — defense in depth for release builds.
        psi.try_run(circuit).map_err(|e| BackendError::QubitCount {
            needed: e.circuit_qubits,
            available: e.state_qubits,
            backend: self.name().to_string(),
        })?;
        let expectations = match shots {
            None => psi.expect_all_z(),
            Some(s) => {
                let probs = psi.probabilities();
                sampled_expect_all_z(&probs, circuit.n_qubits(), s, &mut self.rng)
            }
        };
        Ok(Measurements {
            expectations,
            shots_used: shots,
        })
    }
}

/// How a device model evaluates circuits: exact density matrices for
/// small windows, Monte-Carlo trajectories beyond
/// [`DENSITY_MATRIX_LIMIT`]. The engine behind both device-model backends
/// and the direct emulator deployment of `qnat-core`.
#[derive(Debug, Clone)]
pub enum ModelEngine {
    /// Exact density-matrix emulation.
    Density(HardwareEmulator),
    /// Monte-Carlo trajectory emulation.
    Trajectory(TrajectoryEmulator),
}

impl ModelEngine {
    /// The engine for `model`, picked by register size.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the trajectory emulator cannot be
    /// constructed.
    pub fn build(model: DeviceModel) -> Result<ModelEngine, BackendError> {
        if model.n_qubits() <= DENSITY_MATRIX_LIMIT {
            Ok(ModelEngine::Density(HardwareEmulator::new(model)))
        } else {
            Ok(ModelEngine::Trajectory(TrajectoryEmulator::new(
                model,
                DEFAULT_TRAJECTORIES,
            )?))
        }
    }

    /// Per-qubit `⟨Z⟩` of `circuit`: exact, or estimated from `shots`
    /// samples drawn from `rng` (trajectories draw from `rng` either way).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the circuit does not fit the model.
    pub fn run<R: Rng>(
        &self,
        circuit: &Circuit,
        shots: Option<usize>,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        match (self, shots) {
            (ModelEngine::Density(e), None) => e.expect_all_z(circuit),
            (ModelEngine::Density(e), Some(s)) => e.sampled_expect_all_z(circuit, s, rng),
            (ModelEngine::Trajectory(e), None) => e.expect_all_z(circuit, rng),
            (ModelEngine::Trajectory(e), Some(s)) => e.sampled_expect_all_z(circuit, s, rng),
        }
    }
}

/// Shared body of the two device-model backends.
#[derive(Debug, Clone)]
struct ModelBackend {
    name: String,
    base: DeviceModel,
    /// The (gate, readout) drift scales `engine` runs `base` at.
    drift: (f64, f64),
    engine: ModelEngine,
    rng: StdRng,
}

impl ModelBackend {
    fn new(name: String, model: DeviceModel, seed: u64) -> Result<Self, BackendError> {
        Ok(ModelBackend {
            name,
            engine: ModelEngine::build(model.clone())?,
            base: model,
            drift: (1.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        })
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        validate_circuit(circuit, self.base.n_qubits(), &self.name, Some(&self.base))?;
        check_shots(shots)?;
        let expectations = self.engine.run(circuit, shots, &mut self.rng)?;
        Ok(Measurements {
            expectations,
            shots_used: shots,
        })
    }

    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        if (gate_scale, readout_scale) == self.drift {
            return;
        }
        let one = |s: f64| (s - 1.0).abs() < 1e-12;
        let model = if one(gate_scale) && one(readout_scale) {
            self.base.clone()
        } else {
            self.base.drifted(gate_scale, readout_scale)
        };
        // A drifted copy of a valid model stays valid (scaling clamps), so
        // the rebuild cannot fail; keep the current engine if it somehow
        // does rather than panicking mid-deployment.
        if let Ok(engine) = ModelEngine::build(model) {
            self.engine = engine;
            self.drift = (gate_scale, readout_scale);
        }
    }
}

/// The Pauli-twirled calibration noise model — what training injects and
/// what deployment degrades to when hardware keeps failing (the paper's
/// Table 11 shows this tracks real hardware within a few accuracy points).
#[derive(Debug, Clone)]
pub struct NoiseModelBackend {
    inner: ModelBackend,
}

impl NoiseModelBackend {
    /// Builds the backend from a calibration model; damping channels are
    /// stripped ([`DeviceModel::pauli_only`]) because the published noise
    /// model does not capture them.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidConfig`] if the engine cannot be
    /// constructed.
    pub fn new(model: &DeviceModel, seed: u64) -> Result<Self, BackendError> {
        Ok(NoiseModelBackend {
            inner: ModelBackend::new(
                format!("noise-model({})", model.name()),
                model.pauli_only(),
                seed,
            )?,
        })
    }
}

impl QuantumBackend for NoiseModelBackend {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn n_qubits(&self) -> usize {
        self.inner.base.n_qubits()
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        validate_circuit(
            circuit,
            self.inner.base.n_qubits(),
            &self.inner.name,
            Some(&self.inner.base),
        )
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        self.inner.execute(circuit, shots)
    }

    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        self.inner.apply_drift(gate_scale, readout_scale);
    }
}

/// The full density-matrix hardware emulator (gate Pauli channels **plus**
/// amplitude/phase damping) — the "real QC" stand-in.
#[derive(Debug, Clone)]
pub struct EmulatorBackend {
    inner: ModelBackend,
}

impl EmulatorBackend {
    /// Builds the backend over a device model (typically the transpiler's
    /// windowed `device_view`).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidConfig`] if the engine cannot be
    /// constructed.
    pub fn new(model: &DeviceModel, seed: u64) -> Result<Self, BackendError> {
        Ok(EmulatorBackend {
            inner: ModelBackend::new(format!("emulator({})", model.name()), model.clone(), seed)?,
        })
    }
}

impl QuantumBackend for EmulatorBackend {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn n_qubits(&self) -> usize {
        self.inner.base.n_qubits()
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        validate_circuit(
            circuit,
            self.inner.base.n_qubits(),
            &self.inner.name,
            Some(&self.inner.base),
        )
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        self.inner.execute(circuit, shots)
    }

    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        self.inner.apply_drift(gate_scale, readout_scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use qnat_sim::gate::Gate;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn simulator_backend_matches_statevector() {
        let mut b = SimulatorBackend::new(0);
        let m = b.execute(&bell(), None).unwrap();
        assert!(m.expectations.iter().all(|z| z.abs() < 1e-10));
        assert_eq!(m.shots_used, None);
    }

    #[test]
    fn oversized_circuit_is_typed_error() {
        let mut b = EmulatorBackend::new(&presets::santiago(), 0).unwrap();
        let err = b.execute(&Circuit::new(6), None).unwrap_err();
        assert!(matches!(err, BackendError::QubitCount { needed: 6, .. }));
        assert!(!err.is_retryable());
    }

    #[test]
    fn non_finite_parameter_is_typed_error() {
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, f64::NAN));
        let mut b = SimulatorBackend::new(0);
        let err = b.execute(&c, None).unwrap_err();
        assert!(matches!(
            err,
            BackendError::NonFiniteParameter {
                gate_index: 0,
                slot: 0
            }
        ));
    }

    #[test]
    fn unrouted_two_qubit_gate_is_typed_error() {
        // Santiago is a 5-qubit line: (0,2) is not an edge.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(0, 2));
        let mut b = EmulatorBackend::new(&presets::santiago(), 0).unwrap();
        let err = b.execute(&c, None).unwrap_err();
        assert!(matches!(
            err,
            BackendError::UnmappedTwoQubitGate { a: 0, b: 2, .. }
        ));
    }

    #[test]
    fn zero_shots_rejected() {
        let mut b = SimulatorBackend::new(0);
        let err = b.execute(&bell(), Some(0)).unwrap_err();
        assert_eq!(err, BackendError::ShotBudget { requested: 0 });
    }

    #[test]
    fn noise_model_backend_contracts_expectations() {
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..20 {
            c.push(Gate::sx(0));
        }
        let mut ideal = SimulatorBackend::new(0);
        let mut noisy = NoiseModelBackend::new(&presets::yorktown(), 0).unwrap();
        let zi = ideal.execute(&c, None).unwrap().expectations[0];
        let zn = noisy.execute(&c, None).unwrap().expectations[0];
        assert!(zn.abs() < zi.abs(), "noise contracts |Z|: {zn} vs {zi}");
    }

    #[test]
    fn emulator_noisier_than_noise_model() {
        // The full emulator adds damping on top of the Pauli channels, so
        // its expectations sit at least as far from ideal.
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..40 {
            c.push(Gate::sx(0));
        }
        let model = presets::melbourne().subdevice(&[0]).unwrap();
        let mut nm = NoiseModelBackend::new(&model, 0).unwrap();
        let mut emu = EmulatorBackend::new(&model, 0).unwrap();
        let z_nm = nm.execute(&c, None).unwrap().expectations[0];
        let z_emu = emu.execute(&c, None).unwrap().expectations[0];
        let ideal = -1.0; // X then even number of SX
        assert!((z_emu - ideal).abs() >= (z_nm - ideal).abs() - 1e-12);
    }

    #[test]
    fn drift_increases_noise() {
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..20 {
            c.push(Gate::sx(0));
        }
        let model = presets::santiago().subdevice(&[0]).unwrap();
        let mut b = EmulatorBackend::new(&model, 0).unwrap();
        let z0 = b.execute(&c, None).unwrap().expectations[0];
        b.apply_drift(4.0, 4.0);
        let z1 = b.execute(&c, None).unwrap().expectations[0];
        assert!(z1.abs() < z0.abs(), "drifted run noisier: {z1} vs {z0}");
    }

    #[test]
    fn drift_reset_restores_the_base_model() {
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..20 {
            c.push(Gate::sx(0));
        }
        let model = presets::santiago().subdevice(&[0]).unwrap();
        let mut b = EmulatorBackend::new(&model, 0).unwrap();
        let z0 = b.execute(&c, None).unwrap().expectations[0];
        b.apply_drift(4.0, 4.0);
        let z1 = b.execute(&c, None).unwrap().expectations[0];
        b.apply_drift(4.0, 4.0);
        assert_eq!(b.execute(&c, None).unwrap().expectations[0], z1);
        b.apply_drift(1.0, 1.0);
        let z2 = b.execute(&c, None).unwrap().expectations[0];
        assert_eq!(z2, z0, "reset to (1, 1) must undo the drift (drifted {z1})");
    }

    #[test]
    fn finite_shots_reported_and_noisy() {
        let mut b = SimulatorBackend::new(7);
        let exact = b.execute(&bell(), None).unwrap();
        let sampled = b.execute(&bell(), Some(128)).unwrap();
        assert_eq!(sampled.shots_used, Some(128));
        assert!(sampled
            .expectations
            .iter()
            .zip(&exact.expectations)
            .any(|(s, e)| (s - e).abs() > 1e-6));
    }

    #[test]
    fn backend_trait_is_object_safe() {
        let model = presets::santiago();
        let mut backends: Vec<Box<dyn QuantumBackend>> = vec![
            Box::new(SimulatorBackend::new(0)),
            Box::new(NoiseModelBackend::new(&model, 0).unwrap()),
            Box::new(EmulatorBackend::new(&model, 0).unwrap()),
        ];
        for b in &mut backends {
            let m = b.execute(&bell(), None).unwrap();
            assert_eq!(m.expectations.len(), 2, "{}", b.name());
        }
    }
}
