//! Device noise models.
//!
//! A [`DeviceModel`] plays the role of the calibration noise model that IBMQ
//! publishes for each machine: per-qubit Pauli-twirled error distributions
//! for single-qubit gates, per-edge distributions for two-qubit gates,
//! per-qubit readout confusion matrices, plus amplitude/phase damping rates
//! that feed the density-matrix hardware emulator. Models serialize to JSON
//! (mirroring how Qiskit ships noise models) via the in-tree `qnat-json`
//! crate.

use crate::error_spec::{InvalidProbabilityError, PauliErrorSpec};
use crate::readout::{InvalidReadoutError, ReadoutError};
use qnat_json::Json;
use qnat_sim::gate::{Gate, GateKind};
use std::error::Error;
use std::fmt;

/// Error returned when a device model is internally inconsistent.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDeviceError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid device model: {}", self.reason)
    }
}

impl Error for InvalidDeviceError {}

impl From<InvalidProbabilityError> for InvalidDeviceError {
    fn from(e: InvalidProbabilityError) -> Self {
        InvalidDeviceError {
            reason: e.to_string(),
        }
    }
}

impl From<InvalidReadoutError> for InvalidDeviceError {
    fn from(e: InvalidReadoutError) -> Self {
        InvalidDeviceError {
            reason: e.to_string(),
        }
    }
}

/// Error specification for one coupling-map edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeError {
    /// First qubit of the (undirected) edge.
    pub a: usize,
    /// Second qubit.
    pub b: usize,
    /// Pauli error distribution applied to *each* qubit after a two-qubit
    /// gate on this edge.
    pub spec: PauliErrorSpec,
}

/// The Pauli error events of one gate, as returned by
/// [`DeviceModel::gate_errors`]: at most two `(qubit, spec)` pairs held
/// inline. Iterating yields the events in order; dereferencing gives the
/// events not yet iterated as a slice (`len`, `is_empty`, `iter`,
/// indexing).
#[derive(Debug, Clone, Copy)]
pub struct GateErrors {
    events: [(usize, PauliErrorSpec); 2],
    next: usize,
    end: usize,
}

impl GateErrors {
    fn new(events: [(usize, PauliErrorSpec); 2], end: usize) -> GateErrors {
        GateErrors {
            events,
            next: 0,
            end,
        }
    }
}

impl Iterator for GateErrors {
    type Item = (usize, PauliErrorSpec);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.end {
            return None;
        }
        self.next += 1;
        Some(self.events[self.next - 1])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }
}

impl std::ops::Deref for GateErrors {
    type Target = [(usize, PauliErrorSpec)];

    fn deref(&self) -> &Self::Target {
        &self.events[self.next..self.end]
    }
}

/// A hardware noise model: topology, gate errors, readout errors and
/// decoherence rates.
///
/// # Examples
///
/// ```
/// use qnat_noise::presets;
/// let dev = presets::santiago();
/// assert_eq!(dev.n_qubits(), 5);
/// assert!(dev.mean_single_qubit_error() < presets::yorktown().mean_single_qubit_error());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    name: String,
    n_qubits: usize,
    quantum_volume: u32,
    coupling: Vec<(usize, usize)>,
    sq_errors: Vec<PauliErrorSpec>,
    tq_errors: Vec<EdgeError>,
    readout: Vec<ReadoutError>,
    /// Amplitude-damping probability per single-qubit gate (T1 decay over
    /// one gate duration).
    amp_damping: Vec<f64>,
    /// Phase-damping probability per single-qubit gate (pure dephasing).
    phase_damping: Vec<f64>,
    /// Two-qubit gates take this many single-qubit gate durations (their
    /// damping is scaled accordingly).
    tq_duration_factor: f64,
}

impl DeviceModel {
    /// Starts building a device model.
    pub fn builder(name: impl Into<String>, n_qubits: usize) -> DeviceModelBuilder {
        DeviceModelBuilder {
            name: name.into(),
            n_qubits,
            quantum_volume: 8,
            coupling: Vec::new(),
            sq_errors: vec![PauliErrorSpec::zero(); n_qubits],
            tq_errors: Vec::new(),
            readout: vec![ReadoutError::ideal(); n_qubits],
            amp_damping: vec![0.0; n_qubits],
            phase_damping: vec![0.0; n_qubits],
            tq_duration_factor: 8.0,
        }
    }

    /// Device name (e.g. `"ibmq-santiago"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Advertised Quantum Volume.
    pub fn quantum_volume(&self) -> u32 {
        self.quantum_volume
    }

    /// Undirected coupling-map edges.
    pub fn coupling(&self) -> &[(usize, usize)] {
        &self.coupling
    }

    /// `true` if qubits `a` and `b` are directly coupled.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.coupling
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (y, x) == (a, b))
    }

    /// Single-qubit gate error spec for qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn single_qubit_error(&self, q: usize) -> PauliErrorSpec {
        self.sq_errors[q]
    }

    /// Two-qubit gate error spec for the edge `(a, b)`; if the pair is not
    /// in the coupling map the worst edge spec is returned (an uncompiled
    /// long-range gate can only be worse than any native one).
    pub fn two_qubit_error(&self, a: usize, b: usize) -> PauliErrorSpec {
        self.tq_errors
            .iter()
            .find(|e| (e.a, e.b) == (a, b) || (e.b, e.a) == (a, b))
            .map(|e| e.spec)
            .unwrap_or_else(|| {
                self.tq_errors
                    .iter()
                    .map(|e| e.spec)
                    .max_by(|x, y| x.total().total_cmp(&y.total()))
                    .unwrap_or_else(PauliErrorSpec::zero)
            })
    }

    /// Readout error for qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn readout_error(&self, q: usize) -> ReadoutError {
        self.readout[q]
    }

    /// Every qubit's readout confusion matrix in qubit order — the
    /// shape `MitigatedJob::with_readout` (readout-inversion sweeps)
    /// consumes.
    pub fn confusions(&self) -> Vec<qnat_sim::measure::Confusion> {
        self.readout.iter().map(|r| *r.matrix()).collect()
    }

    /// Amplitude-damping probability per single-qubit gate on qubit `q`.
    pub fn amp_damping(&self, q: usize) -> f64 {
        self.amp_damping[q]
    }

    /// Phase-damping probability per single-qubit gate on qubit `q`.
    pub fn phase_damping(&self, q: usize) -> f64 {
        self.phase_damping[q]
    }

    /// Duration of a two-qubit gate in units of single-qubit gates.
    pub fn tq_duration_factor(&self) -> f64 {
        self.tq_duration_factor
    }

    /// `true` when the gate is virtual on hardware (frame change), i.e.
    /// carries no gate error: RZ/P/identity.
    pub fn is_virtual(kind: GateKind) -> bool {
        matches!(kind, GateKind::Rz | GateKind::P | GateKind::Id)
    }

    /// The Pauli error events a gate produces: `(qubit, spec)` pairs.
    /// Virtual gates produce none; a two-qubit gate errs on both qubits
    /// with the edge spec. Reads only the gate's kind and qubits, never
    /// its angles, and allocates nothing.
    pub fn gate_errors(&self, gate: &Gate) -> GateErrors {
        let [a, b] = gate.qubits;
        if gate.arity() == 1 {
            if Self::is_virtual(gate.kind) {
                GateErrors::new([(a, PauliErrorSpec::zero()); 2], 0)
            } else {
                GateErrors::new([(a, self.sq_errors[a]); 2], 1)
            }
        } else {
            let spec = self.two_qubit_error(a, b);
            GateErrors::new([(a, spec), (b, spec)], 2)
        }
    }

    /// Mean total single-qubit gate error over all qubits.
    pub fn mean_single_qubit_error(&self) -> f64 {
        self.sq_errors.iter().map(|e| e.total()).sum::<f64>() / self.n_qubits as f64
    }

    /// Mean total two-qubit gate error over all edges.
    pub fn mean_two_qubit_error(&self) -> f64 {
        if self.tq_errors.is_empty() {
            return 0.0;
        }
        self.tq_errors.iter().map(|e| e.spec.total()).sum::<f64>() / self.tq_errors.len() as f64
    }

    /// Mean readout flip probability over all qubits.
    pub fn mean_readout_error(&self) -> f64 {
        self.readout
            .iter()
            .map(|r| (r.matrix()[0][1] + r.matrix()[1][0]) / 2.0)
            .sum::<f64>()
            / self.n_qubits as f64
    }

    /// A copy of this model with every error source scaled by the noise
    /// factor `t` (used for noise-factor sweeps and zero-noise
    /// extrapolation).
    pub fn scaled(&self, t: f64) -> DeviceModel {
        DeviceModel {
            name: format!("{}@T={t}", self.name),
            sq_errors: self.sq_errors.iter().map(|e| e.scaled(t)).collect(),
            tq_errors: self
                .tq_errors
                .iter()
                .map(|e| EdgeError {
                    spec: e.spec.scaled(t),
                    ..*e
                })
                .collect(),
            readout: self.readout.iter().map(|r| r.scaled(t)).collect(),
            amp_damping: self
                .amp_damping
                .iter()
                .map(|&d| (d * t).clamp(0.0, 1.0))
                .collect(),
            phase_damping: self
                .phase_damping
                .iter()
                .map(|&d| (d * t).clamp(0.0, 1.0))
                .collect(),
            ..self.clone()
        }
    }

    /// A copy of this model with gate/decoherence errors scaled by
    /// `gate_t` and readout errors scaled by `readout_t` independently —
    /// models calibration drift, where readout assignment error and gate
    /// fidelity degrade at different rates between calibrations.
    pub fn drifted(&self, gate_t: f64, readout_t: f64) -> DeviceModel {
        DeviceModel {
            name: self.name.clone(),
            sq_errors: self.sq_errors.iter().map(|e| e.scaled(gate_t)).collect(),
            tq_errors: self
                .tq_errors
                .iter()
                .map(|e| EdgeError {
                    spec: e.spec.scaled(gate_t),
                    ..*e
                })
                .collect(),
            readout: self.readout.iter().map(|r| r.scaled(readout_t)).collect(),
            amp_damping: self
                .amp_damping
                .iter()
                .map(|&d| (d * gate_t).clamp(0.0, 1.0))
                .collect(),
            phase_damping: self
                .phase_damping
                .iter()
                .map(|&d| (d * gate_t).clamp(0.0, 1.0))
                .collect(),
            ..self.clone()
        }
    }

    /// A copy of this model with amplitude/phase damping removed — the
    /// *Pauli-twirled approximation* a calibration noise model captures.
    /// Evaluating on this vs the full model measures the model/reality gap
    /// (paper Table 11).
    pub fn pauli_only(&self) -> DeviceModel {
        DeviceModel {
            name: format!("{}(pauli-only)", self.name),
            amp_damping: vec![0.0; self.n_qubits],
            phase_damping: vec![0.0; self.n_qubits],
            ..self.clone()
        }
    }

    /// Extracts the sub-device over the given physical qubits, relabeled to
    /// `0..physical.len()` in the given order. Edges whose endpoints both
    /// lie in the window are kept. Used by the transpiler so a small circuit
    /// mapped onto a big chip can be emulated without simulating idle
    /// qubits.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if a physical index is out of range or
    /// repeated.
    pub fn subdevice(&self, physical: &[usize]) -> Result<DeviceModel, InvalidDeviceError> {
        let mut seen = vec![false; self.n_qubits];
        for &p in physical {
            if p >= self.n_qubits {
                return Err(InvalidDeviceError {
                    reason: format!("physical qubit {p} out of range"),
                });
            }
            if seen[p] {
                return Err(InvalidDeviceError {
                    reason: format!("physical qubit {p} repeated"),
                });
            }
            seen[p] = true;
        }
        let relabel = |p: usize| physical.iter().position(|&x| x == p);
        let mut coupling = Vec::new();
        let mut tq_errors = Vec::new();
        for e in &self.tq_errors {
            if let (Some(a), Some(b)) = (relabel(e.a), relabel(e.b)) {
                coupling.push((a, b));
                tq_errors.push(EdgeError { a, b, spec: e.spec });
            }
        }
        let model = DeviceModel {
            name: format!("{}[{physical:?}]", self.name),
            n_qubits: physical.len(),
            quantum_volume: self.quantum_volume,
            coupling,
            sq_errors: physical.iter().map(|&p| self.sq_errors[p]).collect(),
            tq_errors,
            readout: physical.iter().map(|&p| self.readout[p]).collect(),
            amp_damping: physical.iter().map(|&p| self.amp_damping[p]).collect(),
            phase_damping: physical.iter().map(|&p| self.phase_damping[p]).collect(),
            tq_duration_factor: self.tq_duration_factor,
        };
        model.validate()?;
        Ok(model)
    }

    /// Serializes the model to JSON (the same role as Qiskit's noise-model
    /// download).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("n_qubits", Json::Num(self.n_qubits as f64)),
            ("quantum_volume", Json::Num(f64::from(self.quantum_volume))),
            (
                "coupling",
                Json::Arr(
                    self.coupling
                        .iter()
                        .map(|&(a, b)| Json::nums([a as f64, b as f64]))
                        .collect(),
                ),
            ),
            (
                "sq_errors",
                Json::Arr(self.sq_errors.iter().map(|e| e.to_json_value()).collect()),
            ),
            (
                "tq_errors",
                Json::Arr(
                    self.tq_errors
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("a", Json::Num(e.a as f64)),
                                ("b", Json::Num(e.b as f64)),
                                ("spec", e.spec.to_json_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "readout",
                Json::Arr(self.readout.iter().map(|r| r.to_json_value()).collect()),
            ),
            ("amp_damping", Json::nums(self.amp_damping.iter().copied())),
            (
                "phase_damping",
                Json::nums(self.phase_damping.iter().copied()),
            ),
            ("tq_duration_factor", Json::Num(self.tq_duration_factor)),
        ])
        .to_json_pretty()
    }

    /// A 64-bit fingerprint of the full calibration state: FNV-1a over
    /// the canonical JSON serialization, so *any* observable change —
    /// name, coupling map, per-qubit error rates, damping, readout,
    /// calibration drift or a recalibration step — produces a new value.
    ///
    /// The compiled-circuit cache in `qnat-core` keys on this: a plan
    /// compiled against a drifted or recalibrated model (whose
    /// noise-adaptive layout may differ at transpile level 3) can never be
    /// served for the updated device.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for byte in self.to_json().as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Parses a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the JSON is malformed or the model
    /// fails validation.
    pub fn from_json(json: &str) -> Result<DeviceModel, InvalidDeviceError> {
        let bad = |reason: String| InvalidDeviceError { reason };
        let v = Json::parse(json).map_err(|e| bad(format!("JSON parse error: {e}")))?;
        let usize_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| bad(format!("missing or invalid field '{k}'")))
        };
        let arr_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("missing or invalid array '{k}'")))
        };
        let f64_list = |k: &str| -> Result<Vec<f64>, InvalidDeviceError> {
            arr_field(k)?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| bad(format!("non-numeric entry in '{k}'")))
                })
                .collect()
        };
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing or invalid field 'name'".into()))?
            .to_string();
        let mut coupling = Vec::new();
        for pair in arr_field("coupling")? {
            match pair.as_array() {
                Some([a, b]) => match (a.as_usize(), b.as_usize()) {
                    (Some(a), Some(b)) => coupling.push((a, b)),
                    _ => return Err(bad("non-integer coupling endpoint".into())),
                },
                _ => return Err(bad("coupling entry is not a pair".into())),
            }
        }
        let sq_errors = arr_field("sq_errors")?
            .iter()
            .map(PauliErrorSpec::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let mut tq_errors = Vec::new();
        for e in arr_field("tq_errors")? {
            let endpoint = |k: &str| {
                e.get(k)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| bad(format!("missing edge endpoint '{k}'")))
            };
            let spec = e
                .get("spec")
                .ok_or_else(|| bad("missing edge 'spec'".into()))?;
            tq_errors.push(EdgeError {
                a: endpoint("a")?,
                b: endpoint("b")?,
                spec: PauliErrorSpec::from_json_value(spec)?,
            });
        }
        let readout = arr_field("readout")?
            .iter()
            .map(ReadoutError::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        let model = DeviceModel {
            name,
            n_qubits: usize_field("n_qubits")?,
            quantum_volume: u32::try_from(usize_field("quantum_volume")?)
                .map_err(|_| bad("quantum_volume out of range".into()))?,
            coupling,
            sq_errors,
            tq_errors,
            readout,
            amp_damping: f64_list("amp_damping")?,
            phase_damping: f64_list("phase_damping")?,
            tq_duration_factor: v
                .get("tq_duration_factor")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("missing 'tq_duration_factor'".into()))?,
        };
        model.validate()?;
        Ok(model)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] when vector lengths disagree with
    /// `n_qubits`, edges reference out-of-range qubits, or probabilities are
    /// invalid.
    pub fn validate(&self) -> Result<(), InvalidDeviceError> {
        let n = self.n_qubits;
        if self.sq_errors.len() != n
            || self.readout.len() != n
            || self.amp_damping.len() != n
            || self.phase_damping.len() != n
        {
            return Err(InvalidDeviceError {
                reason: "per-qubit vector length mismatch".into(),
            });
        }
        for e in &self.sq_errors {
            e.validate()?;
        }
        for e in &self.tq_errors {
            if e.a >= n || e.b >= n || e.a == e.b {
                return Err(InvalidDeviceError {
                    reason: format!("edge ({}, {}) out of range", e.a, e.b),
                });
            }
            e.spec.validate()?;
        }
        for &(a, b) in &self.coupling {
            if a >= n || b >= n || a == b {
                return Err(InvalidDeviceError {
                    reason: format!("coupling ({a}, {b}) out of range"),
                });
            }
        }
        for (q, &d) in self.amp_damping.iter().enumerate() {
            if !(0.0..=1.0).contains(&d) {
                return Err(InvalidDeviceError {
                    reason: format!("amp damping {d} on qubit {q} out of [0,1]"),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}q, QV{}): 1q err {:.2e}, 2q err {:.2e}, readout {:.2e}",
            self.name,
            self.n_qubits,
            self.quantum_volume,
            self.mean_single_qubit_error(),
            self.mean_two_qubit_error(),
            self.mean_readout_error()
        )
    }
}

/// Builder for [`DeviceModel`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct DeviceModelBuilder {
    name: String,
    n_qubits: usize,
    quantum_volume: u32,
    coupling: Vec<(usize, usize)>,
    sq_errors: Vec<PauliErrorSpec>,
    tq_errors: Vec<EdgeError>,
    readout: Vec<ReadoutError>,
    amp_damping: Vec<f64>,
    phase_damping: Vec<f64>,
    tq_duration_factor: f64,
}

impl DeviceModelBuilder {
    /// Sets the Quantum Volume tag.
    pub fn quantum_volume(mut self, qv: u32) -> Self {
        self.quantum_volume = qv;
        self
    }

    /// Adds an undirected coupling edge with its two-qubit error spec.
    pub fn edge(mut self, a: usize, b: usize, spec: PauliErrorSpec) -> Self {
        self.coupling.push((a, b));
        self.tq_errors.push(EdgeError { a, b, spec });
        self
    }

    /// Sets the single-qubit error spec of qubit `q`.
    pub fn single_qubit_error(mut self, q: usize, spec: PauliErrorSpec) -> Self {
        self.sq_errors[q] = spec;
        self
    }

    /// Sets the readout error of qubit `q`.
    pub fn readout(mut self, q: usize, r: ReadoutError) -> Self {
        self.readout[q] = r;
        self
    }

    /// Sets both damping rates of qubit `q` (per single-qubit gate).
    pub fn damping(mut self, q: usize, amp: f64, phase: f64) -> Self {
        self.amp_damping[q] = amp;
        self.phase_damping[q] = phase;
        self
    }

    /// Sets the relative duration of two-qubit gates.
    pub fn tq_duration_factor(mut self, f: f64) -> Self {
        self.tq_duration_factor = f;
        self
    }

    /// Finalizes and validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the model is inconsistent.
    pub fn build(self) -> Result<DeviceModel, InvalidDeviceError> {
        let model = DeviceModel {
            name: self.name,
            n_qubits: self.n_qubits,
            quantum_volume: self.quantum_volume,
            coupling: self.coupling,
            sq_errors: self.sq_errors,
            tq_errors: self.tq_errors,
            readout: self.readout,
            amp_damping: self.amp_damping,
            phase_damping: self.phase_damping,
            tq_duration_factor: self.tq_duration_factor,
        };
        model.validate()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_calibration_state() {
        let d = toy_device();
        assert_eq!(d.fingerprint(), d.fingerprint());
        assert_eq!(d.fingerprint(), d.clone().fingerprint());
        // Drift and noise scaling both change the fingerprint, so cached
        // compilation plans cannot survive a calibration change.
        assert_ne!(d.fingerprint(), d.drifted(1.5, 1.0).fingerprint());
        assert_ne!(d.fingerprint(), d.scaled(2.0).fingerprint());
    }

    fn toy_device() -> DeviceModel {
        DeviceModel::builder("toy", 3)
            .quantum_volume(16)
            .edge(0, 1, PauliErrorSpec::symmetric(0.01).unwrap())
            .edge(1, 2, PauliErrorSpec::symmetric(0.02).unwrap())
            .single_qubit_error(0, PauliErrorSpec::symmetric(0.001).unwrap())
            .single_qubit_error(1, PauliErrorSpec::symmetric(0.002).unwrap())
            .single_qubit_error(2, PauliErrorSpec::symmetric(0.003).unwrap())
            .readout(0, ReadoutError::asymmetric(0.01, 0.02).unwrap())
            .damping(0, 1e-4, 2e-4)
            .build()
            .unwrap()
    }

    #[test]
    fn confusions_walk_every_qubit_in_order() {
        let d = toy_device();
        let confusions = d.confusions();
        assert_eq!(confusions.len(), 3);
        assert_eq!(
            confusions[0],
            *ReadoutError::asymmetric(0.01, 0.02).unwrap().matrix()
        );
        assert_eq!(confusions[1], *ReadoutError::ideal().matrix());
    }

    #[test]
    fn builder_produces_valid_model() {
        let d = toy_device();
        assert_eq!(d.n_qubits(), 3);
        assert!(d.are_coupled(0, 1));
        assert!(d.are_coupled(1, 0));
        assert!(!d.are_coupled(0, 2));
        assert!((d.mean_single_qubit_error() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn gate_errors_respect_virtual_gates() {
        let d = toy_device();
        assert!(d.gate_errors(&Gate::rz(0, 0.5)).is_empty());
        assert!(d.gate_errors(&Gate::id(1)).is_empty());
        assert_eq!(d.gate_errors(&Gate::sx(1)).len(), 1);
        let cx_err = d.gate_errors(&Gate::cx(0, 1));
        assert_eq!(cx_err.len(), 2);
        assert!((cx_err[0].1.total() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn gate_errors_iterate_in_order_and_shrink_the_slice() {
        let d = toy_device();
        let mut events = d.gate_errors(&Gate::cx(1, 0));
        assert_eq!(events.size_hint(), (2, Some(2)));
        assert_eq!(events.next().map(|(q, _)| q), Some(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 0);
        assert_eq!(events.next().map(|(q, _)| q), Some(0));
        assert!(events.is_empty());
        assert_eq!(events.next(), None);
        assert_eq!(d.gate_errors(&Gate::rz(2, 0.1)).count(), 0);
    }

    #[test]
    fn uncoupled_pair_falls_back_to_worst_edge() {
        let d = toy_device();
        let e = d.two_qubit_error(0, 2);
        assert!((e.total() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn scaled_model_scales_all_sources() {
        let d = toy_device();
        let half = d.scaled(0.5);
        assert!((half.single_qubit_error(1).total() - 0.001).abs() < 1e-12);
        assert!((half.two_qubit_error(0, 1).total() - 0.005).abs() < 1e-12);
        assert!((half.readout_error(0).matrix()[0][1] - 0.005).abs() < 1e-12);
        assert!((half.amp_damping(0) - 5e-5).abs() < 1e-15);
    }

    #[test]
    fn json_round_trip() {
        let d = toy_device();
        let js = d.to_json();
        let back = DeviceModel::from_json(&js).unwrap();
        assert_eq!(d, back);
        assert!(DeviceModel::from_json("{not json").is_err());
    }

    #[test]
    fn validation_catches_bad_edges() {
        let r = DeviceModel::builder("bad", 2)
            .edge(0, 5, PauliErrorSpec::zero())
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn subdevice_relabels_and_filters() {
        let d = toy_device();
        let s = d.subdevice(&[1, 2]).unwrap();
        assert_eq!(s.n_qubits(), 2);
        // Edge (1,2) survives as (0,1) with its 0.02 spec.
        assert!(s.are_coupled(0, 1));
        assert!((s.two_qubit_error(0, 1).total() - 0.02).abs() < 1e-12);
        assert!((s.single_qubit_error(0).total() - 0.002).abs() < 1e-12);
        assert!(d.subdevice(&[0, 0]).is_err());
        assert!(d.subdevice(&[9]).is_err());
    }

    #[test]
    fn display_mentions_name_and_stats() {
        let s = toy_device().to_string();
        assert!(s.contains("toy"));
        assert!(s.contains("QV16"));
    }
}
