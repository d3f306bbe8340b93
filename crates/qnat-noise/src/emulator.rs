//! Density-matrix hardware emulator — the "real quantum computer" stand-in.
//!
//! Runs a circuit exactly on the density-matrix simulator while applying,
//! after every physical gate, the device's Pauli error channel *and*
//! amplitude/phase damping (which the Pauli-twirled training model does not
//! capture — this is precisely the model/reality gap Table 11 measures).
//! Measurement applies the per-qubit readout confusion and optionally
//! finite-shot sampling.
//!
//! ## Channels compiled once per device
//!
//! A gate's noise depends only on its kind and qubits, never its angles,
//! so an emulator builds every channel it can apply once, when it is
//! built: a `NoiseTable` holds one entry per qubit (its one-qubit Pauli
//! channel, and its damping after a one- and after a two-qubit gate) and
//! one per two-qubit error spec of the device (each coupled pair's, plus
//! the worst-edge spec an uncoupled pair falls back to). A run looks its
//! channels up instead of rebuilding them after every gate. A drifted
//! device is a new model, so [`ModelEngine::build`](crate::backend::ModelEngine::build)
//! builds a new emulator, and table, for it.
//!
//! Each channel is applied in one pass per nonzero Kraus operator (every
//! operator is a monomial; see [`qnat_sim::channel`]), into one scratch
//! buffer that lives for the run. The pass gives every nonzero amplitude
//! the bits the dense Kraus loop gave it; only the sign of an exact zero
//! can differ, and neither `⟨Z⟩`, the probabilities nor sampled counts
//! can see it (see [`qnat_sim::density`]).
//!
//! All entry points are fallible: an oversized circuit or an invalid
//! channel spec surfaces as a typed [`BackendError`] instead of a panic, so
//! the deployment pipeline can report and recover. A channel the model
//! cannot yield is kept in the table as its error and returned by the
//! first run whose gate needs it, as if it had been built then.

use crate::backend::BackendError;
use crate::device::DeviceModel;
use crate::error_spec::PauliErrorSpec;
use qnat_sim::channel::{Channel1, InvalidChannelError};
use qnat_sim::circuit::Circuit;
use qnat_sim::density::DensityMatrix;
use qnat_sim::gate::Gate;
use qnat_sim::measure::sampled_expect_all_z;
use rand::Rng;

/// A channel (or list of channels) built from the model, or the reason
/// the model cannot yield it.
type Compiled<T> = Result<T, InvalidChannelError>;

/// One qubit's channels.
#[derive(Debug, Clone)]
struct QubitNoise {
    /// The Pauli channel after a non-virtual one-qubit gate.
    pauli: Compiled<Option<Channel1>>,
    /// Amplitude then phase damping (zero rates left out) over one
    /// one-qubit gate (`[0]`) and one two-qubit gate (`[1]`).
    damping: [Compiled<Vec<Channel1>>; 2],
}

/// Every noise channel of one device, built once per emulator (see the
/// module docs). Both emulators place noise through
/// [`NoiseTable::after`].
#[derive(Debug, Clone)]
pub(crate) struct NoiseTable {
    n_qubits: usize,
    qubits: Vec<QubitNoise>,
    /// The Pauli channel of each distinct two-qubit error spec.
    pairs: Vec<Compiled<Option<Channel1>>>,
    /// `pair_of[a·n + b]`: the entry of `pairs` a gate on `(a, b)` uses.
    pair_of: Vec<usize>,
}

/// The Pauli channel of `spec`, or `None` if its total rate is zero.
fn pauli(spec: PauliErrorSpec) -> Compiled<Option<Channel1>> {
    (spec.total() > 0.0)
        .then(|| Channel1::pauli(spec.p_x, spec.p_y, spec.p_z))
        .transpose()
}

/// Amplitude then phase damping on qubit `q` over a gate of `dur`
/// one-qubit gate durations, each left out at rate zero.
fn damping(model: &DeviceModel, q: usize, dur: f64) -> Compiled<Vec<Channel1>> {
    let ad = (model.amp_damping(q) * dur).min(1.0);
    let pd = (model.phase_damping(q) * dur).min(1.0);
    let mut out = Vec::new();
    if ad > 0.0 {
        out.push(Channel1::amplitude_damping(ad)?);
    }
    if pd > 0.0 {
        out.push(Channel1::phase_damping(pd)?);
    }
    Ok(out)
}

/// The channel, or its build error as a [`BackendError`].
fn built<T>(c: &Compiled<T>) -> Result<&T, BackendError> {
    c.as_ref().map_err(|e| e.clone().into())
}

impl NoiseTable {
    /// Builds every channel `model` can apply.
    pub(crate) fn new(model: &DeviceModel) -> NoiseTable {
        let n = model.n_qubits();
        let qubits = (0..n)
            .map(|q| QubitNoise {
                pauli: pauli(model.single_qubit_error(q)),
                damping: [
                    damping(model, q, 1.0),
                    damping(model, q, model.tq_duration_factor()),
                ],
            })
            .collect();
        // Pairs that share a spec (every uncoupled pair shares the
        // worst edge's) share one channel.
        let mut specs: Vec<PauliErrorSpec> = Vec::new();
        let mut pair_of = vec![0; n * n];
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                let spec = model.two_qubit_error(a, b);
                pair_of[a * n + b] = specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                    specs.push(spec);
                    specs.len() - 1
                });
            }
        }
        NoiseTable {
            n_qubits: n,
            qubits,
            pairs: specs.into_iter().map(pauli).collect(),
            pair_of,
        }
    }

    /// Applies the noise that follows gate `g`, in order: the Pauli
    /// channel of each [`DeviceModel::gate_errors`] event (none after a
    /// virtual gate; the edge's spec on both qubits of a two-qubit gate),
    /// then amplitude and phase damping on each of the gate's qubits over
    /// the gate's duration (scaled by the model's `tq_duration_factor`
    /// for a two-qubit gate). `apply` runs one channel on one qubit.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidChannel`] if the model yields an
    /// invalid channel for this gate; the channels before it have been
    /// applied.
    pub(crate) fn after(
        &self,
        g: &Gate,
        mut apply: impl FnMut(usize, &Channel1),
    ) -> Result<(), BackendError> {
        let [a, b] = g.qubits;
        if g.arity() == 1 {
            let noise = &self.qubits[a];
            if !DeviceModel::is_virtual(g.kind) {
                if let Some(ch) = built(&noise.pauli)? {
                    apply(a, ch);
                }
            }
            for ch in built(&noise.damping[0])? {
                apply(a, ch);
            }
        } else {
            if let Some(ch) = built(&self.pairs[self.pair_of[a * self.n_qubits + b]])? {
                apply(a, ch);
                apply(b, ch);
            }
            for q in [a, b] {
                for ch in built(&self.qubits[q].damping[1])? {
                    apply(q, ch);
                }
            }
        }
        Ok(())
    }
}

/// A hardware emulator bound to a device model.
#[derive(Debug, Clone)]
pub struct HardwareEmulator {
    model: DeviceModel,
    noise: NoiseTable,
}

impl HardwareEmulator {
    /// Creates an emulator for `model`, building every noise channel the
    /// model can apply.
    pub fn new(model: DeviceModel) -> Self {
        HardwareEmulator {
            noise: NoiseTable::new(&model),
            model,
        }
    }

    /// The underlying device model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Rejects circuits wider than the device or than a density matrix
    /// can hold, whichever is smaller.
    fn check_size(&self, circuit: &Circuit) -> Result<(), BackendError> {
        let available = self.model.n_qubits().min(DensityMatrix::MAX_QUBITS);
        if circuit.n_qubits() > available {
            return Err(BackendError::QubitCount {
                needed: circuit.n_qubits(),
                available,
                backend: self.model.name().to_string(),
            });
        }
        Ok(())
    }

    /// Runs `circuit` with full noise (gate Pauli channels + damping) and
    /// returns the final mixed state. Readout error is *not* applied here —
    /// see [`HardwareEmulator::measure_probabilities`].
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QubitCount`] if the circuit uses more qubits
    /// than the device has or than [`DensityMatrix::MAX_QUBITS`], or
    /// [`BackendError::InvalidChannel`] if the
    /// device model yields an invalid noise channel.
    pub fn run(&self, circuit: &Circuit) -> Result<DensityMatrix, BackendError> {
        self.check_size(circuit)?;
        let mut rho = DensityMatrix::zero_state(circuit.n_qubits());
        let mut scratch = Vec::new();
        for g in circuit.gates() {
            rho.apply_gate(g);
            self.noise
                .after(g, |q, ch| rho.apply_channel1_with(q, ch, &mut scratch))?;
        }
        Ok(rho)
    }

    /// Final measurement distribution including readout confusion.
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors.
    pub fn measure_probabilities(&self, circuit: &Circuit) -> Result<Vec<f64>, BackendError> {
        let rho = self.run(circuit)?;
        let mut probs = rho.probabilities();
        for q in 0..circuit.n_qubits() {
            self.model
                .readout_error(q)
                .apply_to_distribution(&mut probs, q);
        }
        Ok(probs)
    }

    /// Exact noisy Z expectations per qubit (infinite-shot limit), readout
    /// error included.
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors.
    pub fn expect_all_z(&self, circuit: &Circuit) -> Result<Vec<f64>, BackendError> {
        let probs = self.measure_probabilities(circuit)?;
        let n = circuit.n_qubits();
        let mut p1 = vec![0.0f64; n];
        for (i, &w) in probs.iter().enumerate() {
            for (q, p) in p1.iter_mut().enumerate() {
                if i & (1 << q) != 0 {
                    *p += w;
                }
            }
        }
        Ok(p1.into_iter().map(|p| 1.0 - 2.0 * p).collect())
    }

    /// Shot-sampled noisy Z expectations per qubit (the paper uses
    /// `shots = 8192`).
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareEmulator::run`] errors; returns
    /// [`BackendError::ShotBudget`] for `shots == 0`.
    pub fn sampled_expect_all_z<R: Rng>(
        &self,
        circuit: &Circuit,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        if shots == 0 {
            return Err(BackendError::ShotBudget { requested: 0 });
        }
        let probs = self.measure_probabilities(circuit)?;
        Ok(sampled_expect_all_z(&probs, circuit.n_qubits(), shots, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use qnat_sim::gate::Gate;
    use qnat_sim::statevector::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.8));
        c.push(Gate::sx(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rz(1, 0.4));
        c
    }

    #[test]
    fn noise_free_emulator_matches_statevector() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::noise_free(2));
        let noisy = emu.expect_all_z(&c).unwrap();
        let psi = simulate(&c);
        for q in 0..2 {
            assert!((noisy[q] - psi.expect_z(q)).abs() < 1e-10);
        }
    }

    #[test]
    fn noisier_device_contracts_expectations_more() {
        // |⟨Z⟩| under noise shrinks toward 0 (γ < 1 in Theorem 3.1), and a
        // noisier device shrinks it more.
        let mut c = Circuit::new(1);
        c.push(Gate::x(0));
        for _ in 0..10 {
            c.push(Gate::sx(0));
            c.push(Gate::sx(0));
            c.push(Gate::sx(0));
            c.push(Gate::sx(0)); // four SX = identity, but noisy
        }
        let ideal = simulate(&c).expect_z(0);
        let z_sant = HardwareEmulator::new(presets::santiago())
            .expect_all_z(&c)
            .unwrap()[0];
        let z_york = HardwareEmulator::new(presets::yorktown())
            .expect_all_z(&c)
            .unwrap()[0];
        assert!((ideal + 1.0).abs() < 1e-10);
        assert!(z_sant > ideal, "santiago contracts |Z|");
        assert!(z_york > z_sant, "yorktown noisier than santiago");
    }

    #[test]
    fn trace_preserved_under_full_noise() {
        let c = test_circuit();
        for model in [presets::yorktown(), presets::melbourne()] {
            let emu = HardwareEmulator::new(model);
            let rho = emu.run(&c).unwrap();
            assert!((rho.trace() - 1.0).abs() < 1e-9);
            assert!(rho.hermiticity_error() < 1e-9);
        }
    }

    #[test]
    fn measurement_distribution_normalized() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::belem());
        let probs = emu.measure_probabilities(&c).unwrap();
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn sampled_expectations_converge_to_exact() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::santiago());
        let exact = emu.expect_all_z(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sampled = emu.sampled_expect_all_z(&c, 50_000, &mut rng).unwrap();
        for q in 0..2 {
            assert!(
                (sampled[q] - exact[q]).abs() < 0.03,
                "q{q}: {} vs {}",
                sampled[q],
                exact[q]
            );
        }
    }

    #[test]
    fn oversized_circuit_is_typed_error() {
        let c = Circuit::new(6);
        let err = HardwareEmulator::new(presets::santiago())
            .run(&c)
            .unwrap_err();
        assert!(matches!(
            err,
            BackendError::QubitCount {
                needed: 6,
                available: 5,
                ..
            }
        ));
        assert!(!err.is_retryable());
    }

    #[test]
    fn circuit_beyond_density_matrix_limit_is_typed_error() {
        // Melbourne has 15 qubits, more than a density matrix holds: 14-
        // and 15-qubit circuits pass the device check and must still come
        // back as an error, not a panic in the simulator.
        let emu = HardwareEmulator::new(presets::melbourne());
        assert!(emu.model().n_qubits() > DensityMatrix::MAX_QUBITS);
        for n in [DensityMatrix::MAX_QUBITS + 1, emu.model().n_qubits()] {
            let err = emu.run(&Circuit::new(n)).unwrap_err();
            assert_eq!(
                err,
                BackendError::QubitCount {
                    needed: n,
                    available: DensityMatrix::MAX_QUBITS,
                    backend: emu.model().name().to_string(),
                }
            );
            assert!(emu.expect_all_z(&Circuit::new(n)).is_err());
        }
    }

    #[test]
    fn zero_shots_is_typed_error() {
        let c = test_circuit();
        let emu = HardwareEmulator::new(presets::santiago());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            emu.sampled_expect_all_z(&c, 0, &mut rng).unwrap_err(),
            BackendError::ShotBudget { requested: 0 }
        );
    }
}
