//! Density-matrix simulator.
//!
//! Exact mixed-state simulation used as the "real quantum hardware" stand-in:
//! unitary gates plus arbitrary Kraus channels. Internally the matrix ρ is
//! stored as `vec(ρ)` — a length-4ⁿ amplitude vector — so the statevector
//! kernels are reused: a ket-side operator acts on bit `q + n`, a bra-side
//! (conjugated) operator on bit `q`.

use crate::channel::{Channel1, Channel2};
use crate::circuit::Circuit;
use crate::gate::{Gate, GateMatrix};
use crate::kernels::{apply_mat2, apply_mat4, conj2, conj4};
use crate::math::C64;
use crate::statevector::{RegisterMismatchError, StateVector};

/// A mixed quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use qnat_sim::density::DensityMatrix;
/// use qnat_sim::channel::Channel1;
/// use qnat_sim::gate::Gate;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_gate(&Gate::h(0));
/// rho.apply_channel1(0, &Channel1::depolarizing(0.1)?);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// # Ok::<(), qnat_sim::channel::InvalidChannelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    /// vec(ρ): index = row · 2ⁿ + col; bits `n..2n` are the row (ket),
    /// bits `0..n` the column (bra).
    data: Vec<C64>,
}

impl DensityMatrix {
    /// Largest register a density matrix holds: vec(ρ) has 4ⁿ amplitudes,
    /// 1 GiB at n = 13.
    pub const MAX_QUBITS: usize = 13;

    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`DensityMatrix::MAX_QUBITS`].
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density matrix limited to {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        let mut data = vec![C64::ZERO; dim * dim];
        data[0] = C64::ONE;
        DensityMatrix { n_qubits, data }
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_statevector(psi: &StateVector) -> Self {
        let n_qubits = psi.n_qubits();
        let dim = 1usize << n_qubits;
        let amps = psi.amplitudes();
        let mut data = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                data[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n_qubits, data }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension 2ⁿ.
    pub fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// Matrix element `ρ[r][c]`.
    pub fn element(&self, r: usize, c: usize) -> C64 {
        self.data[r * self.dim() + c]
    }

    /// Trace of ρ (1 for a valid state).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.data[i * dim + i].re).sum()
    }

    /// Purity `tr(ρ²) ∈ (0, 1]`; 1 iff pure.
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{rc} ρ[r][c]·ρ[c][r] = Σ |ρ[r][c]|² for Hermitian ρ.
        self.data.iter().map(|v| v.norm_sqr()).sum()
    }

    /// Maximum Hermiticity violation `max |ρ[r][c] − ρ[c][r]*|`.
    pub fn hermiticity_error(&self) -> f64 {
        let dim = self.dim();
        let mut worst: f64 = 0.0;
        for r in 0..dim {
            for c in 0..dim {
                let d = self.data[r * dim + c] - self.data[c * dim + r].conj();
                worst = worst.max(d.abs());
            }
        }
        worst
    }

    /// Applies a unitary gate: ρ → UρU†.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let n = self.n_qubits;
        match gate.matrix() {
            GateMatrix::One(m) => {
                let q = gate.qubits[0];
                apply_mat2(&mut self.data, q + n, &m);
                apply_mat2(&mut self.data, q, &conj2(&m));
            }
            GateMatrix::Two(m) => {
                let (qa, qb) = (gate.qubits[0], gate.qubits[1]);
                apply_mat4(&mut self.data, qa + n, qb + n, &m);
                apply_mat4(&mut self.data, qa, qb, &conj4(&m));
            }
        }
    }

    /// Runs a whole circuit of unitary gates (no noise), or reports a
    /// register mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterMismatchError`] if the circuit register is larger
    /// than the state register; the state is left untouched.
    pub fn try_run(&mut self, circuit: &Circuit) -> Result<(), RegisterMismatchError> {
        if circuit.n_qubits() > self.n_qubits {
            return Err(RegisterMismatchError {
                circuit_qubits: circuit.n_qubits(),
                state_qubits: self.n_qubits,
            });
        }
        for g in circuit.gates() {
            self.apply_gate(g);
        }
        Ok(())
    }

    /// Runs a whole circuit of unitary gates (no noise).
    ///
    /// # Panics
    ///
    /// Panics if the circuit register is larger than the state register;
    /// use [`try_run`](Self::try_run) to handle that as an error.
    pub fn run(&mut self, circuit: &Circuit) {
        self.try_run(circuit)
            .expect("circuit register larger than state register");
    }

    /// Applies a single-qubit Kraus channel on qubit `q`:
    /// ρ → Σᵏ KᵏρKᵏᵈ.
    pub fn apply_channel1(&mut self, q: usize, ch: &Channel1) {
        let n = self.n_qubits;
        let mut acc = vec![C64::ZERO; self.data.len()];
        let mut scratch = vec![C64::ZERO; self.data.len()];
        for k in ch.kraus() {
            scratch.copy_from_slice(&self.data);
            apply_mat2(&mut scratch, q + n, k);
            apply_mat2(&mut scratch, q, &conj2(k));
            for (a, s) in acc.iter_mut().zip(&scratch) {
                *a += *s;
            }
        }
        self.data = acc;
    }

    /// Applies a two-qubit Kraus channel on `(qa, qb)`.
    pub fn apply_channel2(&mut self, qa: usize, qb: usize, ch: &Channel2) {
        let n = self.n_qubits;
        let mut acc = vec![C64::ZERO; self.data.len()];
        let mut scratch = vec![C64::ZERO; self.data.len()];
        for k in ch.kraus() {
            scratch.copy_from_slice(&self.data);
            apply_mat4(&mut scratch, qa + n, qb + n, k);
            apply_mat4(&mut scratch, qa, qb, &conj4(k));
            for (a, s) in acc.iter_mut().zip(&scratch) {
                *a += *s;
            }
        }
        self.data = acc;
    }

    /// Diagonal of ρ: the probability of each computational basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim)
            .map(|i| self.data[i * dim + i].re.max(0.0))
            .collect()
    }

    /// Probability that qubit `q` reads `|1⟩`.
    ///
    /// Walks only the diagonal entries with bit `q` set — blocked strides,
    /// no per-index branch (the diagonal analog of
    /// [`crate::kernels::prob_one_mass`]).
    pub fn prob_one(&self, q: usize) -> f64 {
        let dim = self.dim();
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let mut p = 0.0;
        let mut base = bit;
        while base < dim {
            for i in base..base + bit {
                p += self.data[i * dim + i].re;
            }
            base += bit << 1;
        }
        p
    }

    /// Pauli-Z expectation on qubit `q`.
    pub fn expect_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(q)
    }

    /// Z expectations for every qubit (sharing
    /// [`prob_one`](Self::prob_one)'s diagonal walk).
    pub fn expect_all_z(&self) -> Vec<f64> {
        (0..self.n_qubits).map(|q| self.expect_z(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::simulate;

    #[test]
    fn pure_state_round_trip_matches_statevector() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::u3(2, 0.4, 0.8, -0.3));
        c.push(Gate::cu3(1, 2, 0.7, 0.1, 0.2));
        let psi = simulate(&c);
        let mut rho = DensityMatrix::zero_state(3);
        rho.run(&c);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        for q in 0..3 {
            assert!((rho.expect_z(q) - psi.expect_z(q)).abs() < 1e-10, "q={q}");
        }
    }

    #[test]
    fn depolarizing_reduces_purity_and_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::h(0));
        let before = rho.purity();
        rho.apply_channel1(0, &Channel1::depolarizing(0.2).unwrap());
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < before);
        assert!(rho.hermiticity_error() < 1e-12);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed_qubit() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::ry(0, 0.77));
        rho.apply_channel1(0, &Channel1::depolarizing(1.0).unwrap());
        // p=1 uniform Pauli leaves (1-p+p/3·…) — for the standard
        // parameterization E(ρ) at p=1 is (X ρ X + Y ρ Y + Z ρ Z)/3 whose
        // Bloch vector is −r/3.
        let z = rho.expect_z(0);
        assert!((z - (-(0.77f64).cos() / 3.0)).abs() < 1e-10);
    }

    #[test]
    fn amplitude_damping_decays_toward_ground() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::x(0));
        rho.apply_channel1(0, &Channel1::amplitude_damping(0.3).unwrap());
        assert!((rho.prob_one(0) - 0.7).abs() < 1e-12);
        rho.apply_channel1(0, &Channel1::amplitude_damping(1.0).unwrap());
        assert!(rho.prob_one(0).abs() < 1e-12);
    }

    #[test]
    fn pauli_channel_on_plus_state_dephases() {
        // |+⟩ under phase-flip p: off-diagonal scaled by (1−2p).
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::h(0));
        rho.apply_channel1(0, &Channel1::phase_flip(0.25).unwrap());
        assert!((rho.element(0, 1).re - 0.5 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_channel_preserves_trace() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let mut rho = DensityMatrix::zero_state(2);
        rho.run(&c);
        rho.apply_channel2(0, 1, &Channel2::depolarizing(0.1).unwrap());
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.hermiticity_error() < 1e-12);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn try_run_rejects_oversized_circuit() {
        let mut rho = DensityMatrix::zero_state(1);
        let mut c = Circuit::new(2);
        c.push(Gate::h(1));
        let err = rho.try_run(&c).unwrap_err();
        assert_eq!(err.circuit_qubits, 2);
        assert_eq!(err.state_qubits, 1);
        assert!((rho.trace() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_statevector_matches_run() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 1.2));
        c.push(Gate::crz(0, 1, 0.5));
        let psi = simulate(&c);
        let rho_a = DensityMatrix::from_statevector(&psi);
        let mut rho_b = DensityMatrix::zero_state(2);
        rho_b.run(&c);
        for r in 0..4 {
            for cidx in 0..4 {
                assert!(rho_a
                    .element(r, cidx)
                    .approx_eq(rho_b.element(r, cidx), 1e-12));
            }
        }
    }
}
