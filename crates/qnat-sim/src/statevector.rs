//! Statevector simulator.
//!
//! Stores the full 2ⁿ complex amplitude vector and applies gates in place
//! with bit-twiddling kernels (no 2ⁿ×2ⁿ matrices are ever formed). Qubit `q`
//! maps to bit `q` of the basis-state index (little-endian).

use crate::circuit::Circuit;
use crate::gate::{Gate, GateMatrix};
use crate::math::{C64, Mat2, Mat4};

/// A circuit addressed a register larger than the state it runs on.
///
/// Returned by [`StateVector::try_run`] and
/// [`DensityMatrix::try_run`](crate::density::DensityMatrix::try_run);
/// the panicking `run` wrappers delegate to these (the repo's
/// `try_push`/`push` idiom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterMismatchError {
    /// Register size the circuit requires.
    pub circuit_qubits: usize,
    /// Register size the state actually has.
    pub state_qubits: usize,
}

impl std::fmt::Display for RegisterMismatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuit register ({} qubits) larger than state register ({} qubits)",
            self.circuit_qubits, self.state_qubits
        )
    }
}

impl std::error::Error for RegisterMismatchError {}

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use qnat_sim::statevector::StateVector;
/// use qnat_sim::circuit::Circuit;
/// use qnat_sim::gate::Gate;
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::h(0));
/// bell.push(Gate::cx(0, 1));
/// let mut psi = StateVector::zero_state(2);
/// psi.run(&bell);
/// // Bell state: ⟨Z⟩ = 0 on both qubits.
/// assert!(psi.expect_z(0).abs() < 1e-12);
/// assert!(psi.expect_z(1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits <= 26, "statevector limited to 26 qubits");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if `amps.len()` is not a power of two.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(amps.len().is_power_of_two(), "length must be a power of two");
        let n_qubits = amps.len().trailing_zeros() as usize;
        StateVector { n_qubits, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude vector (little-endian basis ordering).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Squared norm ⟨ψ|ψ⟩ (should be 1 for a normalized state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product ⟨self|other⟩.
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "register size mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range (checked in release builds too).
    pub fn apply_mat2(&mut self, q: usize, m: &Mat2) {
        crate::kernels::apply_mat2(&mut self.amps, q, m);
    }

    /// Applies a two-qubit unitary given in the basis
    /// `index = 2·bit(qa) + bit(qb)`.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or `qa == qb` (checked in
    /// release builds too).
    pub fn apply_mat4(&mut self, qa: usize, qb: usize, m: &Mat4) {
        crate::kernels::apply_mat4(&mut self.amps, qa, qb, m);
    }

    /// Applies one gate.
    pub fn apply(&mut self, gate: &Gate) {
        match gate.matrix() {
            GateMatrix::One(m) => self.apply_mat2(gate.qubits[0], &m),
            GateMatrix::Two(m) => self.apply_mat4(gate.qubits[0], gate.qubits[1], &m),
        }
    }

    /// Runs a whole circuit, or reports a register mismatch.
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
            self.apply(g);
        }
        Ok(())
    }

    /// Runs a whole circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register is larger than the state register;
    /// use [`try_run`](Self::try_run) to handle that as an error.
    pub fn run(&mut self, circuit: &Circuit) {
        self.try_run(circuit)
            .expect("circuit register larger than state register");
    }

    /// Probability of measuring basis state `idx`.
    pub fn probability(&self, idx: usize) -> f64 {
        self.amps[idx].norm_sqr()
    }

    /// Probability that qubit `q` reads `|1⟩`.
    ///
    /// Single-pass block accumulation shared with the kernels — no
    /// per-index branch (see [`crate::kernels::prob_one_mass`]).
    pub fn prob_one(&self, q: usize) -> f64 {
        crate::kernels::prob_one_mass(&self.amps, q)
    }

    /// Pauli-Z expectation value on qubit `q`: `⟨Z_q⟩ = P(0) − P(1) ∈ [-1, 1]`.
    pub fn expect_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(q)
    }

    /// Z expectations for every qubit (one branch-free block pass per
    /// qubit, sharing [`prob_one`](Self::prob_one)'s implementation).
    pub fn expect_all_z(&self) -> Vec<f64> {
        (0..self.n_qubits).map(|q| self.expect_z(q)).collect()
    }

    /// Full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Applies a single-qubit Kraus channel by quantum-trajectory sampling:
    /// outcome `k` is chosen with probability `‖K_k|ψ⟩‖²` and the state is
    /// renormalized. Averaging over trajectories reproduces the density
    /// matrix channel exactly; this is how large registers are emulated
    /// noisily without a 4ⁿ density matrix.
    pub fn apply_channel1_sampled<R: rand::Rng>(
        &mut self,
        q: usize,
        channel: &crate::channel::Channel1,
        rng: &mut R,
    ) {
        let kraus = channel.kraus();
        debug_assert!(!kraus.is_empty());
        // Outcome k has probability ‖K_k ψ‖²; completeness guarantees the
        // probabilities sum to 1, so the last operator absorbs any
        // floating-point remainder.
        let mut u: f64 = rng.gen();
        let mut scratch: Vec<C64> = Vec::new();
        for (k, m) in kraus.iter().enumerate() {
            scratch = self.amps.clone();
            crate::kernels::apply_mat2(&mut scratch, q, m);
            let p: f64 = scratch.iter().map(|a| a.norm_sqr()).sum();
            if u < p || k == kraus.len() - 1 {
                break;
            }
            u -= p;
        }
        self.amps = scratch;
        self.renormalize();
    }

    /// Renormalizes the state to unit norm (guards against drift in very
    /// long circuits).
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
    }
}

/// Convenience: runs `circuit` from `|0…0⟩` and returns the final state.
pub fn simulate(circuit: &Circuit) -> StateVector {
    let mut psi = StateVector::zero_state(circuit.n_qubits());
    psi.run(circuit);
    psi
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn zero_state_is_normalized() {
        let psi = StateVector::zero_state(3);
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(psi.probability(0), 1.0);
    }

    #[test]
    fn x_flips_qubit() {
        let mut psi = StateVector::zero_state(2);
        psi.apply(&Gate::x(1));
        assert!((psi.probability(0b10) - 1.0).abs() < 1e-15);
        assert_eq!(psi.expect_z(1), -1.0);
        assert_eq!(psi.expect_z(0), 1.0);
    }

    #[test]
    fn bell_state_correlations() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let psi = simulate(&c);
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(psi.probability(0b01) < 1e-12);
        assert!(psi.probability(0b10) < 1e-12);
    }

    #[test]
    fn ry_rotation_expectation() {
        // ⟨Z⟩ after RY(θ)|0⟩ = cos θ.
        for &theta in &[0.0, 0.3, FRAC_PI_2, 1.9, PI] {
            let mut psi = StateVector::zero_state(1);
            psi.apply(&Gate::ry(0, theta));
            assert!(
                (psi.expect_z(0) - theta.cos()).abs() < 1e-12,
                "theta={theta}"
            );
        }
    }

    #[test]
    fn cx_control_ordering() {
        // Control q1 set, target q0 flips.
        let mut psi = StateVector::zero_state(2);
        psi.apply(&Gate::x(1));
        psi.apply(&Gate::cx(1, 0));
        assert!((psi.probability(0b11) - 1.0).abs() < 1e-15);
        // Control q0 clear, nothing happens.
        let mut psi = StateVector::zero_state(2);
        psi.apply(&Gate::cx(0, 1));
        assert!((psi.probability(0b00) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut psi = StateVector::zero_state(3);
        psi.apply(&Gate::x(0));
        psi.apply(&Gate::swap(0, 2));
        assert!((psi.probability(0b100) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn expect_all_z_matches_individual() {
        let mut c = Circuit::new(3);
        c.push(Gate::ry(0, 0.4));
        c.push(Gate::ry(1, 1.1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rx(2, 0.7));
        let psi = simulate(&c);
        let all = psi.expect_all_z();
        for q in 0..3 {
            assert!((all[q] - psi.expect_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(Gate::u3(q, 0.3 * q as f64 + 0.2, 0.1, -0.4));
        }
        c.push(Gate::cx(0, 1));
        c.push(Gate::cu3(1, 2, 0.5, 0.2, 0.9));
        c.push(Gate::rzz(2, 3, 0.8));
        let psi = simulate(&c);
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_with_self_is_one() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cry(0, 1, 0.9));
        let psi = simulate(&c);
        let ip = psi.inner(&psi);
        assert!((ip.re - 1.0).abs() < 1e-12 && ip.im.abs() < 1e-12);
    }

    #[test]
    fn sampled_channel_matches_density_matrix_on_average() {
        use crate::channel::Channel1;
        use crate::density::DensityMatrix;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut prep = Circuit::new(1);
        prep.push(Gate::ry(0, 0.9));
        let ch = Channel1::amplitude_damping(0.3).unwrap();
        // Exact channel on the density matrix.
        let mut rho = DensityMatrix::zero_state(1);
        rho.run(&prep);
        rho.apply_channel1(0, &ch);
        let exact = rho.expect_z(0);
        // Trajectory average.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let mut psi = simulate(&prep);
            psi.apply_channel1_sampled(0, &ch, &mut rng);
            acc += psi.expect_z(0);
        }
        let sampled = acc / n as f64;
        assert!(
            (sampled - exact).abs() < 0.02,
            "trajectory {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn sampled_channel_keeps_unit_norm() {
        use crate::channel::Channel1;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let ch = Channel1::pauli(0.2, 0.1, 0.3).unwrap();
        let mut psi = StateVector::zero_state(2);
        psi.apply(&Gate::h(0));
        psi.apply(&Gate::cx(0, 1));
        for _ in 0..50 {
            psi.apply_channel1_sampled(0, &ch, &mut rng);
            psi.apply_channel1_sampled(1, &ch, &mut rng);
            assert!((psi.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn try_run_rejects_oversized_circuit() {
        let mut psi = StateVector::zero_state(2);
        let mut c = Circuit::new(3);
        c.push(Gate::h(2));
        let err = psi.try_run(&c).unwrap_err();
        assert_eq!(err.circuit_qubits, 3);
        assert_eq!(err.state_qubits, 2);
        // The state is untouched and smaller circuits still run.
        assert_eq!(psi.probability(0), 1.0);
        let ok = Circuit::new(2);
        assert!(psi.try_run(&ok).is_ok());
    }

    #[test]
    fn circuit_then_inverse_is_identity() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::u3(1, 0.7, -0.2, 0.5));
        c.push(Gate::cx(0, 2));
        c.push(Gate::rzz(1, 2, 0.33));
        c.push(Gate::cu3(2, 0, 0.4, 0.1, -0.6));
        let mut psi = StateVector::zero_state(3);
        psi.run(&c);
        psi.run(&c.inverse());
        assert!((psi.probability(0) - 1.0).abs() < 1e-10);
    }
}
