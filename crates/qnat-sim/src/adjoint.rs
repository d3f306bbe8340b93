//! Adjoint differentiation of statevector circuits.
//!
//! Computes `∂⟨Z_q⟩/∂θ` for every gate parameter in a circuit with a single
//! forward pass and a single backward sweep (one extra statevector per
//! observable). This is the gradient engine used for classical training of
//! QuantumNAT models; [`crate::paramshift`] provides the hardware-compatible
//! alternative and serves as the validation oracle.
//!
//! ## Run fusion
//!
//! Both sweeps defer single-qubit gates. The forward pass keeps one
//! pending 2×2 per qubit and folds it into the next two-qubit gate on
//! that qubit, so the state is only walked once per two-qubit gate (plus
//! one final flush per qubit). The backward pass keeps the states
//! `[ψ, λ_0 … λ_{m−1}]` in one buffer and a pending product `P_q` of
//! undone single-qubit gates per qubit: the true states are
//! `(⊗_q P_q)·buffer`. A gradient of a single-qubit gate `G` on `q` is
//!
//! ```text
//! 2·Re⟨λ|∂G·G†|ψ⟩ = 2·Re Σ_ab A[a][b]·C_o[a][b],
//! A = P_q†·(∂G·G†)·P_q,   C_o[a][b] = Σ_r conj(λ_o[r,a])·ψ[r,b],
//! ```
//!
//! where `r` runs over the other qubits' indices. `C_o` is one pass over
//! the buffer, and it stays valid for the whole single-qubit run on `q`:
//! only two-qubit gates touch the buffer, and one on other qubits applies
//! the same unitary to the rest index of `ψ` and `λ_o`, which preserves
//! their inner products. A two-qubit gate folds its qubits' `P` into its
//! inverse, makes one 4×4 pass per state and invalidates both qubits'
//! `C`. Every gate matrix is computed once per call.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind, GateMatrix};
use crate::kernels::{apply_mat2, apply_mat4, cross_mat2, prob_one_mass};
use crate::math::{kron2, mat2_dagger, mat2_mul, mat4_dagger, mat4_mul, Mat2, Mat4, C64};

/// Expectations and gradients returned by a differentiation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientResult {
    /// ⟨Z_q⟩ for each requested observable qubit.
    pub expectations: Vec<f64>,
    /// `gradients[obs][k]` = ∂⟨Z_obs⟩/∂θ_k where `k` indexes the circuit's
    /// flattened parameter list ([`Circuit::param_slots`] order).
    pub gradients: Vec<Vec<f64>>,
}

const I2: Mat2 = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];

/// Applies the Pauli-Z operator on qubit `q` to a raw state (sign flip on
/// all amplitudes with bit `q` set).
fn apply_z(amps: &mut [C64], q: usize) {
    let bit = 1usize << q;
    for (i, a) in amps.iter_mut().enumerate() {
        if i & bit != 0 {
            *a = -*a;
        }
    }
}

/// `P†·M·P`.
fn conjugate2(m: &Mat2, p: &Mat2) -> Mat2 {
    mat2_mul(&mat2_dagger(p), &mat2_mul(m, p))
}

/// `P†·M·P`.
fn conjugate4(m: &Mat4, p: &Mat4) -> Mat4 {
    mat4_mul(&mat4_dagger(p), &mat4_mul(m, p))
}

/// `∂G/∂θ_slot · G†` for a single-qubit gate with matrix `u`. `RZ`, the
/// only parameterized gate of the compiled basis, gives `−(i/2)Z`
/// directly.
fn generator1(g: &Gate, slot: usize, u: &Mat2) -> Mat2 {
    if g.kind == GateKind::Rz {
        let h = C64::new(0.0, -0.5);
        return [[h, C64::ZERO], [C64::ZERO, -h]];
    }
    match g.d_matrix(slot) {
        GateMatrix::One(d) => mat2_mul(&d, &mat2_dagger(u)),
        GateMatrix::Two(_) => unreachable!("single-qubit gate has a 2×2 derivative"),
    }
}

/// `∂G/∂θ_slot · G†` for a two-qubit gate with matrix `u`.
fn generator2(g: &Gate, slot: usize, u: &Mat4) -> Mat4 {
    match g.d_matrix(slot) {
        GateMatrix::Two(d) => mat4_mul(&d, &mat4_dagger(u)),
        GateMatrix::One(_) => unreachable!("two-qubit gate has a 4×4 derivative"),
    }
}

/// `U·P` for a pending product `P` (`None` is the identity).
fn premul(u: &Mat2, p: Option<Mat2>) -> Mat2 {
    p.map_or(*u, |p| mat2_mul(u, &p))
}

/// Takes qubit `a`'s and `b`'s pending products as `P_a⊗P_b`, or `None`
/// when both are the identity.
fn take_kron(pending: &mut [Option<Mat2>], a: usize, b: usize) -> Option<Mat4> {
    match (pending[a].take(), pending[b].take()) {
        (None, None) => None,
        (pa, pb) => Some(kron2(&pa.unwrap_or(I2), &pb.unwrap_or(I2))),
    }
}

/// `Re Σ_ab A[a][b]·C[a][b]`.
fn re_contract(a: &Mat2, c: &Mat2) -> f64 {
    let mut acc = 0.0;
    for (ra, rc) in a.iter().zip(c) {
        for (x, y) in ra.iter().zip(rc) {
            acc += x.re * y.re - x.im * y.im;
        }
    }
    acc
}

/// `Re⟨l|m⟩`.
fn re_inner(l: &[C64], m: &[C64]) -> f64 {
    l.iter()
        .zip(m)
        .map(|(l, m)| l.re * m.re + l.im * m.im)
        .sum()
}

/// Runs the gates on `psi` with each single-qubit run folded into the
/// next two-qubit gate on its qubit (or flushed at the end).
fn forward(psi: &mut [C64], gates: &[Gate], mats: &[GateMatrix], n: usize) {
    let mut pending: Vec<Option<Mat2>> = vec![None; n];
    for (g, mat) in gates.iter().zip(mats) {
        match mat {
            GateMatrix::One(u) => {
                let q = g.qubits[0];
                pending[q] = Some(premul(u, pending[q]));
            }
            GateMatrix::Two(u) => {
                let [a, b] = g.qubits;
                let m = take_kron(&mut pending, a, b).map_or(*u, |p| mat4_mul(u, &p));
                apply_mat4(psi, a, b, &m);
            }
        }
    }
    for (q, p) in pending.iter().enumerate() {
        if let Some(p) = p {
            apply_mat2(psi, q, p);
        }
    }
}

/// Computes ⟨Z_q⟩ and all parameter gradients for the given observable
/// qubits via the adjoint method.
///
/// The circuit is simulated once forward; then gates are undone one at a
/// time while a co-state per observable accumulates
/// `∂E/∂θ = 2·Re⟨λ|∂U/∂θ|ψ⟩`. Single-qubit runs are fused in both
/// sweeps (see the module docs).
///
/// # Panics
///
/// Panics if an observable qubit is out of range.
///
/// # Examples
///
/// ```
/// use qnat_sim::circuit::Circuit;
/// use qnat_sim::gate::Gate;
/// use qnat_sim::adjoint::adjoint_gradients;
///
/// let mut c = Circuit::new(1);
/// c.push(Gate::ry(0, 0.3));
/// let r = adjoint_gradients(&c, &[0]);
/// // ⟨Z⟩ = cos θ, d⟨Z⟩/dθ = −sin θ.
/// assert!((r.expectations[0] - 0.3f64.cos()).abs() < 1e-12);
/// assert!((r.gradients[0][0] + 0.3f64.sin()).abs() < 1e-12);
/// ```
pub fn adjoint_gradients(circuit: &Circuit, obs_qubits: &[usize]) -> GradientResult {
    let n = circuit.n_qubits();
    for &q in obs_qubits {
        assert!(q < n, "observable qubit {q} out of range");
    }
    let gates = circuit.gates();
    let mats: Vec<GateMatrix> = gates.iter().map(Gate::matrix).collect();
    let dim = 1usize << n;
    let m = obs_qubits.len();

    // One buffer: ψ, then λ_o = Z_o|ψ⟩ for each observable.
    let mut buf = vec![C64::ZERO; (1 + m) * dim];
    buf[0] = C64::ONE;
    forward(&mut buf[..dim], gates, &mats, n);
    let (psi, lambdas) = buf.split_at_mut(dim);
    let expectations: Vec<f64> = obs_qubits
        .iter()
        .map(|&q| 1.0 - 2.0 * prob_one_mass(psi, q))
        .collect();
    for (lambda, &q) in lambdas.chunks_exact_mut(dim).zip(obs_qubits) {
        lambda.copy_from_slice(psi);
        apply_z(lambda, q);
    }

    let n_params = circuit.n_params();
    let mut gradients = vec![vec![0.0f64; n_params]; m];
    // Undone single-qubit gates not yet applied to the buffer, per qubit.
    let mut pending: Vec<Option<Mat2>> = vec![None; n];
    // `cross[q·m + o]` = C_o on qubit q, valid while `cross_valid[q]`.
    let mut cross = vec![I2; n * m];
    let mut cross_valid = vec![false; n];
    let mut scratch: Vec<C64> = Vec::new();
    // Walk gates from last to first; `flat_end` is the exclusive end of
    // the current gate's slots. Gates before the first parameter need no
    // undoing.
    let mut flat_end = n_params;
    for (g, mat) in gates.iter().zip(&mats).rev() {
        if flat_end == 0 {
            break;
        }
        let np = g.kind.param_count();
        let flat_start = flat_end - np;
        match mat {
            GateMatrix::One(u) => {
                let q = g.qubits[0];
                if np > 0 {
                    let cs = &mut cross[q * m..(q + 1) * m];
                    if !cross_valid[q] {
                        let (psi, lambdas) = buf.split_at(dim);
                        for (c, lambda) in cs.iter_mut().zip(lambdas.chunks_exact(dim)) {
                            *c = cross_mat2(psi, lambda, q);
                        }
                        cross_valid[q] = true;
                    }
                    for slot in 0..np {
                        let gen = generator1(g, slot, u);
                        let a = pending[q].map_or(gen, |p| conjugate2(&gen, &p));
                        for (grad, c) in gradients.iter_mut().zip(cs.iter()) {
                            grad[flat_start + slot] = 2.0 * re_contract(&a, c);
                        }
                    }
                }
                pending[q] = Some(premul(&mat2_dagger(u), pending[q]));
            }
            GateMatrix::Two(u) => {
                let [a, b] = g.qubits;
                let p = take_kron(&mut pending, a, b);
                let (psi, lambdas) = buf.split_at(dim);
                for slot in 0..np {
                    let gen = generator2(g, slot, u);
                    let d = p.map_or(gen, |p| conjugate4(&gen, &p));
                    scratch.clear();
                    scratch.extend_from_slice(psi);
                    apply_mat4(&mut scratch, a, b, &d);
                    for (grad, lambda) in gradients.iter_mut().zip(lambdas.chunks_exact(dim)) {
                        grad[flat_start + slot] = 2.0 * re_inner(lambda, &scratch);
                    }
                }
                let inv = mat4_dagger(u);
                let undo = p.map_or(inv, |p| mat4_mul(&inv, &p));
                for state in buf.chunks_exact_mut(dim) {
                    apply_mat4(state, a, b, &undo);
                }
                cross_valid[a] = false;
                cross_valid[b] = false;
            }
        }
        flat_end = flat_start;
    }

    GradientResult {
        expectations,
        gradients,
    }
}

/// Convenience wrapper: gradients of ⟨Z_q⟩ for every qubit in the register.
pub fn adjoint_all_z(circuit: &Circuit) -> GradientResult {
    let qubits: Vec<usize> = (0..circuit.n_qubits()).collect();
    adjoint_gradients(circuit, &qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    fn finite_diff(circuit: &Circuit, obs: &[usize]) -> Vec<Vec<f64>> {
        let eps = 1e-6;
        let base = circuit.parameters();
        let mut grads = vec![vec![0.0; base.len()]; obs.len()];
        for k in 0..base.len() {
            let mut cp = circuit.clone();
            let mut pp = base.clone();
            pp[k] += eps;
            cp.set_parameters(&pp);
            let mut psi_p = StateVector::zero_state(circuit.n_qubits());
            psi_p.run(&cp);
            let mut pm = base.clone();
            pm[k] -= eps;
            cp.set_parameters(&pm);
            let mut psi_m = StateVector::zero_state(circuit.n_qubits());
            psi_m.run(&cp);
            for (o, &q) in obs.iter().enumerate() {
                grads[o][k] = (psi_p.expect_z(q) - psi_m.expect_z(q)) / (2.0 * eps);
            }
        }
        grads
    }

    #[test]
    fn single_ry_gradient() {
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, 0.9));
        let r = adjoint_gradients(&c, &[0]);
        assert!((r.expectations[0] - 0.9f64.cos()).abs() < 1e-12);
        assert!((r.gradients[0][0] + 0.9f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn matches_finite_difference_on_mixed_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::ry(0, 0.3));
        c.push(Gate::rx(1, -0.7));
        c.push(Gate::u3(2, 0.5, 0.2, -0.4));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cu3(1, 2, 0.8, -0.1, 0.6));
        c.push(Gate::rzz(0, 2, 0.4));
        c.push(Gate::h(0));
        c.push(Gate::crx(2, 0, 1.1));
        let obs = [0, 1, 2];
        let r = adjoint_gradients(&c, &obs);
        let fd = finite_diff(&c, &obs);
        for o in 0..obs.len() {
            for k in 0..c.n_params() {
                assert!(
                    (r.gradients[o][k] - fd[o][k]).abs() < 1e-5,
                    "obs {o} param {k}: adjoint {} vs fd {}",
                    r.gradients[o][k],
                    fd[o][k]
                );
            }
        }
    }

    #[test]
    fn unparameterized_circuit_has_empty_gradients() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let r = adjoint_all_z(&c);
        assert_eq!(r.gradients.len(), 2);
        assert!(r.gradients[0].is_empty());
        assert!((r.expectations[0]).abs() < 1e-12);
    }

    #[test]
    fn gradient_of_all_qubits_at_once() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.4));
        c.push(Gate::ry(1, 1.3));
        c.push(Gate::cx(0, 1));
        let r = adjoint_all_z(&c);
        let fd = finite_diff(&c, &[0, 1]);
        for o in 0..2 {
            for k in 0..2 {
                assert!((r.gradients[o][k] - fd[o][k]).abs() < 1e-5);
            }
        }
    }
}
