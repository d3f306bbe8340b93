//! Lowering of arbitrary gates to the IBMQ basis set `{RZ, SX, X, CX}`.
//!
//! The paper compiles every QNN to this basis *before* error-gate insertion
//! and training (§3.2), so injected Pauli errors land after the physical
//! pulses that actually occur on hardware.
//!
//! Two-qubit gates are rewritten to CX plus single-qubit gates with textbook
//! identities (controlled rotations by the two-CX conjugation trick, SWAP as
//! three CX, Ising couplers via CX·RZ·CX, √SWAP via commuting
//! `RXX·RYY·RZZ`), then every remaining single-qubit gate is lowered through
//! the ZYZ/McKay path in [`crate::euler`]. All rewrites hold up to global
//! phase, which is unobservable.

use crate::euler::mat2_to_basis;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use std::f64::consts::{FRAC_PI_2, PI};

/// `true` if `kind` is in the hardware basis set.
pub fn is_basis_gate(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::Rz | GateKind::Sx | GateKind::X | GateKind::Cx | GateKind::Id
    )
}

/// Rewrites one two-qubit gate into CX and single-qubit gates (which may
/// themselves still need lowering). Returns `None` when the gate is already
/// CX or is single-qubit.
fn two_qubit_rewrite(g: &Gate) -> Option<Vec<Gate>> {
    let (a, b) = (g.qubits[0], g.qubits[1]);
    let th = g.params[0];
    use GateKind::*;
    let seq = match g.kind {
        Cx => return None,
        Cz => vec![Gate::h(b), Gate::cx(a, b), Gate::h(b)],
        Cy => vec![Gate::sdg(b), Gate::cx(a, b), Gate::s(b)],
        Swap => vec![Gate::cx(a, b), Gate::cx(b, a), Gate::cx(a, b)],
        Crz => vec![
            Gate::rz(b, th / 2.0),
            Gate::cx(a, b),
            Gate::rz(b, -th / 2.0),
            Gate::cx(a, b),
        ],
        Cry => vec![
            Gate::ry(b, th / 2.0),
            Gate::cx(a, b),
            Gate::ry(b, -th / 2.0),
            Gate::cx(a, b),
        ],
        Crx => vec![
            Gate::h(b),
            Gate::rz(b, th / 2.0),
            Gate::cx(a, b),
            Gate::rz(b, -th / 2.0),
            Gate::cx(a, b),
            Gate::h(b),
        ],
        Cp => vec![
            Gate::rz(a, th / 2.0),
            Gate::rz(b, th / 2.0),
            Gate::cx(a, b),
            Gate::rz(b, -th / 2.0),
            Gate::cx(a, b),
        ],
        Cu3 => {
            // Standard controlled-U decomposition (Nielsen & Chuang 4.2 /
            // Qiskit cu3), with P ≅ RZ up to global phase:
            //   P((λ+φ)/2) on c; P((λ−φ)/2) on t; CX;
            //   U3(−θ/2, 0, −(φ+λ)/2) on t; CX; U3(θ/2, φ, 0) on t.
            let (t3, phi, lam) = (g.params[0], g.params[1], g.params[2]);
            vec![
                Gate::rz(a, (lam + phi) / 2.0),
                Gate::rz(b, (lam - phi) / 2.0),
                Gate::cx(a, b),
                Gate::u3(b, -t3 / 2.0, 0.0, -(phi + lam) / 2.0),
                Gate::cx(a, b),
                Gate::u3(b, t3 / 2.0, phi, 0.0),
            ]
        }
        Rzz => vec![Gate::cx(a, b), Gate::rz(b, th), Gate::cx(a, b)],
        Rxx => vec![
            Gate::h(a),
            Gate::h(b),
            Gate::cx(a, b),
            Gate::rz(b, th),
            Gate::cx(a, b),
            Gate::h(a),
            Gate::h(b),
        ],
        Rzx => vec![
            Gate::h(b),
            Gate::cx(a, b),
            Gate::rz(b, th),
            Gate::cx(a, b),
            Gate::h(b),
        ],
        SqrtSwap => {
            // √SWAP ≅ RXX(π/2)·RYY(π/2)·RZZ(π/2) each at θ=π/2 halved:
            // SWAP ≅ RXX(π/2)·RYY(π/2)·RZZ(π/2), so √SWAP uses θ=π/4 each.
            // RYY(θ) = (Sdg⊗Sdg)·RXX(θ)·(S⊗S) in circuit order.
            let t4 = FRAC_PI_2 / 2.0;
            let mut v = vec![Gate::rxx(a, b, t4)];
            v.extend([Gate::sdg(a), Gate::sdg(b)]);
            v.push(Gate::rxx(a, b, t4));
            v.extend([Gate::s(a), Gate::s(b)]);
            v.push(Gate::rzz(a, b, t4));
            v
        }
        _ => return None,
    };
    Some(seq)
}

/// Lowers a whole circuit to the basis set `{RZ, SX, X, CX}`.
///
/// The output implements the same unitary up to global phase; RZ gates are
/// virtual (error-free) on hardware.
///
/// # Examples
///
/// ```
/// use qnat_compiler::decompose::{decompose_to_basis, is_basis_gate};
/// use qnat_sim::{circuit::Circuit, gate::Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::cu3(0, 1, 0.4, 0.1, -0.2));
/// let lowered = decompose_to_basis(&c);
/// assert!(lowered.gates().iter().all(|g| is_basis_gate(g.kind)));
/// ```
pub fn decompose_to_basis(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    let mut work: Vec<Gate> = circuit.gates().to_vec();
    // Two-qubit rewrites may produce new two-qubit helper gates (RXX/RZZ in
    // the √SWAP path), so iterate to a fixpoint before 1q lowering.
    loop {
        let mut changed = false;
        let mut next = Vec::with_capacity(work.len());
        for g in &work {
            if g.arity() == 2 {
                if let Some(seq) = two_qubit_rewrite(g) {
                    next.extend(seq);
                    changed = true;
                } else {
                    next.push(*g);
                }
            } else {
                next.push(*g);
            }
        }
        work = next;
        if !changed {
            break;
        }
    }
    for g in &work {
        let q = g.qubits[0];
        match g.kind {
            GateKind::Id => {}
            _ if g.arity() == 2 => out.push(*g), // only CX survives rewriting
            _ if is_basis_gate(g.kind) => out.push(*g),
            // Diagonal gates stay virtual RZ (≅ up to global phase).
            GateKind::P => {
                let lam = crate::euler::normalize_angle(g.params[0]);
                if lam.abs() > 1e-12 {
                    out.push(Gate::rz(q, lam));
                }
            }
            GateKind::Z => out.push(Gate::rz(q, PI)),
            GateKind::S => out.push(Gate::rz(q, FRAC_PI_2)),
            GateKind::Sdg => out.push(Gate::rz(q, -FRAC_PI_2)),
            GateKind::T => out.push(Gate::rz(q, PI / 4.0)),
            GateKind::Tdg => out.push(Gate::rz(q, -PI / 4.0)),
            _ => out.extend(mat2_to_basis(q, &g.matrix1())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::equiv_up_to_phase;

    fn assert_lowering(mut make: impl FnMut(&mut Circuit)) {
        let mut reference = Circuit::new(3);
        make(&mut reference);
        let lowered = decompose_to_basis(&reference);
        assert!(
            lowered.gates().iter().all(|g| is_basis_gate(g.kind)),
            "non-basis gate survived: {lowered}"
        );
        assert!(
            equiv_up_to_phase(&reference, &lowered, 1e-8),
            "lowering changed the unitary:\nref:\n{reference}\nlow:\n{lowered}"
        );
    }

    #[test]
    fn lowers_two_qubit_cliffords() {
        assert_lowering(|c| c.push(Gate::cz(0, 1)));
        assert_lowering(|c| c.push(Gate::cy(1, 2)));
        assert_lowering(|c| c.push(Gate::swap(0, 2)));
    }

    #[test]
    fn lowers_controlled_rotations() {
        assert_lowering(|c| c.push(Gate::crz(0, 1, 0.7)));
        assert_lowering(|c| c.push(Gate::cry(0, 1, -1.3)));
        assert_lowering(|c| c.push(Gate::crx(2, 0, 2.1)));
        assert_lowering(|c| c.push(Gate::cp(1, 2, 0.9)));
    }

    #[test]
    fn lowers_cu3() {
        assert_lowering(|c| c.push(Gate::cu3(0, 1, 0.8, 0.3, -0.5)));
        assert_lowering(|c| c.push(Gate::cu3(2, 1, PI / 2.0, 0.0, PI)));
    }

    #[test]
    fn lowers_ising_couplers() {
        assert_lowering(|c| c.push(Gate::rzz(0, 1, 0.6)));
        assert_lowering(|c| c.push(Gate::rxx(1, 2, -0.9)));
        assert_lowering(|c| c.push(Gate::rzx(0, 2, 1.4)));
    }

    #[test]
    fn lowers_sqrt_swap() {
        assert_lowering(|c| c.push(Gate::sqrt_swap(0, 1)));
    }

    #[test]
    fn lowers_design_space_block() {
        // A representative slice of the RXYZ+U1+CU3 design space.
        assert_lowering(|c| {
            c.push(Gate::rx(0, 0.3));
            c.push(Gate::s(1));
            c.push(Gate::cx(0, 1));
            c.push(Gate::ry(2, -0.8));
            c.push(Gate::t(0));
            c.push(Gate::swap(1, 2));
            c.push(Gate::rz(0, 0.5));
            c.push(Gate::h(1));
            c.push(Gate::sqrt_swap(0, 1));
            c.push(Gate::p(2, 0.25));
            c.push(Gate::cu3(2, 0, 0.6, 0.2, -0.3));
        });
    }

    #[test]
    fn virtual_gates_stay_virtual() {
        let mut c = Circuit::new(1);
        c.push(Gate::s(0));
        c.push(Gate::t(0));
        c.push(Gate::z(0));
        let lowered = decompose_to_basis(&c);
        assert!(lowered.gates().iter().all(|g| g.kind == GateKind::Rz));
    }

    #[test]
    fn identity_gates_dropped() {
        let mut c = Circuit::new(1);
        c.push(Gate::id(0));
        let lowered = decompose_to_basis(&c);
        assert!(lowered.is_empty());
    }
}
