//! Peephole optimization passes over basis-gate circuits.
//!
//! Mirrors the cheap cleanups Qiskit applies at optimization levels 1–2:
//! merging runs of virtual RZ rotations, dropping zero-angle rotations and
//! explicit identities, and cancelling adjacent self-inverse pairs (X·X,
//! CX·CX on the same qubits). Passes run to a fixpoint.

use crate::euler::normalize_angle;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};

/// Merges adjacent RZ gates on the same qubit (no intervening gate touching
/// that qubit) and drops RZ(0) and identity gates. Returns `true` if
/// anything changed.
pub fn merge_rz(circuit: &mut Circuit) -> bool {
    let gates = circuit.gates().to_vec();
    let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
    let mut changed = false;
    for g in gates {
        if g.kind == GateKind::Id {
            changed = true;
            continue;
        }
        if g.kind == GateKind::Rz {
            // Look back for an RZ on the same qubit with nothing touching
            // that qubit in between (gates after it in `out` that touch the
            // qubit would block the merge — since we scan forward, only the
            // *last* gate touching this qubit matters).
            if let Some(prev) = out
                .iter_mut()
                .rev()
                .find(|p| (0..p.arity()).any(|k| p.qubits[k] == g.qubits[0]))
            {
                if prev.kind == GateKind::Rz && prev.qubits[0] == g.qubits[0] {
                    prev.params[0] = normalize_angle(prev.params[0] + g.params[0]);
                    changed = true;
                    continue;
                }
            }
            if normalize_angle(g.params[0]).abs() < 1e-12 {
                changed = true;
                continue;
            }
        }
        out.push(g);
    }
    // Drop RZ gates that merged to zero.
    let before = out.len();
    out.retain(|g| g.kind != GateKind::Rz || normalize_angle(g.params[0]).abs() > 1e-12);
    changed |= out.len() != before;
    let mut result = Circuit::new(circuit.n_qubits());
    result.extend(out);
    *circuit = result;
    changed
}

/// Cancels adjacent self-inverse pairs: X·X on a qubit and CX·CX on the same
/// (control, target) pair with no intervening gate on either qubit. Returns
/// `true` if anything changed.
pub fn cancel_pairs(circuit: &mut Circuit) -> bool {
    let gates = circuit.gates().to_vec();
    let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
    let mut changed = false;
    for g in gates {
        let cancels = match g.kind {
            GateKind::X | GateKind::Cx => {
                // Find the last gate in `out` touching any of g's qubits.
                let touches: Vec<usize> = (0..g.arity()).map(|k| g.qubits[k]).collect();
                let last = out
                    .iter()
                    .rposition(|p| (0..p.arity()).any(|k| touches.contains(&p.qubits[k])));
                match last {
                    Some(i) => {
                        let p = out[i];
                        let same =
                            p.kind == g.kind && p.qubits[..p.arity()] == g.qubits[..g.arity()];
                        // For CX both qubits' last-touching gate must be p.
                        let clean = touches.iter().all(|&q| {
                            out.iter()
                                .rposition(|x| (0..x.arity()).any(|k| x.qubits[k] == q))
                                == Some(i)
                        });
                        if same && clean {
                            out.remove(i);
                            changed = true;
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                }
            }
            _ => false,
        };
        if !cancels {
            out.push(g);
        }
    }
    let mut result = Circuit::new(circuit.n_qubits());
    result.extend(out);
    *circuit = result;
    changed
}

/// Runs all peephole passes to a fixpoint.
pub fn optimize(circuit: &mut Circuit) {
    loop {
        let mut changed = false;
        changed |= merge_rz(circuit);
        changed |= cancel_pairs(circuit);
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::equiv_up_to_phase;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn merges_adjacent_rz() {
        let mut c = Circuit::new(1);
        c.push(Gate::rz(0, 0.3));
        c.push(Gate::rz(0, 0.4));
        c.push(Gate::sx(0));
        c.push(Gate::rz(0, -0.2));
        let reference = c.clone();
        optimize(&mut c);
        assert_eq!(c.len(), 3);
        assert!((c.gates()[0].params[0] - 0.7).abs() < 1e-12);
        assert!(equiv_up_to_phase(&reference, &c, 1e-10));
    }

    #[test]
    fn rz_merge_blocked_by_intervening_gate() {
        let mut c = Circuit::new(2);
        c.push(Gate::rz(0, 0.3));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rz(0, 0.4));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn cancels_x_pairs_and_cx_pairs() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(0));
        c.push(Gate::x(0));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::sx(1));
        let reference = c.clone();
        optimize(&mut c);
        assert_eq!(c.len(), 1);
        assert!(equiv_up_to_phase(&reference, &c, 1e-10));
    }

    #[test]
    fn cx_with_different_orientation_not_cancelled() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 0));
        optimize(&mut c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cx_cancel_blocked_by_gate_on_target() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        c.push(Gate::sx(1));
        c.push(Gate::cx(0, 1));
        optimize(&mut c);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn rz_full_turn_vanishes() {
        let mut c = Circuit::new(1);
        c.push(Gate::rz(0, FRAC_PI_2));
        c.push(Gate::rz(0, -FRAC_PI_2));
        optimize(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn cascaded_cancellation() {
        // X X X X → empty needs two rounds.
        let mut c = Circuit::new(1);
        for _ in 0..4 {
            c.push(Gate::x(0));
        }
        optimize(&mut c);
        assert!(c.is_empty());
    }
}
