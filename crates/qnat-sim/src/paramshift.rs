//! Parameter-shift gradients.
//!
//! Hardware-compatible gradient estimation: each parameter's derivative is a
//! finite combination of circuit evaluations at shifted parameter values.
//! This is what the paper's Table 3 uses for "noise-aware training on real
//! QC" — shifted-circuit evaluations run on the (noisy) hardware and the
//! resulting gradients are "naturally noise-aware".
//!
//! Two rules are implemented:
//!
//! * **Two-term rule** for generators with two eigenvalues separated by 1
//!   (RX/RY/RZ/P/RZZ/RXX/RZX, the U2/U3 phase angles, CP and the CU3 phase
//!   angles): `f'(θ) = [f(θ+π/2) − f(θ−π/2)] / 2`.
//! * **Four-term rule** for controlled rotations (generator eigenvalues
//!   `{0, ±1/2}`): `f'(θ) = c₊[f(θ+π/2) − f(θ−π/2)] − c₋[f(θ+3π/2) −
//!   f(θ−3π/2)]` with `c± = (√2 ± 1)/(4√2)`.

use crate::adjoint::GradientResult;
use crate::circuit::Circuit;
use crate::gate::GateKind;
use std::f64::consts::FRAC_PI_2;

/// Which shift rule applies to a (gate kind, parameter slot) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftRule {
    /// `f' = [f(+π/2) − f(−π/2)] / 2`.
    TwoTerm,
    /// Four evaluations, for `{0, ±1/2}` generator spectra.
    FourTerm,
}

/// Returns the shift rule for a parameter slot of a gate kind.
///
/// # Panics
///
/// Panics if the slot does not exist for this kind.
pub fn shift_rule(kind: GateKind, slot: usize) -> ShiftRule {
    use GateKind::*;
    assert!(slot < kind.param_count(), "{kind:?} has no slot {slot}");
    match kind {
        Rx | Ry | Rz | P | U2 | Rzz | Rxx | Rzx | Cp => ShiftRule::TwoTerm,
        U3 => ShiftRule::TwoTerm,
        Crx | Cry | Crz => ShiftRule::FourTerm,
        // CU3 = controlled-(P(φ)·RY(θ)·P(λ)): θ is a controlled rotation
        // (four-term); φ and λ are controlled phases (two-term).
        Cu3 => {
            if slot == 0 {
                ShiftRule::FourTerm
            } else {
                ShiftRule::TwoTerm
            }
        }
        _ => unreachable!("non-parameterized kind"),
    }
}

/// An expectation evaluator: maps bound circuit parameters to ⟨Z_q⟩ for each
/// observable qubit. Implementations may be exact simulators or noisy/shot
/// based estimators — the parameter-shift rules hold for any of them as long
/// as the noise process is parameter-independent.
pub trait Evaluator {
    /// Evaluates the observables with the circuit's parameters set to
    /// `params` (flat order, [`Circuit::param_slots`]).
    fn evaluate(&mut self, params: &[f64]) -> Vec<f64>;
}

/// Exact statevector evaluator over a template circuit.
#[derive(Debug, Clone)]
pub struct ExactEvaluator {
    template: Circuit,
    obs_qubits: Vec<usize>,
}

impl ExactEvaluator {
    /// Creates an evaluator that rebinds `template`'s parameters and returns
    /// exact ⟨Z_q⟩ values for `obs_qubits`.
    pub fn new(template: Circuit, obs_qubits: Vec<usize>) -> Self {
        ExactEvaluator {
            template,
            obs_qubits,
        }
    }
}

impl Evaluator for ExactEvaluator {
    fn evaluate(&mut self, params: &[f64]) -> Vec<f64> {
        self.template.set_parameters(params);
        let psi = crate::statevector::simulate(&self.template);
        self.obs_qubits.iter().map(|&q| psi.expect_z(q)).collect()
    }
}

/// Computes expectations and all parameter gradients by the parameter-shift
/// rule, using an arbitrary (possibly noisy) evaluator.
///
/// Costs 2 evaluations per two-term parameter and 4 per four-term parameter,
/// plus one for the unshifted expectations.
pub fn paramshift_gradients_with<E: Evaluator>(
    circuit: &Circuit,
    n_obs: usize,
    eval: &mut E,
) -> GradientResult {
    let base = circuit.parameters();
    let expectations = eval.evaluate(&base);
    assert_eq!(expectations.len(), n_obs, "evaluator arity mismatch");
    let slots = circuit.param_slots();
    let mut gradients = vec![vec![0.0f64; slots.len()]; n_obs];

    let sqrt2 = std::f64::consts::SQRT_2;
    let c_plus = (sqrt2 + 1.0) / (4.0 * sqrt2);
    let c_minus = (sqrt2 - 1.0) / (4.0 * sqrt2);

    for (k, &(gi, slot)) in slots.iter().enumerate() {
        let kind = circuit.gates()[gi].kind;
        let mut shifted = |delta: f64| -> Vec<f64> {
            let mut p = base.clone();
            p[k] += delta;
            eval.evaluate(&p)
        };
        match shift_rule(kind, slot) {
            ShiftRule::TwoTerm => {
                let fp = shifted(FRAC_PI_2);
                let fm = shifted(-FRAC_PI_2);
                for o in 0..n_obs {
                    gradients[o][k] = (fp[o] - fm[o]) / 2.0;
                }
            }
            ShiftRule::FourTerm => {
                let fp1 = shifted(FRAC_PI_2);
                let fm1 = shifted(-FRAC_PI_2);
                let fp3 = shifted(3.0 * FRAC_PI_2);
                let fm3 = shifted(-3.0 * FRAC_PI_2);
                for o in 0..n_obs {
                    gradients[o][k] = c_plus * (fp1[o] - fm1[o]) - c_minus * (fp3[o] - fm3[o]);
                }
            }
        }
    }

    GradientResult {
        expectations,
        gradients,
    }
}

/// Exact parameter-shift gradients of ⟨Z_q⟩ for the given observable qubits.
pub fn paramshift_gradients(circuit: &Circuit, obs_qubits: &[usize]) -> GradientResult {
    let mut eval = ExactEvaluator::new(circuit.clone(), obs_qubits.to_vec());
    paramshift_gradients_with(circuit, obs_qubits.len(), &mut eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoint::adjoint_gradients;
    use crate::gate::Gate;

    #[test]
    fn two_term_matches_adjoint_for_rotations() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.35));
        c.push(Gate::rx(1, -0.8));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rz(1, 1.2));
        c.push(Gate::rzz(0, 1, 0.6));
        let obs = [0, 1];
        let ps = paramshift_gradients(&c, &obs);
        let ad = adjoint_gradients(&c, &obs);
        for o in 0..2 {
            for k in 0..c.n_params() {
                assert!(
                    (ps.gradients[o][k] - ad.gradients[o][k]).abs() < 1e-10,
                    "obs {o} param {k}"
                );
            }
        }
    }

    #[test]
    fn four_term_matches_adjoint_for_controlled_rotations() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::crx(0, 1, 0.9));
        c.push(Gate::cry(1, 0, -0.4));
        c.push(Gate::crz(0, 1, 0.7));
        let obs = [0, 1];
        let ps = paramshift_gradients(&c, &obs);
        let ad = adjoint_gradients(&c, &obs);
        for o in 0..2 {
            for k in 0..c.n_params() {
                assert!(
                    (ps.gradients[o][k] - ad.gradients[o][k]).abs() < 1e-10,
                    "obs {o} param {k}: {} vs {}",
                    ps.gradients[o][k],
                    ad.gradients[o][k]
                );
            }
        }
    }

    #[test]
    fn cu3_and_u3_all_slots_match_adjoint() {
        let mut c = Circuit::new(2);
        c.push(Gate::u3(0, 0.3, 0.7, -0.2));
        c.push(Gate::h(1));
        c.push(Gate::cu3(0, 1, 0.9, 0.25, -0.55));
        c.push(Gate::cp(1, 0, 0.8));
        let obs = [0, 1];
        let ps = paramshift_gradients(&c, &obs);
        let ad = adjoint_gradients(&c, &obs);
        for o in 0..2 {
            for k in 0..c.n_params() {
                assert!(
                    (ps.gradients[o][k] - ad.gradients[o][k]).abs() < 1e-10,
                    "obs {o} param {k}: {} vs {}",
                    ps.gradients[o][k],
                    ad.gradients[o][k]
                );
            }
        }
    }

    #[test]
    fn shift_rule_classification() {
        assert_eq!(shift_rule(GateKind::Ry, 0), ShiftRule::TwoTerm);
        assert_eq!(shift_rule(GateKind::Crx, 0), ShiftRule::FourTerm);
        assert_eq!(shift_rule(GateKind::Cu3, 0), ShiftRule::FourTerm);
        assert_eq!(shift_rule(GateKind::Cu3, 1), ShiftRule::TwoTerm);
        assert_eq!(shift_rule(GateKind::U3, 2), ShiftRule::TwoTerm);
    }
}
