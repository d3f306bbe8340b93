//! Parameter-tracking (symbolic) lowering to basis gates.
//!
//! Noise-aware training needs gradients of circuits that were *compiled to
//! the hardware basis and then noise-injected* (paper §3.2). The numeric
//! transpiler loses the map from logical angles to compiled angles, so this
//! module lowers parameterized gates with **affine angle tracking**: every
//! compiled RZ angle is recorded as `c + Σ kᵢ·θᵢ` over the logical flat
//! parameters. The gate *structure* of the lowering is parameter-independent
//! (no special-casing on current values), so a circuit is lowered once and
//! re-bound each training step; gradients from the adjoint engine chain back
//! through the affine map by a sparse transpose-multiply.

use crate::decompose::is_basis_gate;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use std::f64::consts::{FRAC_PI_2, PI};

/// An angle that is affine in the logical parameters:
/// `angle = constant + Σ coeff·θ[index]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AffineAngle {
    /// Constant offset.
    pub constant: f64,
    /// `(logical flat parameter index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
}

impl AffineAngle {
    /// A constant angle.
    pub fn constant(c: f64) -> Self {
        AffineAngle {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// A pure `coeff·θ[index]` term plus offset.
    pub fn term(index: usize, coeff: f64, constant: f64) -> Self {
        AffineAngle {
            constant,
            terms: vec![(index, coeff)],
        }
    }

    /// Evaluates the angle for concrete logical parameters.
    pub fn eval(&self, params: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(i, k)| k * params[i])
                .sum::<f64>()
    }
}

/// A lowered circuit template with its angle map.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicLowered {
    /// Basis-gate template. Parameter values in the template correspond to
    /// all-zero logical parameters; use [`SymbolicLowered::bind`].
    pub circuit: Circuit,
    /// One affine angle per flat parameter slot of `circuit`
    /// (in [`Circuit::param_slots`] order).
    pub angles: Vec<AffineAngle>,
    /// Number of logical parameters.
    pub n_logical: usize,
}

impl SymbolicLowered {
    /// Binds logical parameter values, returning a runnable circuit.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_logical`.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        let mut c = self.circuit.clone();
        c.set_parameters(&self.bind_angles(params));
        c
    }

    /// The compiled angles [`SymbolicLowered::bind`] sets, one per flat
    /// parameter slot of `circuit`, without building the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_logical`.
    pub fn bind_angles(&self, params: &[f64]) -> Vec<f64> {
        assert_eq!(params.len(), self.n_logical, "logical parameter count");
        self.angles.iter().map(|a| a.eval(params)).collect()
    }

    /// Chains gradients w.r.t. compiled angles back to logical parameters:
    /// `g_logical[j] = Σ_s coeff(s, j) · g_compiled[s]`.
    ///
    /// # Panics
    ///
    /// Panics if `compiled.len()` disagrees with the template.
    pub fn chain_gradient(&self, compiled: &[f64]) -> Vec<f64> {
        assert_eq!(compiled.len(), self.angles.len(), "compiled grad length");
        let mut out = vec![0.0; self.n_logical];
        for (a, &g) in self.angles.iter().zip(compiled) {
            for &(i, k) in &a.terms {
                out[i] += k * g;
            }
        }
        out
    }
}

/// One lowered gate: the gate shape plus (for parameterized slots) affine
/// angles.
struct Emit {
    gate: Gate,
    angles: Vec<AffineAngle>,
}

fn fixed(gate: Gate) -> Emit {
    Emit {
        gate,
        angles: Vec::new(),
    }
}

fn rz(q: usize, angle: AffineAngle) -> Emit {
    Emit {
        gate: Gate::rz(q, 0.0),
        angles: vec![angle],
    }
}

/// McKay form of `U3(θ, φ, λ)` with affine angles (always the generic
/// 2-pulse variant so the structure never depends on values):
/// circuit order `RZ(λ) · SX · RZ(θ+π) · SX · RZ(φ+π)`.
fn u3_affine(q: usize, theta: AffineAngle, phi: AffineAngle, lambda: AffineAngle) -> Vec<Emit> {
    let mut phi_pi = phi;
    phi_pi.constant += PI;
    let mut theta_pi = theta;
    theta_pi.constant += PI;
    vec![
        rz(q, lambda),
        fixed(Gate::sx(q)),
        rz(q, theta_pi),
        fixed(Gate::sx(q)),
        rz(q, phi_pi),
    ]
}

fn scale_affine(a: &AffineAngle, k: f64) -> AffineAngle {
    AffineAngle {
        constant: a.constant * k,
        terms: a.terms.iter().map(|&(i, c)| (i, c * k)).collect(),
    }
}

fn add_affine(a: &AffineAngle, b: &AffineAngle) -> AffineAngle {
    let mut out = a.clone();
    out.constant += b.constant;
    for &(i, c) in &b.terms {
        if let Some(t) = out.terms.iter_mut().find(|(j, _)| *j == i) {
            t.1 += c;
        } else {
            out.terms.push((i, c));
        }
    }
    out
}

/// Lowers one gate whose parameter slots start at logical flat index
/// `base`.
fn lower_gate(g: &Gate, base: usize) -> Vec<Emit> {
    use GateKind::*;
    let q = g.qubits[0];
    let (a, b) = (g.qubits[0], g.qubits[1]);
    let slot = |k: usize| AffineAngle::term(base + k, 1.0, 0.0);
    match g.kind {
        // Already basis.
        Rz => vec![rz(q, slot(0))],
        Sx | X | Cx => vec![fixed(*g)],
        Id => vec![],
        // Virtual-equivalent diagonals.
        P => vec![rz(q, slot(0))],
        Z => vec![rz(q, AffineAngle::constant(PI))],
        S => vec![rz(q, AffineAngle::constant(FRAC_PI_2))],
        Sdg => vec![rz(q, AffineAngle::constant(-FRAC_PI_2))],
        T => vec![rz(q, AffineAngle::constant(PI / 4.0))],
        Tdg => vec![rz(q, AffineAngle::constant(-PI / 4.0))],
        // Single-qubit rotations as U3 specializations.
        Rx => u3_affine(
            q,
            slot(0),
            AffineAngle::constant(-FRAC_PI_2),
            AffineAngle::constant(FRAC_PI_2),
        ),
        Ry => u3_affine(q, slot(0), AffineAngle::constant(0.0), AffineAngle::constant(0.0)),
        U2 => u3_affine(q, AffineAngle::constant(FRAC_PI_2), slot(0), slot(1)),
        U3 => u3_affine(q, slot(0), slot(1), slot(2)),
        // Fixed 1q gates: H = U3(π/2, 0, π), Y = U3(π, π/2, π/2),
        // SXdg = U3(−π/2, ... ) — enumerate the ones the ansätze use.
        H => u3_affine(
            q,
            AffineAngle::constant(FRAC_PI_2),
            AffineAngle::constant(0.0),
            AffineAngle::constant(PI),
        ),
        Y => u3_affine(
            q,
            AffineAngle::constant(PI),
            AffineAngle::constant(FRAC_PI_2),
            AffineAngle::constant(FRAC_PI_2),
        ),
        // SXdg ≅ RX(−π/2) = U3(−π/2, −π/2, π/2).
        Sxdg => u3_affine(
            q,
            AffineAngle::constant(-FRAC_PI_2),
            AffineAngle::constant(-FRAC_PI_2),
            AffineAngle::constant(FRAC_PI_2),
        ),
        SqrtH => {
            // √H = U3 with θ = π/4 axis-tilted: numerically √H has ZYZ
            // angles (π/2·?, …). Use its exact ZYZ: computed from the
            // matrix (constant gate, so numeric extraction is safe).
            let (t, p, l) = crate::euler::zyz_angles(&Gate::sqrt_h(0).matrix1());
            u3_affine(
                q,
                AffineAngle::constant(t),
                AffineAngle::constant(p),
                AffineAngle::constant(l),
            )
        }
        // Two-qubit rewrites.
        Cz => {
            let mut v = lower_gate(&Gate::h(b), base);
            v.push(fixed(Gate::cx(a, b)));
            v.extend(lower_gate(&Gate::h(b), base));
            v
        }
        Cy => {
            let mut v = vec![rz(b, AffineAngle::constant(-FRAC_PI_2))];
            v.push(fixed(Gate::cx(a, b)));
            v.push(rz(b, AffineAngle::constant(FRAC_PI_2)));
            v
        }
        Swap => vec![
            fixed(Gate::cx(a, b)),
            fixed(Gate::cx(b, a)),
            fixed(Gate::cx(a, b)),
        ],
        Crz => vec![
            rz(b, scale_affine(&slot(0), 0.5)),
            fixed(Gate::cx(a, b)),
            rz(b, scale_affine(&slot(0), -0.5)),
            fixed(Gate::cx(a, b)),
        ],
        Cry => {
            let mut v = u3_affine(
                b,
                scale_affine(&slot(0), 0.5),
                AffineAngle::constant(0.0),
                AffineAngle::constant(0.0),
            );
            v.push(fixed(Gate::cx(a, b)));
            v.extend(u3_affine(
                b,
                scale_affine(&slot(0), -0.5),
                AffineAngle::constant(0.0),
                AffineAngle::constant(0.0),
            ));
            v.push(fixed(Gate::cx(a, b)));
            v
        }
        Crx => {
            let mut v = lower_gate(&Gate::h(b), base);
            v.push(rz(b, scale_affine(&slot(0), 0.5)));
            v.push(fixed(Gate::cx(a, b)));
            v.push(rz(b, scale_affine(&slot(0), -0.5)));
            v.push(fixed(Gate::cx(a, b)));
            v.extend(lower_gate(&Gate::h(b), base));
            v
        }
        Cp => vec![
            rz(a, scale_affine(&slot(0), 0.5)),
            rz(b, scale_affine(&slot(0), 0.5)),
            fixed(Gate::cx(a, b)),
            rz(b, scale_affine(&slot(0), -0.5)),
            fixed(Gate::cx(a, b)),
        ],
        Cu3 => {
            // cu3(θ,φ,λ) = RZ((λ+φ)/2) c; RZ((λ−φ)/2) t; CX;
            //              U3(−θ/2, 0, −(φ+λ)/2) t; CX; U3(θ/2, φ, 0) t.
            let (th, ph, la) = (slot(0), slot(1), slot(2));
            let half_sum = scale_affine(&add_affine(&la, &ph), 0.5);
            let half_diff = scale_affine(&add_affine(&la, &scale_affine(&ph, -1.0)), 0.5);
            let mut v = vec![rz(a, half_sum.clone()), rz(b, half_diff)];
            v.push(fixed(Gate::cx(a, b)));
            v.extend(u3_affine(
                b,
                scale_affine(&th, -0.5),
                AffineAngle::constant(0.0),
                scale_affine(&half_sum, -1.0),
            ));
            v.push(fixed(Gate::cx(a, b)));
            v.extend(u3_affine(
                b,
                scale_affine(&th, 0.5),
                ph,
                AffineAngle::constant(0.0),
            ));
            v
        }
        Rzz => vec![
            fixed(Gate::cx(a, b)),
            rz(b, slot(0)),
            fixed(Gate::cx(a, b)),
        ],
        Rxx => {
            let mut v = lower_gate(&Gate::h(a), base);
            v.extend(lower_gate(&Gate::h(b), base));
            v.push(fixed(Gate::cx(a, b)));
            v.push(rz(b, slot(0)));
            v.push(fixed(Gate::cx(a, b)));
            v.extend(lower_gate(&Gate::h(a), base));
            v.extend(lower_gate(&Gate::h(b), base));
            v
        }
        Rzx => {
            let mut v = lower_gate(&Gate::h(b), base);
            v.push(fixed(Gate::cx(a, b)));
            v.push(rz(b, slot(0)));
            v.push(fixed(Gate::cx(a, b)));
            v.extend(lower_gate(&Gate::h(b), base));
            v
        }
        SqrtSwap => {
            // As in the numeric pass: RXX(π/4) · (Sdg ⊗ Sdg) · RXX(π/4) ·
            // (S ⊗ S) · RZZ(π/4), all constant angles.
            let t4 = FRAC_PI_2 / 2.0;
            let mut v = rxx_const(a, b, t4);
            v.push(rz(a, AffineAngle::constant(-FRAC_PI_2)));
            v.push(rz(b, AffineAngle::constant(-FRAC_PI_2)));
            v.extend(rxx_const(a, b, t4));
            v.push(rz(a, AffineAngle::constant(FRAC_PI_2)));
            v.push(rz(b, AffineAngle::constant(FRAC_PI_2)));
            v.extend(rzz_const(a, b, t4));
            v
        }
    }
}

fn rxx_const(a: usize, b: usize, theta: f64) -> Vec<Emit> {
    let mut v = lower_gate(&Gate::h(a), 0);
    v.extend(lower_gate(&Gate::h(b), 0));
    v.push(fixed(Gate::cx(a, b)));
    v.push(rz(b, AffineAngle::constant(theta)));
    v.push(fixed(Gate::cx(a, b)));
    v.extend(lower_gate(&Gate::h(a), 0));
    v.extend(lower_gate(&Gate::h(b), 0));
    v
}

fn rzz_const(a: usize, b: usize, theta: f64) -> Vec<Emit> {
    vec![
        fixed(Gate::cx(a, b)),
        rz(b, AffineAngle::constant(theta)),
        fixed(Gate::cx(a, b)),
    ]
}

/// Lowers a circuit to the basis set with affine parameter tracking.
///
/// # Examples
///
/// ```
/// use qnat_compiler::symbolic::lower_symbolic;
/// use qnat_sim::{circuit::Circuit, gate::Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::ry(0, 0.4));
/// c.push(Gate::cu3(0, 1, 0.2, 0.1, -0.3));
/// let sym = lower_symbolic(&c);
/// let bound = sym.bind(&[0.4, 0.2, 0.1, -0.3]);
/// assert!(bound.gates().iter().all(|g|
///     qnat_compiler::decompose::is_basis_gate(g.kind)));
/// ```
pub fn lower_symbolic(circuit: &Circuit) -> SymbolicLowered {
    let mut out = Circuit::new(circuit.n_qubits());
    let mut angles = Vec::new();
    let mut base = 0usize;
    for g in circuit.gates() {
        let emits = lower_gate(g, base);
        base += g.kind.param_count();
        for e in emits {
            debug_assert!(is_basis_gate(e.gate.kind), "lowering must emit basis gates");
            debug_assert_eq!(e.gate.kind.param_count(), e.angles.len());
            out.push(e.gate);
            angles.extend(e.angles);
        }
    }
    SymbolicLowered {
        circuit: out,
        angles,
        n_logical: circuit.n_params(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::equiv_up_to_phase;
    use qnat_sim::adjoint::adjoint_all_z;

    fn check_equiv(reference: &Circuit) {
        let sym = lower_symbolic(reference);
        let bound = sym.bind(&reference.parameters());
        assert!(
            equiv_up_to_phase(reference, &bound, 1e-8),
            "symbolic lowering changed unitary:\nref:\n{reference}\nlow:\n{bound}"
        );
        assert!(bound.gates().iter().all(|g| is_basis_gate(g.kind)));
    }

    #[test]
    fn lowering_matches_original_unitary() {
        let mut c = Circuit::new(3);
        c.push(Gate::ry(0, 0.7));
        c.push(Gate::rx(1, -0.4));
        c.push(Gate::u3(2, 0.5, 0.2, -0.9));
        c.push(Gate::cu3(0, 1, 0.8, -0.1, 0.3));
        c.push(Gate::rzz(1, 2, 0.6));
        c.push(Gate::rxx(0, 2, -0.5));
        c.push(Gate::rzx(0, 1, 1.2));
        c.push(Gate::crx(2, 0, 0.35));
        c.push(Gate::cry(1, 0, -0.8));
        c.push(Gate::crz(0, 2, 0.45));
        c.push(Gate::cp(1, 2, 0.66));
        check_equiv(&c);
    }

    #[test]
    fn lowering_fixed_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::sqrt_h(1));
        c.push(Gate::y(0));
        c.push(Gate::s(1));
        c.push(Gate::t(0));
        c.push(Gate::cz(0, 1));
        c.push(Gate::swap(0, 1));
        c.push(Gate::sqrt_swap(0, 1));
        c.push(Gate::sxdg(0));
        check_equiv(&c);
    }

    #[test]
    fn rebinding_matches_fresh_lowering() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.0));
        c.push(Gate::cu3(0, 1, 0.0, 0.0, 0.0));
        let sym = lower_symbolic(&c);
        let params = [0.9, -0.3, 0.5, 0.1];
        let bound = sym.bind(&params);
        let mut fresh = Circuit::new(2);
        fresh.push(Gate::ry(0, params[0]));
        fresh.push(Gate::cu3(0, 1, params[1], params[2], params[3]));
        assert!(equiv_up_to_phase(&fresh, &bound, 1e-8));
    }

    #[test]
    fn chained_gradients_match_logical_adjoint() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.6));
        c.push(Gate::rx(1, -0.2));
        c.push(Gate::cu3(0, 1, 0.7, 0.3, -0.4));
        c.push(Gate::rzz(0, 1, 0.5));
        let logical = adjoint_all_z(&c);
        let sym = lower_symbolic(&c);
        let bound = sym.bind(&c.parameters());
        let compiled = adjoint_all_z(&bound);
        for obs in 0..2 {
            let chained = sym.chain_gradient(&compiled.gradients[obs]);
            for (j, (&got, &want)) in chained
                .iter()
                .zip(&logical.gradients[obs])
                .enumerate()
            {
                assert!(
                    (got - want).abs() < 1e-8,
                    "obs {obs} param {j}: chained {got} vs logical {want}"
                );
            }
            assert!(
                (compiled.expectations[obs] - logical.expectations[obs]).abs() < 1e-8,
                "expectation mismatch"
            );
        }
    }

    #[test]
    fn affine_angle_eval() {
        let a = AffineAngle {
            constant: 1.0,
            terms: vec![(0, 2.0), (2, -0.5)],
        };
        assert!((a.eval(&[3.0, 9.9, 4.0]) - (1.0 + 6.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn structure_is_value_independent() {
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, 0.0)); // θ = 0 must NOT shrink the template
        let sym = lower_symbolic(&c);
        let at_zero = sym.bind(&[0.0]);
        let at_pi = sym.bind(&[PI]);
        assert_eq!(at_zero.len(), at_pi.len());
        let mut reference = Circuit::new(1);
        reference.push(Gate::ry(0, PI));
        assert!(equiv_up_to_phase(&reference, &at_pi, 1e-8));
    }
}
