//! Quantum gate library.
//!
//! Every gate used by the QuantumNAT design spaces and by the IBMQ basis set
//! is represented by [`Gate`]: Pauli gates, Clifford gates, parameterized
//! rotations (`RX`/`RY`/`RZ`/`P`/`U2`/`U3`), their controlled versions,
//! two-qubit entanglers (`CX`/`CY`/`CZ`/`SWAP`/`√SWAP`) and the Ising
//! couplers `RZZ`/`RXX`/`RZX` used by the `ZZ+RY` and `ZX+XX` design spaces.
//!
//! Each gate exposes its unitary matrix ([`Gate::matrix`]) and the analytic
//! derivative of that matrix with respect to each of its parameters
//! ([`Gate::d_matrix`]), which powers adjoint differentiation.

use crate::math::{Mat2, Mat4, C64};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// The kind of a quantum gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Identity (explicit, used by basis-gate sets).
    Id,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Square root of Hadamard (`√H`, used by the RXYZ design space).
    SqrtH,
    /// Phase gate S = √Z.
    S,
    /// S-dagger.
    Sdg,
    /// T = ⁴√Z.
    T,
    /// T-dagger.
    Tdg,
    /// Square root of X (IBMQ basis gate `sx`).
    Sx,
    /// SX-dagger.
    Sxdg,
    /// Rotation about X: `exp(-iθX/2)`.
    Rx,
    /// Rotation about Y: `exp(-iθY/2)`.
    Ry,
    /// Rotation about Z: `exp(-iθZ/2)`.
    Rz,
    /// Phase gate `P(λ) = diag(1, e^{iλ})` (a.k.a. U1).
    P,
    /// IBM U2(φ, λ).
    U2,
    /// IBM U3(θ, φ, λ) — general single-qubit rotation.
    U3,
    /// Controlled-X (CNOT).
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z.
    Cz,
    /// Controlled RX(θ).
    Crx,
    /// Controlled RY(θ).
    Cry,
    /// Controlled RZ(θ).
    Crz,
    /// Controlled phase CP(λ).
    Cp,
    /// Controlled U3(θ, φ, λ).
    Cu3,
    /// SWAP.
    Swap,
    /// Square root of SWAP.
    SqrtSwap,
    /// Ising ZZ coupling: `exp(-iθ Z⊗Z / 2)`.
    Rzz,
    /// Ising XX coupling: `exp(-iθ X⊗X / 2)`.
    Rxx,
    /// Ising ZX coupling: `exp(-iθ Z⊗X / 2)`.
    Rzx,
}

impl GateKind {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(self) -> usize {
        use GateKind::*;
        match self {
            Id | X | Y | Z | H | SqrtH | S | Sdg | T | Tdg | Sx | Sxdg | Rx | Ry | Rz | P | U2
            | U3 => 1,
            _ => 2,
        }
    }

    /// Number of real parameters the gate takes.
    pub fn param_count(self) -> usize {
        use GateKind::*;
        match self {
            Rx | Ry | Rz | P | Crx | Cry | Crz | Cp | Rzz | Rxx | Rzx => 1,
            U2 => 2,
            U3 | Cu3 => 3,
            _ => 0,
        }
    }

    /// Lower-case mnemonic, matching common OpenQASM names.
    pub fn name(self) -> &'static str {
        use GateKind::*;
        match self {
            Id => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            SqrtH => "sh",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx => "rx",
            Ry => "ry",
            Rz => "rz",
            P => "p",
            U2 => "u2",
            U3 => "u3",
            Cx => "cx",
            Cy => "cy",
            Cz => "cz",
            Crx => "crx",
            Cry => "cry",
            Crz => "crz",
            Cp => "cp",
            Cu3 => "cu3",
            Swap => "swap",
            SqrtSwap => "sqswap",
            Rzz => "rzz",
            Rxx => "rxx",
            Rzx => "rzx",
        }
    }

    /// Every gate kind, in declaration order.
    pub const ALL: [GateKind; 31] = {
        use GateKind::*;
        [
            Id, X, Y, Z, H, SqrtH, S, Sdg, T, Tdg, Sx, Sxdg, Rx, Ry, Rz, P, U2, U3, Cx, Cy, Cz,
            Crx, Cry, Crz, Cp, Cu3, Swap, SqrtSwap, Rzz, Rxx, Rzx,
        ]
    };

    /// Inverse of [`GateKind::name`]: the kind for a lower-case mnemonic,
    /// or `None` for an unknown name. Used by wire formats that ship
    /// circuits as text.
    pub fn from_name(name: &str) -> Option<GateKind> {
        GateKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The unitary matrix of a gate: 2×2 for single-qubit, 4×4 for two-qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateMatrix {
    /// Single-qubit matrix.
    One(Mat2),
    /// Two-qubit matrix in the basis `|q_first q_second⟩`
    /// (index = 2·bit(first) + bit(second)).
    Two(Mat4),
}

/// A gate instance: kind, target qubits and bound parameters.
///
/// # Examples
///
/// ```
/// use qnat_sim::gate::Gate;
/// let g = Gate::ry(0, std::f64::consts::FRAC_PI_2);
/// assert_eq!(g.arity(), 1);
/// assert_eq!(g.kind.param_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// What gate this is.
    pub kind: GateKind,
    /// Target qubits; for two-qubit gates `qubits[0]` is the control (or
    /// first) qubit and `qubits[1]` the target (or second). For single-qubit
    /// gates only `qubits[0]` is meaningful.
    pub qubits: [usize; 2],
    /// Bound parameter values; only the first `kind.param_count()` entries
    /// are meaningful.
    pub params: [f64; 3],
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.name())?;
        let np = self.kind.param_count();
        if np > 0 {
            write!(f, "(")?;
            for (i, p) in self.params.iter().take(np).enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p:.4}")?;
            }
            write!(f, ")")?;
        }
        write!(f, " q{}", self.qubits[0])?;
        if self.arity() == 2 {
            write!(f, ",q{}", self.qubits[1])?;
        }
        Ok(())
    }
}

macro_rules! fixed_1q {
    ($($fn_name:ident => $kind:ident),* $(,)?) => {
        $(
            #[doc = concat!("Creates a `", stringify!($kind), "` gate on `q`.")]
            pub fn $fn_name(q: usize) -> Gate {
                Gate { kind: GateKind::$kind, qubits: [q, usize::MAX], params: [0.0; 3] }
            }
        )*
    };
}

macro_rules! rot_1q {
    ($($fn_name:ident => $kind:ident),* $(,)?) => {
        $(
            #[doc = concat!("Creates a `", stringify!($kind), "(theta)` gate on `q`.")]
            pub fn $fn_name(q: usize, theta: f64) -> Gate {
                Gate { kind: GateKind::$kind, qubits: [q, usize::MAX], params: [theta, 0.0, 0.0] }
            }
        )*
    };
}

macro_rules! fixed_2q {
    ($($fn_name:ident => $kind:ident),* $(,)?) => {
        $(
            #[doc = concat!("Creates a `", stringify!($kind), "` gate on `(a, b)`.")]
            pub fn $fn_name(a: usize, b: usize) -> Gate {
                Gate { kind: GateKind::$kind, qubits: [a, b], params: [0.0; 3] }
            }
        )*
    };
}

macro_rules! rot_2q {
    ($($fn_name:ident => $kind:ident),* $(,)?) => {
        $(
            #[doc = concat!("Creates a `", stringify!($kind), "(theta)` gate on `(a, b)`.")]
            pub fn $fn_name(a: usize, b: usize, theta: f64) -> Gate {
                Gate { kind: GateKind::$kind, qubits: [a, b], params: [theta, 0.0, 0.0] }
            }
        )*
    };
}

impl Gate {
    fixed_1q! {
        id => Id, x => X, y => Y, z => Z, h => H, sqrt_h => SqrtH,
        s => S, sdg => Sdg, t => T, tdg => Tdg, sx => Sx, sxdg => Sxdg,
    }
    rot_1q! { rx => Rx, ry => Ry, rz => Rz, p => P }
    fixed_2q! { cx => Cx, cy => Cy, cz => Cz, swap => Swap, sqrt_swap => SqrtSwap }
    rot_2q! { crx => Crx, cry => Cry, crz => Crz, cp => Cp, rzz => Rzz, rxx => Rxx, rzx => Rzx }

    /// Creates a `U2(phi, lambda)` gate on `q`.
    pub fn u2(q: usize, phi: f64, lambda: f64) -> Gate {
        Gate {
            kind: GateKind::U2,
            qubits: [q, usize::MAX],
            params: [phi, lambda, 0.0],
        }
    }

    /// Creates a `U3(theta, phi, lambda)` gate on `q`.
    pub fn u3(q: usize, theta: f64, phi: f64, lambda: f64) -> Gate {
        Gate {
            kind: GateKind::U3,
            qubits: [q, usize::MAX],
            params: [theta, phi, lambda],
        }
    }

    /// Creates a controlled `U3(theta, phi, lambda)` with control `c` and
    /// target `t`.
    pub fn cu3(c: usize, t: usize, theta: f64, phi: f64, lambda: f64) -> Gate {
        Gate {
            kind: GateKind::Cu3,
            qubits: [c, t],
            params: [theta, phi, lambda],
        }
    }

    /// Number of qubits this gate acts on.
    pub fn arity(&self) -> usize {
        self.kind.arity()
    }

    /// `true` if the gate carries at least one continuous parameter.
    pub fn is_parameterized(&self) -> bool {
        self.kind.param_count() > 0
    }

    /// The unitary matrix of this gate with its bound parameters.
    pub fn matrix(&self) -> GateMatrix {
        match self.arity() {
            1 => GateMatrix::One(self.matrix1()),
            _ => GateMatrix::Two(self.matrix2()),
        }
    }

    /// The 2×2 matrix for a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if called on a two-qubit gate.
    pub fn matrix1(&self) -> Mat2 {
        use GateKind::*;
        let o = C64::ZERO;
        let l = C64::ONE;
        let i = C64::I;
        let [a, b, c] = self.params;
        match self.kind {
            Id => [[l, o], [o, l]],
            X => [[o, l], [l, o]],
            Y => [[o, -i], [i, o]],
            Z => [[l, o], [o, -l]],
            H => {
                let s = C64::real(FRAC_1_SQRT_2);
                [[s, s], [s, -s]]
            }
            SqrtH => {
                // √H = (1+i)/2 · I + (1-i)/2 · H  (principal square root).
                let p = C64::new(0.5, 0.5);
                let m = C64::new(0.5, -0.5);
                let s = C64::real(FRAC_1_SQRT_2);
                [[p + m * s, m * s], [m * s, p - m * s]]
            }
            S => [[l, o], [o, i]],
            Sdg => [[l, o], [o, -i]],
            T => [[l, o], [o, C64::cis(std::f64::consts::FRAC_PI_4)]],
            Tdg => [[l, o], [o, C64::cis(-std::f64::consts::FRAC_PI_4)]],
            Sx => {
                let p = C64::new(0.5, 0.5);
                let m = C64::new(0.5, -0.5);
                [[p, m], [m, p]]
            }
            Sxdg => {
                let p = C64::new(0.5, 0.5);
                let m = C64::new(0.5, -0.5);
                [[m, p], [p, m]]
            }
            Rx => {
                let (ch, sh) = ((a / 2.0).cos(), (a / 2.0).sin());
                [
                    [C64::real(ch), C64::new(0.0, -sh)],
                    [C64::new(0.0, -sh), C64::real(ch)],
                ]
            }
            Ry => {
                let (ch, sh) = ((a / 2.0).cos(), (a / 2.0).sin());
                [
                    [C64::real(ch), C64::real(-sh)],
                    [C64::real(sh), C64::real(ch)],
                ]
            }
            // One `cis` for both entries: libm's cos is even and its sin
            // odd, so `cis(−a/2)` is bitwise `cis(a/2)` conjugated.
            Rz => {
                let h = C64::cis(a / 2.0);
                [[h.conj(), o], [o, h]]
            }
            P => [[l, o], [o, C64::cis(a)]],
            U2 => {
                let s = FRAC_1_SQRT_2;
                [
                    [C64::real(s), -C64::cis(b) * s],
                    [C64::cis(a) * s, C64::cis(a + b) * s],
                ]
            }
            U3 => {
                let (ch, sh) = ((a / 2.0).cos(), (a / 2.0).sin());
                [
                    [C64::real(ch), -C64::cis(c) * sh],
                    [C64::cis(b) * sh, C64::cis(b + c) * ch],
                ]
            }
            _ => panic!("matrix1 called on two-qubit gate {:?}", self.kind),
        }
    }

    /// The 4×4 matrix for a two-qubit gate, in the basis
    /// `index = 2·bit(qubits[0]) + bit(qubits[1])`.
    ///
    /// # Panics
    ///
    /// Panics if called on a single-qubit gate.
    pub fn matrix2(&self) -> Mat4 {
        use GateKind::*;
        let o = C64::ZERO;
        let l = C64::ONE;
        let i = C64::I;
        let [a, b, c] = self.params;
        let controlled = |u: Mat2| -> Mat4 {
            [
                [l, o, o, o],
                [o, l, o, o],
                [o, o, u[0][0], u[0][1]],
                [o, o, u[1][0], u[1][1]],
            ]
        };
        match self.kind {
            Cx => controlled([[o, l], [l, o]]),
            Cy => controlled([[o, -i], [i, o]]),
            Cz => controlled([[l, o], [o, -l]]),
            Crx => controlled(Gate::rx(0, a).matrix1()),
            Cry => controlled(Gate::ry(0, a).matrix1()),
            Crz => controlled(Gate::rz(0, a).matrix1()),
            Cp => controlled([[l, o], [o, C64::cis(a)]]),
            Cu3 => controlled(Gate::u3(0, a, b, c).matrix1()),
            Swap => [[l, o, o, o], [o, o, l, o], [o, l, o, o], [o, o, o, l]],
            SqrtSwap => {
                let p = C64::new(0.5, 0.5);
                let m = C64::new(0.5, -0.5);
                [[l, o, o, o], [o, p, m, o], [o, m, p, o], [o, o, o, l]]
            }
            Rzz => {
                let e_m = C64::cis(-a / 2.0);
                let e_p = C64::cis(a / 2.0);
                [
                    [e_m, o, o, o],
                    [o, e_p, o, o],
                    [o, o, e_p, o],
                    [o, o, o, e_m],
                ]
            }
            Rxx => {
                let ch = C64::real((a / 2.0).cos());
                let sh = C64::new(0.0, -(a / 2.0).sin());
                [
                    [ch, o, o, sh],
                    [o, ch, sh, o],
                    [o, sh, ch, o],
                    [sh, o, o, ch],
                ]
            }
            Rzx => {
                // exp(-iθ/2 · Z⊗X): block-diagonal in the first qubit;
                // RX(θ) when q0=|0⟩, RX(-θ) when q0=|1⟩.
                let ch = C64::real((a / 2.0).cos());
                let sm = C64::new(0.0, -(a / 2.0).sin());
                let sp = C64::new(0.0, (a / 2.0).sin());
                [
                    [ch, sm, o, o],
                    [sm, ch, o, o],
                    [o, o, ch, sp],
                    [o, o, sp, ch],
                ]
            }
            _ => panic!("matrix2 called on single-qubit gate {:?}", self.kind),
        }
    }

    /// Derivative of the gate matrix with respect to parameter `slot`
    /// (0-based). Used by adjoint differentiation.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= kind.param_count()`.
    pub fn d_matrix(&self, slot: usize) -> GateMatrix {
        assert!(
            slot < self.kind.param_count(),
            "gate {:?} has no parameter slot {slot}",
            self.kind
        );
        use GateKind::*;
        let o = C64::ZERO;
        let i = C64::I;
        let [a, b, c] = self.params;
        let h = 0.5;
        match self.kind {
            Rx => {
                let (ch, sh) = ((a / 2.0).cos() * h, (a / 2.0).sin() * h);
                GateMatrix::One([
                    [C64::real(-sh), C64::new(0.0, -ch)],
                    [C64::new(0.0, -ch), C64::real(-sh)],
                ])
            }
            Ry => {
                let (ch, sh) = ((a / 2.0).cos() * h, (a / 2.0).sin() * h);
                GateMatrix::One([
                    [C64::real(-sh), C64::real(-ch)],
                    [C64::real(ch), C64::real(-sh)],
                ])
            }
            Rz => GateMatrix::One([
                [C64::cis(-a / 2.0) * C64::new(0.0, -h), o],
                [o, C64::cis(a / 2.0) * C64::new(0.0, h)],
            ]),
            P => GateMatrix::One([[o, o], [o, i * C64::cis(a)]]),
            U2 => {
                let s = FRAC_1_SQRT_2;
                match slot {
                    0 => GateMatrix::One([[o, o], [i * C64::cis(a) * s, i * C64::cis(a + b) * s]]),
                    _ => GateMatrix::One([[o, -i * C64::cis(b) * s], [o, i * C64::cis(a + b) * s]]),
                }
            }
            U3 => {
                let (ch, sh) = ((a / 2.0).cos(), (a / 2.0).sin());
                match slot {
                    0 => GateMatrix::One([
                        [C64::real(-sh * h), -C64::cis(c) * (ch * h)],
                        [C64::cis(b) * (ch * h), C64::cis(b + c) * (-sh * h)],
                    ]),
                    1 => {
                        GateMatrix::One([[o, o], [i * C64::cis(b) * sh, i * C64::cis(b + c) * ch]])
                    }
                    _ => {
                        GateMatrix::One([[o, -i * C64::cis(c) * sh], [o, i * C64::cis(b + c) * ch]])
                    }
                }
            }
            Crx | Cry | Crz | Cp | Cu3 => {
                // Controlled gates: derivative only lives in the |1⟩⟨1| block.
                let inner = match self.kind {
                    Crx => Gate::rx(0, a),
                    Cry => Gate::ry(0, a),
                    Crz => Gate::rz(0, a),
                    Cp => Gate::p(0, a),
                    _ => Gate::u3(0, a, b, c),
                };
                let du = match inner.d_matrix(slot) {
                    GateMatrix::One(m) => m,
                    GateMatrix::Two(_) => unreachable!(),
                };
                GateMatrix::Two([
                    [o, o, o, o],
                    [o, o, o, o],
                    [o, o, du[0][0], du[0][1]],
                    [o, o, du[1][0], du[1][1]],
                ])
            }
            Rzz => {
                let dm = C64::cis(-a / 2.0) * C64::new(0.0, -h);
                let dp = C64::cis(a / 2.0) * C64::new(0.0, h);
                GateMatrix::Two([[dm, o, o, o], [o, dp, o, o], [o, o, dp, o], [o, o, o, dm]])
            }
            Rxx => {
                let ch = C64::real(-(a / 2.0).sin() * h);
                let sh = C64::new(0.0, -(a / 2.0).cos() * h);
                GateMatrix::Two([
                    [ch, o, o, sh],
                    [o, ch, sh, o],
                    [o, sh, ch, o],
                    [sh, o, o, ch],
                ])
            }
            Rzx => {
                let dch = C64::real(-(a / 2.0).sin() * h);
                let dsm = C64::new(0.0, -(a / 2.0).cos() * h);
                let dsp = C64::new(0.0, (a / 2.0).cos() * h);
                GateMatrix::Two([
                    [dch, dsm, o, o],
                    [dsm, dch, o, o],
                    [o, o, dch, dsp],
                    [o, o, dsp, dch],
                ])
            }
            _ => unreachable!("non-parameterized gate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{mat2_is_unitary, mat2_mul, mat4_is_unitary, mat4_mul};
    use std::f64::consts::PI;

    /// `Rz` builds its matrix from one `cis`; that must equal the two-`cis`
    /// form bit for bit, which holds because libm's cos is even and its
    /// sin odd.
    #[test]
    fn rz_matrix_is_bitwise_the_two_cis_form() {
        let mut a = -40.0f64;
        while a < 40.0 {
            let m = Gate::rz(0, a).matrix1();
            for (got, want) in [(m[0][0], C64::cis(-a / 2.0)), (m[1][1], C64::cis(a / 2.0))] {
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "angle {a}");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "angle {a}");
            }
            a += 0.0137;
        }
    }

    #[test]
    fn from_name_inverts_name_for_every_kind() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_name(kind.name()), Some(kind), "{kind:?}");
        }
        assert_eq!(GateKind::from_name("nope"), None);
        assert_eq!(GateKind::from_name("CX"), None, "names are lower-case");
    }

    fn all_sample_gates() -> Vec<Gate> {
        vec![
            Gate::id(0),
            Gate::x(0),
            Gate::y(0),
            Gate::z(0),
            Gate::h(0),
            Gate::sqrt_h(0),
            Gate::s(0),
            Gate::sdg(0),
            Gate::t(0),
            Gate::tdg(0),
            Gate::sx(0),
            Gate::sxdg(0),
            Gate::rx(0, 0.37),
            Gate::ry(0, -1.2),
            Gate::rz(0, 2.5),
            Gate::p(0, 0.9),
            Gate::u2(0, 0.4, -0.7),
            Gate::u3(0, 1.1, 0.3, -0.5),
            Gate::cx(0, 1),
            Gate::cy(0, 1),
            Gate::cz(0, 1),
            Gate::crx(0, 1, 0.8),
            Gate::cry(0, 1, -0.6),
            Gate::crz(0, 1, 1.7),
            Gate::cp(0, 1, 0.55),
            Gate::cu3(0, 1, 0.9, -0.2, 0.4),
            Gate::swap(0, 1),
            Gate::sqrt_swap(0, 1),
            Gate::rzz(0, 1, 0.33),
            Gate::rxx(0, 1, -0.9),
            Gate::rzx(0, 1, 1.4),
        ]
    }

    #[test]
    fn all_gate_matrices_are_unitary() {
        for g in all_sample_gates() {
            match g.matrix() {
                GateMatrix::One(m) => assert!(mat2_is_unitary(&m, 1e-12), "{g} not unitary"),
                GateMatrix::Two(m) => assert!(mat4_is_unitary(&m, 1e-12), "{g} not unitary"),
            }
        }
    }

    #[test]
    fn sqrt_gates_square_to_their_base() {
        let sh = match Gate::sqrt_h(0).matrix() {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let h = match Gate::h(0).matrix() {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let sq = mat2_mul(&sh, &sh);
        for i in 0..2 {
            for j in 0..2 {
                assert!(sq[i][j].approx_eq(h[i][j], 1e-12), "√H² ≠ H at ({i},{j})");
            }
        }
        let sx = match Gate::sx(0).matrix() {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let x = match Gate::x(0).matrix() {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let sq = mat2_mul(&sx, &sx);
        for i in 0..2 {
            for j in 0..2 {
                assert!(sq[i][j].approx_eq(x[i][j], 1e-12), "SX² ≠ X at ({i},{j})");
            }
        }
        let ss = match Gate::sqrt_swap(0, 1).matrix() {
            GateMatrix::Two(m) => m,
            _ => unreachable!(),
        };
        let sw = match Gate::swap(0, 1).matrix() {
            GateMatrix::Two(m) => m,
            _ => unreachable!(),
        };
        let sq = mat4_mul(&ss, &ss);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    sq[i][j].approx_eq(sw[i][j], 1e-12),
                    "√SWAP² ≠ SWAP at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        for g in [Gate::rx(0, 0.0), Gate::ry(0, 0.0), Gate::rz(0, 0.0)] {
            let m = g.matrix1();
            assert!(m[0][0].approx_eq(C64::ONE, 1e-15));
            assert!(m[1][1].approx_eq(C64::ONE, 1e-15));
            assert!(m[0][1].approx_eq(C64::ZERO, 1e-15));
            assert!(m[1][0].approx_eq(C64::ZERO, 1e-15));
        }
    }

    #[test]
    fn rx_at_pi_equals_minus_i_x() {
        let m = Gate::rx(0, PI).matrix1();
        assert!(m[0][1].approx_eq(C64::new(0.0, -1.0), 1e-12));
        assert!(m[1][0].approx_eq(C64::new(0.0, -1.0), 1e-12));
        assert!(m[0][0].approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn u3_reduces_to_ry_and_rz() {
        // U3(θ, 0, 0) = RY(θ).
        let u = Gate::u3(0, 0.7, 0.0, 0.0).matrix1();
        let r = Gate::ry(0, 0.7).matrix1();
        for i in 0..2 {
            for j in 0..2 {
                assert!(u[i][j].approx_eq(r[i][j], 1e-12));
            }
        }
        // U3(0, 0, λ) = P(λ).
        let u = Gate::u3(0, 0.0, 0.0, 1.3).matrix1();
        let p = Gate::p(0, 1.3).matrix1();
        for i in 0..2 {
            for j in 0..2 {
                assert!(u[i][j].approx_eq(p[i][j], 1e-12));
            }
        }
    }

    #[test]
    fn d_matrix_matches_finite_difference() {
        let eps = 1e-6;
        let paramd: Vec<Gate> = all_sample_gates()
            .into_iter()
            .filter(|g| g.is_parameterized())
            .collect();
        assert!(!paramd.is_empty());
        for g in paramd {
            for slot in 0..g.kind.param_count() {
                let mut gp = g;
                gp.params[slot] += eps;
                let mut gm = g;
                gm.params[slot] -= eps;
                match (g.d_matrix(slot), gp.matrix(), gm.matrix()) {
                    (GateMatrix::One(d), GateMatrix::One(p), GateMatrix::One(m)) => {
                        for i in 0..2 {
                            for j in 0..2 {
                                let fd = (p[i][j] - m[i][j]).scale(1.0 / (2.0 * eps));
                                assert!(
                                    d[i][j].approx_eq(fd, 1e-6),
                                    "{g} slot {slot} ({i},{j}): {} vs fd {}",
                                    d[i][j],
                                    fd
                                );
                            }
                        }
                    }
                    (GateMatrix::Two(d), GateMatrix::Two(p), GateMatrix::Two(m)) => {
                        for i in 0..4 {
                            for j in 0..4 {
                                let fd = (p[i][j] - m[i][j]).scale(1.0 / (2.0 * eps));
                                assert!(
                                    d[i][j].approx_eq(fd, 1e-6),
                                    "{g} slot {slot} ({i},{j}): {} vs fd {}",
                                    d[i][j],
                                    fd
                                );
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn display_formats_gates() {
        assert_eq!(Gate::cx(1, 3).to_string(), "cx q1,q3");
        assert_eq!(Gate::ry(2, 0.5).to_string(), "ry(0.5000) q2");
    }
}
