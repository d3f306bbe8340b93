//! Quantum circuit representation.
//!
//! A [`Circuit`] is an ordered list of [`Gate`]s over a fixed qubit register.
//! Circuits are plain data: simulators ([`crate::statevector`],
//! [`crate::density`]), the transpiler and the noise-injection machinery all
//! consume them.

use crate::gate::{Gate, GateKind, GateMatrix};
use crate::math::{mat2_dagger, mat4_dagger};
use std::error::Error;
use std::fmt;

/// Error returned when a gate references a qubit outside the register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitOutOfRangeError {
    /// The offending qubit index.
    pub qubit: usize,
    /// The register size.
    pub n_qubits: usize,
}

impl fmt::Display for QubitOutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qubit index {} out of range for {}-qubit register",
            self.qubit, self.n_qubits
        )
    }
}

impl Error for QubitOutOfRangeError {}

/// An ordered sequence of gates over `n_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qnat_sim::circuit::Circuit;
/// use qnat_sim::gate::Gate;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::h(0));
/// c.push(Gate::cx(0, 1));
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Mutable access to the gates (used by optimization passes).
    pub fn gates_mut(&mut self) -> &mut Vec<Gate> {
        &mut self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register. Use
    /// [`Circuit::try_push`] for a fallible variant.
    pub fn push(&mut self, gate: Gate) {
        self.try_push(gate).expect("gate qubit out of range");
    }

    /// Appends a gate, validating its qubit indices.
    ///
    /// # Errors
    ///
    /// Returns [`QubitOutOfRangeError`] if a target qubit index is `>=
    /// n_qubits`, or if a two-qubit gate addresses the same qubit twice.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), QubitOutOfRangeError> {
        for k in 0..gate.arity() {
            if gate.qubits[k] >= self.n_qubits {
                return Err(QubitOutOfRangeError {
                    qubit: gate.qubits[k],
                    n_qubits: self.n_qubits,
                });
            }
        }
        if gate.arity() == 2 && gate.qubits[0] == gate.qubits[1] {
            return Err(QubitOutOfRangeError {
                qubit: gate.qubits[0],
                n_qubits: self.n_qubits,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends all gates of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different register size.
    pub fn append(&mut self, other: &Circuit) {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "cannot append circuit over {} qubits to one over {}",
            other.n_qubits, self.n_qubits
        );
        self.gates.extend_from_slice(&other.gates);
    }

    /// The circuit implementing the inverse (adjoint) unitary: gates reversed
    /// with each gate inverted.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits);
        for g in self.gates.iter().rev() {
            inv.gates.push(invert_gate(g));
        }
        inv
    }

    /// Circuit depth: the longest chain of gates on any single qubit, with
    /// two-qubit gates synchronizing both their qubits.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        for g in &self.gates {
            match g.arity() {
                1 => level[g.qubits[0]] += 1,
                _ => {
                    let l = level[g.qubits[0]].max(level[g.qubits[1]]) + 1;
                    level[g.qubits[0]] = l;
                    level[g.qubits[1]] = l;
                }
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// Counts gates of a given kind.
    pub fn count_kind(&self, kind: GateKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }

    /// Counts two-qubit gates.
    pub fn count_two_qubit(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() == 2).count()
    }

    /// Indices (into `gates()`) of parameterized gates together with their
    /// parameter slot counts, in execution order. This is the flattened
    /// parameter layout used by the gradient engines.
    pub fn param_slots(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (gi, g) in self.gates.iter().enumerate() {
            for slot in 0..g.kind.param_count() {
                out.push((gi, slot));
            }
        }
        out
    }

    /// Total number of continuous parameters across all gates.
    pub fn n_params(&self) -> usize {
        self.gates.iter().map(|g| g.kind.param_count()).sum()
    }

    /// Reads all gate parameters into a flat vector (same order as
    /// [`Circuit::param_slots`]).
    pub fn parameters(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.n_params());
        for g in &self.gates {
            v.extend_from_slice(&g.params[..g.kind.param_count()]);
        }
        v
    }

    /// A 64-bit structural fingerprint of the circuit: FNV-1a over the
    /// register size and every gate's kind, qubits, and exact parameter
    /// bits. Two circuits with equal fingerprints are (modulo hash
    /// collisions) the same gate list, so the compiled-circuit cache keys
    /// on this — differently-bound parameters hash differently.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.n_qubits as u64);
        for g in &self.gates {
            mix(g.kind as u64);
            mix(g.qubits[0] as u64);
            mix(g.qubits[1] as u64);
            for slot in 0..g.kind.param_count() {
                mix(g.params[slot].to_bits());
            }
        }
        h
    }

    /// Writes a flat parameter vector back into the gates.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_params()`.
    pub fn set_parameters(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.n_params(), "parameter count mismatch");
        let mut it = values.iter();
        for g in &mut self.gates {
            for slot in 0..g.kind.param_count() {
                g.params[slot] = *it.next().expect("length checked");
            }
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} gates]", self.n_qubits, self.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

/// Returns a gate implementing the inverse unitary of `g`, or `None`
/// for the two kinds with no closed-form single-gate inverse in the
/// gate set (`SqrtH`, `SqrtSwap`). Callers that must invert those can
/// use the commuting two-gate identity `g⁻¹ = g·base` (where
/// `base = g²` is `H` resp. `SWAP`, self-inverse and commuting with its
/// own square root) — the compiler's folding pass does exactly that.
pub fn try_invert_gate(g: &Gate) -> Option<Gate> {
    use GateKind::*;
    match g.kind {
        SqrtH | SqrtSwap => None,
        _ => Some(invert_gate(g)),
    }
}

/// Returns a gate implementing the inverse unitary of `g`.
pub fn invert_gate(g: &Gate) -> Gate {
    use GateKind::*;
    let mut out = *g;
    match g.kind {
        // Self-inverse gates.
        Id | X | Y | Z | H | Cx | Cy | Cz | Swap => {}
        S => out.kind = Sdg,
        Sdg => out.kind = S,
        T => out.kind = Tdg,
        Tdg => out.kind = T,
        Sx => out.kind = Sxdg,
        Sxdg => out.kind = Sx,
        Rx | Ry | Rz | P | Crx | Cry | Crz | Cp | Rzz | Rxx | Rzx => {
            out.params[0] = -g.params[0];
        }
        U2 => {
            // U2(φ,λ)† = U3(-π/2, -λ, -φ).
            out.kind = U3;
            out.params = [-std::f64::consts::FRAC_PI_2, -g.params[1], -g.params[0]];
        }
        U3 => {
            out.params = [-g.params[0], -g.params[2], -g.params[1]];
        }
        Cu3 => {
            out.params = [-g.params[0], -g.params[2], -g.params[1]];
        }
        SqrtH | SqrtSwap => {
            // No named inverse in the gate set; callers that need the
            // inverse of these apply three more copies (order 8 for √H is
            // false in general), so instead we signal via panic — the
            // transpiler never emits them and the ansätze never invert.
            panic!(
                "no closed-form inverse gate for {:?} in the gate set",
                g.kind
            )
        }
    }
    out
}

/// Verifies that `inverse` really is the matrix inverse of `g` (test helper,
/// also used by property tests in dependent crates).
pub fn is_inverse_pair(g: &Gate, inv: &Gate) -> bool {
    match (g.matrix(), inv.matrix()) {
        (GateMatrix::One(a), GateMatrix::One(b)) => {
            let want = mat2_dagger(&a);
            (0..2).all(|i| (0..2).all(|j| b[i][j].approx_eq(want[i][j], 1e-10)))
        }
        (GateMatrix::Two(a), GateMatrix::Two(b)) => {
            let want = mat4_dagger(&a);
            (0..4).all(|i| (0..4).all(|j| b[i][j].approx_eq(want[i][j], 1e-10)))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c
    }

    #[test]
    fn push_validates_qubits() {
        let mut c = Circuit::new(2);
        assert!(c.try_push(Gate::x(2)).is_err());
        assert!(c.try_push(Gate::cx(0, 0)).is_err());
        assert!(c.try_push(Gate::cx(0, 1)).is_ok());
    }

    #[test]
    fn depth_synchronizes_two_qubit_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        c.push(Gate::cx(0, 1)); // depth 2 on q0,q1
        c.push(Gate::x(2)); // depth 1 on q2
        c.push(Gate::cx(1, 2)); // max(2,1)+1 = 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn parameters_round_trip() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.1));
        c.push(Gate::cu3(0, 1, 0.2, 0.3, 0.4));
        c.push(Gate::h(1));
        c.push(Gate::rz(1, 0.5));
        let p = c.parameters();
        assert_eq!(p, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let q: Vec<f64> = p.iter().map(|x| x * 2.0).collect();
        c.set_parameters(&q);
        assert_eq!(c.parameters(), q);
        assert_eq!(c.n_params(), 5);
        assert_eq!(c.param_slots().len(), 5);
    }

    #[test]
    fn inverse_gates_are_matrix_daggers() {
        let samples = vec![
            Gate::x(0),
            Gate::h(0),
            Gate::s(0),
            Gate::t(0),
            Gate::sx(0),
            Gate::rx(0, 0.7),
            Gate::ry(0, -0.3),
            Gate::rz(0, 1.9),
            Gate::p(0, 0.4),
            Gate::u2(0, 0.5, -0.2),
            Gate::u3(0, 0.6, 0.1, -0.8),
            Gate::cx(0, 1),
            Gate::cz(0, 1),
            Gate::crx(0, 1, 0.9),
            Gate::cu3(0, 1, 0.2, 0.7, -0.4),
            Gate::swap(0, 1),
            Gate::rzz(0, 1, 0.6),
            Gate::rxx(0, 1, -1.1),
            Gate::rzx(0, 1, 0.35),
        ];
        for g in samples {
            let inv = invert_gate(&g);
            assert!(is_inverse_pair(&g, &inv), "inverse wrong for {g}");
            assert_eq!(try_invert_gate(&g), Some(inv));
        }
    }

    #[test]
    fn try_invert_declines_roots_instead_of_panicking() {
        assert_eq!(try_invert_gate(&Gate::sqrt_h(0)), None);
        assert_eq!(try_invert_gate(&Gate::sqrt_swap(0, 1)), None);
    }

    #[test]
    fn fingerprint_separates_structure_and_params() {
        let a = bell();
        let b = bell();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different parameter bits → different key.
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.1));
        let mut d = Circuit::new(2);
        d.push(Gate::ry(0, 0.2));
        assert_ne!(c.fingerprint(), d.fingerprint());
        // Different qubit targets → different key.
        let mut e = Circuit::new(2);
        e.push(Gate::ry(1, 0.1));
        assert_ne!(c.fingerprint(), e.fingerprint());
        // Different register size alone → different key.
        assert_ne!(Circuit::new(2).fingerprint(), Circuit::new(3).fingerprint());
    }

    #[test]
    fn circuit_inverse_reverses_order() {
        let c = bell();
        let inv = c.inverse();
        assert_eq!(inv.gates()[0].kind, GateKind::Cx);
        assert_eq!(inv.gates()[1].kind, GateKind::H);
    }

    #[test]
    fn append_and_counts() {
        let mut c = bell();
        c.append(&bell());
        assert_eq!(c.len(), 4);
        assert_eq!(c.count_kind(GateKind::H), 2);
        assert_eq!(c.count_two_qubit(), 2);
    }

    #[test]
    fn display_lists_gates() {
        let s = bell().to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0,q1"));
    }
}
