//! Trainable quantum layers — the five design spaces of the paper.
//!
//! * `U3+CU3` (default, §4.1): U3 on every qubit alternating with CU3 on a
//!   ring — one U3 + one CU3 layer on 4 qubits is 24 parameters, matching
//!   the paper's count.
//! * `ZZ+RY` [Lloyd et al.]: parameterized ZZ ring + RY layer.
//! * `RXYZ` [McClean et al.]: √H, RX, RY, RZ, CZ-ring.
//! * `ZX+XX` [Farhi & Neven]: parameterized ZX ring + XX ring.
//! * `RXYZ+U1+CU3` [Henderson et al.]: 11 sub-layers
//!   RX, S, CNOT, RY, T, SWAP, RZ, H, √SWAP, U1, CU3.

use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;

/// The QNN design spaces evaluated in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSpace {
    /// Interleaved U3 / CU3 layers (the paper's default).
    U3Cu3,
    /// ZZ ring + RY.
    ZzRy,
    /// √H, RX, RY, RZ, CZ ring.
    Rxyz,
    /// ZX ring + XX ring.
    ZxXx,
    /// RX, S, CNOT, RY, T, SWAP, RZ, H, √SWAP, U1, CU3.
    RxyzU1Cu3,
}

/// Ring pairs `(i, i+1 mod n)`; a 2-qubit register yields the single pair
/// `(0, 1)`, a 1-qubit register none.
pub fn ring_pairs(n: usize) -> Vec<(usize, usize)> {
    match n {
        0 | 1 => Vec::new(),
        2 => vec![(0, 1)],
        _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
    }
}

/// Even/odd nearest-neighbour pairs used by the SWAP/√SWAP sub-layers.
fn brick_pairs(n: usize, offset: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = offset;
    while i + 1 < n {
        out.push((i, i + 1));
        i += 2;
    }
    out
}

impl DesignSpace {
    /// All design spaces in the paper's Table 2 order (plus the default).
    pub fn all() -> [DesignSpace; 5] {
        [
            DesignSpace::U3Cu3,
            DesignSpace::ZzRy,
            DesignSpace::Rxyz,
            DesignSpace::ZxXx,
            DesignSpace::RxyzU1Cu3,
        ]
    }

    /// Short name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DesignSpace::U3Cu3 => "U3+CU3",
            DesignSpace::ZzRy => "ZZ+RY",
            DesignSpace::Rxyz => "RXYZ",
            DesignSpace::ZxXx => "ZX+XX",
            DesignSpace::RxyzU1Cu3 => "RXYZ+U1+CU3",
        }
    }

    /// Number of trainable parameters contributed by layer `layer_idx` on
    /// `n` qubits.
    pub fn layer_params(&self, layer_idx: usize, n: usize) -> usize {
        let ring = ring_pairs(n).len();
        match self {
            DesignSpace::U3Cu3 => {
                if layer_idx.is_multiple_of(2) {
                    3 * n
                } else {
                    3 * ring
                }
            }
            DesignSpace::ZzRy => ring + n,
            DesignSpace::Rxyz => 3 * n,
            DesignSpace::ZxXx => 2 * ring,
            DesignSpace::RxyzU1Cu3 => 4 * n + 3 * ring,
        }
    }

    /// Total parameters of `layers` layers on `n` qubits.
    pub fn total_params(&self, layers: usize, n: usize) -> usize {
        (0..layers).map(|l| self.layer_params(l, n)).sum()
    }

    /// Appends layer `layer_idx` (zero-valued parameters) to `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register has fewer than `n` qubits.
    pub fn append_layer(&self, circuit: &mut Circuit, layer_idx: usize, n: usize) {
        assert!(circuit.n_qubits() >= n, "register too small");
        let ring = ring_pairs(n);
        match self {
            DesignSpace::U3Cu3 => {
                if layer_idx.is_multiple_of(2) {
                    for q in 0..n {
                        circuit.push(Gate::u3(q, 0.0, 0.0, 0.0));
                    }
                } else {
                    for &(a, b) in &ring {
                        circuit.push(Gate::cu3(a, b, 0.0, 0.0, 0.0));
                    }
                }
            }
            DesignSpace::ZzRy => {
                for &(a, b) in &ring {
                    circuit.push(Gate::rzz(a, b, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::ry(q, 0.0));
                }
            }
            DesignSpace::Rxyz => {
                for q in 0..n {
                    circuit.push(Gate::sqrt_h(q));
                }
                for q in 0..n {
                    circuit.push(Gate::rx(q, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::ry(q, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::rz(q, 0.0));
                }
                for &(a, b) in &ring {
                    circuit.push(Gate::cz(a, b));
                }
            }
            DesignSpace::ZxXx => {
                for &(a, b) in &ring {
                    circuit.push(Gate::rzx(a, b, 0.0));
                }
                for &(a, b) in &ring {
                    circuit.push(Gate::rxx(a, b, 0.0));
                }
            }
            DesignSpace::RxyzU1Cu3 => {
                for q in 0..n {
                    circuit.push(Gate::rx(q, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::s(q));
                }
                for &(a, b) in &ring {
                    circuit.push(Gate::cx(a, b));
                }
                for q in 0..n {
                    circuit.push(Gate::ry(q, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::t(q));
                }
                for &(a, b) in &brick_pairs(n, 0) {
                    circuit.push(Gate::swap(a, b));
                }
                for q in 0..n {
                    circuit.push(Gate::rz(q, 0.0));
                }
                for q in 0..n {
                    circuit.push(Gate::h(q));
                }
                for &(a, b) in &brick_pairs(n, 1) {
                    circuit.push(Gate::sqrt_swap(a, b));
                }
                for q in 0..n {
                    circuit.push(Gate::p(q, 0.0));
                }
                for &(a, b) in &ring {
                    circuit.push(Gate::cu3(a, b, 0.0, 0.0, 0.0));
                }
            }
        }
    }

    /// Builds a template of `layers` layers (zero parameters) on `n` qubits.
    pub fn template(&self, layers: usize, n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for l in 0..layers {
            self.append_layer(&mut c, l, n);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u3cu3_param_count_matches_paper() {
        // Paper §4.1: 4 qubits, 1 U3 + 1 CU3 layer → 24 parameters.
        let d = DesignSpace::U3Cu3;
        assert_eq!(d.total_params(2, 4), 24);
        // A 5-block model of these has 120 parameters.
        assert_eq!(5 * d.total_params(2, 4), 120);
    }

    #[test]
    fn templates_have_declared_param_counts() {
        for d in DesignSpace::all() {
            for n in [2, 4, 10] {
                for layers in [1, 2, 3] {
                    let t = d.template(layers, n);
                    assert_eq!(
                        t.n_params(),
                        d.total_params(layers, n),
                        "{} n={n} layers={layers}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ring_pairs_special_cases() {
        assert!(ring_pairs(1).is_empty());
        assert_eq!(ring_pairs(2), vec![(0, 1)]);
        assert_eq!(ring_pairs(4), vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
    }

    #[test]
    fn templates_touch_all_qubits() {
        for d in DesignSpace::all() {
            let t = d.template(2, 4);
            let mut touched = [false; 4];
            for g in t.gates() {
                for k in 0..g.arity() {
                    touched[g.qubits[k]] = true;
                }
            }
            assert!(
                touched.iter().all(|&x| x),
                "{} leaves idle qubits",
                d.name()
            );
        }
    }

    #[test]
    fn u3cu3_alternates_layers() {
        let t = DesignSpace::U3Cu3.template(2, 4);
        assert_eq!(t.gates()[0].kind, qnat_sim::GateKind::U3);
        assert_eq!(t.gates()[4].kind, qnat_sim::GateKind::Cu3);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(DesignSpace::ZzRy.name(), "ZZ+RY");
        assert_eq!(DesignSpace::RxyzU1Cu3.name(), "RXYZ+U1+CU3");
    }
}
