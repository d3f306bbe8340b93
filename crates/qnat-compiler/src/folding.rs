//! Gate folding for zero-noise extrapolation.
//!
//! ZNE needs the *same unitary* executed at amplified noise levels. On
//! hardware (and on this repo's density-matrix emulator, whose error
//! channels fire per gate) the standard trick is **folding**: replacing a
//! unitary `G` by `G·(G†·G)^k` multiplies the gate count — and therefore
//! the accumulated gate noise — by the odd factor `2k+1` while leaving
//! the implemented unitary bit-for-bit unchanged on a noise-free
//! simulator (pinned to 1e-12 by `tests/folding_props.rs`).
//!
//! Two granularities:
//!
//! * [`FoldStrategy::Global`] folds the whole circuit: `C` becomes
//!   `C (C† C)^k`. One inversion boundary; the noise amplification is
//!   concentrated at full-circuit scale.
//! * [`FoldStrategy::PerGate`] folds every gate in place:
//!   `g` becomes `g (g† g)^k`. Noise is amplified uniformly along the
//!   circuit, which tracks the "each gate's channel fires `2k+1` times"
//!   model more faithfully and keeps intermediate states on the original
//!   trajectory.
//!
//! Only **odd** scales exist: folding inserts inverse/forward *pairs*,
//! so the reachable noise multipliers are 1, 3, 5, … — an even scale is
//! a typed [`FoldError`], not a silent rounding.
//!
//! `SqrtH` and `SqrtSwap` have no closed-form single-gate inverse in the
//! gate set ([`qnat_sim::circuit::try_invert_gate`] returns `None`), but
//! their squares are the self-inverse `H` resp. `SWAP`, and any operator
//! commutes with functions of itself — so `g⁻¹ = g·g² = g·base` is a
//! two-gate inverse the folder emits instead of panicking.

use qnat_sim::circuit::{try_invert_gate, Circuit};
use qnat_sim::gate::{Gate, GateKind};
use std::error::Error;
use std::fmt;

/// Where the folding pass inserts the `G†·G` identity pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldStrategy {
    /// Fold the whole circuit: `C → C (C† C)^k`.
    Global,
    /// Fold each gate in place: `g → g (g† g)^k`.
    PerGate,
}

impl FoldStrategy {
    /// Canonical lowercase name (`"global"` / `"per_gate"`), the wire
    /// encoding.
    pub fn name(self) -> &'static str {
        match self {
            FoldStrategy::Global => "global",
            FoldStrategy::PerGate => "per_gate",
        }
    }

    /// Parses [`FoldStrategy::name`] output.
    pub fn from_name(name: &str) -> Option<FoldStrategy> {
        match name {
            "global" => Some(FoldStrategy::Global),
            "per_gate" => Some(FoldStrategy::PerGate),
            _ => None,
        }
    }
}

/// A noise scale the folding construction cannot reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldError {
    /// Folding inserts inverse/forward pairs, so only odd multipliers
    /// 1, 3, 5, … exist; this scale is even.
    EvenScale {
        /// The requested scale.
        scale: usize,
    },
    /// Scale 0 would mean "run nothing"; the zero-noise value is what
    /// extrapolation *estimates*, never a circuit that runs.
    ZeroScale,
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::EvenScale { scale } => write!(
                f,
                "noise scale {scale} is even; gate folding reaches odd scales only (1, 3, 5, …)"
            ),
            FoldError::ZeroScale => {
                write!(
                    f,
                    "noise scale 0 is the extrapolation target, not a runnable circuit"
                )
            }
        }
    }
}

impl Error for FoldError {}

/// Appends gates implementing `g⁻¹` to `out` — one gate via
/// [`try_invert_gate`] where a closed form exists, otherwise the
/// commuting two-gate identity `g⁻¹ = g·base` for the square-root gates
/// (`base = H` for `SqrtH`, `SWAP` for `SqrtSwap`).
fn push_inverse(out: &mut Circuit, g: &Gate) {
    match try_invert_gate(g) {
        Some(inv) => out.push(inv),
        None => {
            // √X commutes with X = (√X)², so the two orders agree; emit
            // base-then-root to mirror reversed execution order.
            match g.kind {
                GateKind::SqrtH => out.push(Gate::h(g.qubits[0])),
                GateKind::SqrtSwap => out.push(Gate::swap(g.qubits[0], g.qubits[1])),
                _ => unreachable!("try_invert_gate only declines SqrtH/SqrtSwap"),
            }
            out.push(*g);
        }
    }
}

/// Appends the inverse circuit `C†` of `c` to `out` (gates reversed,
/// each inverted via [`push_inverse`] — never panics, unlike
/// [`Circuit::inverse`]).
fn push_inverse_circuit(out: &mut Circuit, c: &Circuit) {
    for g in c.gates().iter().rev() {
        push_inverse(out, g);
    }
}

/// Folds `circuit` to noise scale `scale` (odd, ≥ 1) with the given
/// strategy. Scale 1 returns the circuit unchanged. The folded circuit
/// implements the identical unitary; only its gate count (and therefore
/// its simulated noise exposure) grows.
///
/// # Errors
///
/// [`FoldError::ZeroScale`] for scale 0 and [`FoldError::EvenScale`]
/// for any even scale.
pub fn fold_circuit(
    circuit: &Circuit,
    scale: usize,
    strategy: FoldStrategy,
) -> Result<Circuit, FoldError> {
    if scale == 0 {
        return Err(FoldError::ZeroScale);
    }
    if scale.is_multiple_of(2) {
        return Err(FoldError::EvenScale { scale });
    }
    let k = (scale - 1) / 2;
    if k == 0 {
        return Ok(circuit.clone());
    }
    let mut out = Circuit::new(circuit.n_qubits());
    match strategy {
        FoldStrategy::Global => {
            for g in circuit.gates() {
                out.push(*g);
            }
            for _ in 0..k {
                push_inverse_circuit(&mut out, circuit);
                for g in circuit.gates() {
                    out.push(*g);
                }
            }
        }
        FoldStrategy::PerGate => {
            for g in circuit.gates() {
                out.push(*g);
                for _ in 0..k {
                    push_inverse(&mut out, g);
                    out.push(*g);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_sim::statevector::StateVector;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::sqrt_h(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::ry(2, 0.37));
        c.push(Gate::sqrt_swap(1, 2));
        c.push(Gate::u3(0, 0.4, -0.2, 0.9));
        c
    }

    fn state(c: &Circuit) -> Vec<(f64, f64)> {
        let mut psi = StateVector::zero_state(c.n_qubits());
        psi.run(c);
        psi.amplitudes().iter().map(|a| (a.re, a.im)).collect()
    }

    #[test]
    fn even_and_zero_scales_are_typed_errors() {
        let c = sample_circuit();
        assert_eq!(
            fold_circuit(&c, 2, FoldStrategy::Global),
            Err(FoldError::EvenScale { scale: 2 })
        );
        assert_eq!(
            fold_circuit(&c, 0, FoldStrategy::PerGate),
            Err(FoldError::ZeroScale)
        );
    }

    #[test]
    fn scale_one_is_identity_fold() {
        let c = sample_circuit();
        let f = fold_circuit(&c, 1, FoldStrategy::Global).expect("fold");
        assert_eq!(f.gates(), c.gates());
    }

    #[test]
    fn folded_gate_counts_scale_as_expected() {
        let c = sample_circuit();
        // Global scale 3: C C† C. C has 6 gates, C† has 8 (two two-gate
        // inverses for the roots) → 6 + 8 + 6 = 20.
        let g3 = fold_circuit(&c, 3, FoldStrategy::Global).expect("fold");
        assert_eq!(g3.len(), 20);
        // Per-gate scale 3: 4 plain gates ×3 + 2 root gates ×4 = 20.
        let p3 = fold_circuit(&c, 3, FoldStrategy::PerGate).expect("fold");
        assert_eq!(p3.len(), 20);
    }

    #[test]
    fn folding_preserves_the_state_including_root_gates() {
        let c = sample_circuit();
        let want = state(&c);
        for strategy in [FoldStrategy::Global, FoldStrategy::PerGate] {
            for scale in [3usize, 5, 7] {
                let folded = fold_circuit(&c, scale, strategy).expect("fold");
                let got = state(&folded);
                for (a, b) in want.iter().zip(&got) {
                    assert!(
                        (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12,
                        "{strategy:?} scale {scale} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [FoldStrategy::Global, FoldStrategy::PerGate] {
            assert_eq!(FoldStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(FoldStrategy::from_name("diagonal"), None);
    }
}
