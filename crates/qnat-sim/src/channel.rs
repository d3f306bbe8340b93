//! Quantum noise channels in Kraus form.
//!
//! These drive the density-matrix "hardware emulator": Pauli channels
//! (the twirled approximation QuantumNAT samples error gates from),
//! depolarizing, amplitude damping (T1 decay) and phase damping (T2
//! dephasing). Every constructor validates completeness `Σ KᵏᵈKᵏ = I`.
//!
//! ## Monomial operators
//!
//! Every Kraus operator a channel holds has at most one nonzero entry
//! per row: `√p·{I, X, Y, Z}`, and the two operators each of amplitude
//! and phase damping. [`Channel1::from_kraus`] rejects any other
//! operator and records each nonzero one as a `Monomial`: row `r`'s
//! entry `k_r` and its column `c(r)`. On `vec(ρ)` such an operator maps
//! `ρ[r][s]` from the single entry `ρ[c(r)][c(s)]`,
//!
//! ```text
//! (K·ρ·K†)[r][s] = conj(k_s)·(k_r·ρ[c(r)][c(s)]),
//! ```
//!
//! so [`DensityMatrix::apply_channel1`](crate::density::DensityMatrix::apply_channel1)
//! applies each term in one pass of two complex multiplies and one add
//! per amplitude, in place of a copy, two dense 2×2 mixes and a sum.
//! An operator that is all zero (a Pauli term at rate 0) adds nothing
//! and gets no pass.

use crate::math::{mat2_dagger, mat2_mul, Mat2, C64};
use std::error::Error;
use std::fmt;

/// Error returned when a channel's parameters are outside `[0, 1]` or its
/// Kraus operators do not satisfy the completeness relation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidChannelError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid quantum channel: {}", self.reason)
    }
}

impl Error for InvalidChannelError {}

/// A Kraus operator with at most one nonzero entry per row: row `r`
/// holds `value[r]` in column `col[r]` and zeros elsewhere. A row with
/// no nonzero entry keeps its diagonal entry (a zero) and column `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Monomial {
    /// The column of each row's entry.
    pub(crate) col: [usize; 2],
    /// Each row's entry `K[r][col[r]]`.
    pub(crate) value: [C64; 2],
}

impl Monomial {
    /// The monomial form of `k`, or `None` if a row of `k` has two
    /// nonzero entries.
    fn of(k: &Mat2) -> Option<Monomial> {
        let mut col = [0, 1];
        for (r, row) in k.iter().enumerate() {
            col[r] = match (row[0] != C64::ZERO, row[1] != C64::ZERO) {
                (true, true) => return None,
                (true, false) => 0,
                (false, true) => 1,
                (false, false) => r,
            };
        }
        Some(Monomial {
            col,
            value: [k[0][col[0]], k[1][col[1]]],
        })
    }

    /// `true` when every entry of the operator is zero.
    fn is_zero(&self) -> bool {
        self.value == [C64::ZERO; 2]
    }
}

/// A single-qubit channel described by its Kraus operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel1 {
    ops: Vec<Mat2>,
    /// The monomial form of every operator in `ops` that is not all zero,
    /// in order.
    terms: Vec<Monomial>,
}

impl Channel1 {
    /// Builds a channel from raw Kraus operators, validating completeness
    /// and recording each operator's monomial form.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `Σ KᵏᵈKᵏ ≠ I` within `1e-9`, or
    /// if an operator has a row with two nonzero entries.
    pub fn from_kraus(ops: Vec<Mat2>) -> Result<Self, InvalidChannelError> {
        let mut terms = Vec::with_capacity(ops.len());
        for (i, k) in ops.iter().enumerate() {
            let m = Monomial::of(k).ok_or_else(|| InvalidChannelError {
                reason: format!("Kraus operator {i} has a row with two nonzero entries"),
            })?;
            if !m.is_zero() {
                terms.push(m);
            }
        }
        let mut sum = [[C64::ZERO; 2]; 2];
        for k in &ops {
            let kdk = mat2_mul(&mat2_dagger(k), k);
            for i in 0..2 {
                for j in 0..2 {
                    sum[i][j] += kdk[i][j];
                }
            }
        }
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { C64::ONE } else { C64::ZERO };
                if !sum[i][j].approx_eq(want, 1e-9) {
                    return Err(InvalidChannelError {
                        reason: format!("completeness violated at ({i},{j}): {}", sum[i][j]),
                    });
                }
            }
        }
        Ok(Channel1 { ops, terms })
    }

    /// The Kraus operators.
    pub fn kraus(&self) -> &[Mat2] {
        &self.ops
    }

    /// The monomial form of every Kraus operator that is not all zero, in
    /// the order of [`kraus`](Self::kraus).
    pub(crate) fn monomials(&self) -> &[Monomial] {
        &self.terms
    }

    /// Pauli channel: applies X, Y, Z with probabilities `px`, `py`, `pz`
    /// and identity otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if any probability is negative or
    /// their sum exceeds 1.
    pub fn pauli(px: f64, py: f64, pz: f64) -> Result<Self, InvalidChannelError> {
        if px < 0.0 || py < 0.0 || pz < 0.0 || px + py + pz > 1.0 {
            return Err(InvalidChannelError {
                reason: format!("pauli probabilities out of range: ({px},{py},{pz})"),
            });
        }
        let p0 = 1.0 - px - py - pz;
        let i2 = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        let y = [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]];
        let z = [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]];
        let scale = |m: Mat2, p: f64| -> Mat2 {
            let s = p.sqrt();
            [
                [m[0][0].scale(s), m[0][1].scale(s)],
                [m[1][0].scale(s), m[1][1].scale(s)],
            ]
        };
        Channel1::from_kraus(vec![
            scale(i2, p0),
            scale(x, px),
            scale(y, py),
            scale(z, pz),
        ])
    }

    /// Depolarizing channel with error probability `p` (uniform Pauli).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `p ∉ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, InvalidChannelError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(InvalidChannelError {
                reason: format!("depolarizing probability out of range: {p}"),
            });
        }
        Channel1::pauli(p / 3.0, p / 3.0, p / 3.0)
    }

    /// Bit-flip channel: X with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `p ∉ [0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, InvalidChannelError> {
        Channel1::pauli(p, 0.0, 0.0)
    }

    /// Phase-flip channel: Z with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `p ∉ [0, 1]`.
    pub fn phase_flip(p: f64) -> Result<Self, InvalidChannelError> {
        Channel1::pauli(0.0, 0.0, p)
    }

    /// Amplitude-damping channel with decay probability `gamma` (models T1
    /// relaxation over one gate duration).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `gamma ∉ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, InvalidChannelError> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(InvalidChannelError {
                reason: format!("damping rate out of range: {gamma}"),
            });
        }
        let k0 = [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ];
        let k1 = [[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]];
        Channel1::from_kraus(vec![k0, k1])
    }

    /// Phase-damping channel with rate `lambda` (models pure dephasing / T2).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `lambda ∉ [0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, InvalidChannelError> {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(InvalidChannelError {
                reason: format!("damping rate out of range: {lambda}"),
            });
        }
        let k0 = [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - lambda).sqrt())],
        ];
        let k1 = [
            [C64::ZERO, C64::ZERO],
            [C64::ZERO, C64::real(lambda.sqrt())],
        ];
        Channel1::from_kraus(vec![k0, k1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_channel_is_complete() {
        assert!(Channel1::pauli(0.01, 0.02, 0.03).is_ok());
        assert!(Channel1::pauli(-0.1, 0.0, 0.0).is_err());
        assert!(Channel1::pauli(0.5, 0.5, 0.5).is_err());
    }

    #[test]
    fn damping_channels_are_complete() {
        for g in [0.0, 0.1, 0.5, 1.0] {
            assert!(Channel1::amplitude_damping(g).is_ok());
            assert!(Channel1::phase_damping(g).is_ok());
        }
        assert!(Channel1::amplitude_damping(1.5).is_err());
    }

    #[test]
    fn incomplete_kraus_rejected() {
        let half = [[C64::real(0.5), C64::ZERO], [C64::ZERO, C64::real(0.5)]];
        assert!(Channel1::from_kraus(vec![half]).is_err());
    }

    #[test]
    fn monomials_record_every_nonzero_operator() {
        let ad = Channel1::amplitude_damping(0.3).unwrap();
        let s = 0.3f64.sqrt();
        assert_eq!(
            ad.monomials(),
            &[
                Monomial {
                    col: [0, 1],
                    value: [C64::ONE, C64::real((1.0 - 0.3f64).sqrt())],
                },
                // K1 = [[0, √γ], [0, 0]]: row 1 has no nonzero entry.
                Monomial {
                    col: [1, 1],
                    value: [C64::real(s), C64::ZERO],
                },
            ]
        );
        let y = Channel1::pauli(0.0, 0.2, 0.0).unwrap();
        // The X and Z operators are zero at rate 0 and get no term.
        assert_eq!(y.kraus().len(), 4);
        assert_eq!(y.monomials().len(), 2);
        assert_eq!(y.monomials()[1].col, [1, 0]);
    }
}
