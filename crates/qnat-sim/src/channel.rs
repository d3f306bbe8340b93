//! Quantum noise channels in Kraus form.
//!
//! These drive the density-matrix "hardware emulator": Pauli channels
//! (the twirled approximation QuantumNAT samples error gates from),
//! depolarizing, amplitude damping (T1 decay) and phase damping (T2
//! dephasing). Every constructor validates completeness `Σ KᵏᵈKᵏ = I`.

use crate::math::{mat2_dagger, mat2_mul, mat4_dagger, mat4_mul, Mat2, Mat4, C64};
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

/// A single-qubit channel described by its Kraus operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel1 {
    ops: Vec<Mat2>,
}

impl Channel1 {
    /// Builds a channel from raw Kraus operators, validating completeness.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `Σ KᵏᵈKᵏ ≠ I` within `1e-9`.
    pub fn from_kraus(ops: Vec<Mat2>) -> Result<Self, InvalidChannelError> {
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
        Ok(Channel1 { ops })
    }

    /// The Kraus operators.
    pub fn kraus(&self) -> &[Mat2] {
        &self.ops
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

/// A two-qubit channel described by its Kraus operators (basis
/// `index = 2·bit(qa) + bit(qb)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Channel2 {
    ops: Vec<Mat4>,
}

impl Channel2 {
    /// Builds a channel from raw Kraus operators, validating completeness.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChannelError`] if `Σ KᵏᵈKᵏ ≠ I` within `1e-9`.
    pub fn from_kraus(ops: Vec<Mat4>) -> Result<Self, InvalidChannelError> {
        let mut sum = [[C64::ZERO; 4]; 4];
        for k in &ops {
            let kdk = mat4_mul(&mat4_dagger(k), k);
            for i in 0..4 {
                for j in 0..4 {
                    sum[i][j] += kdk[i][j];
                }
            }
        }
        for (i, row) in sum.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let want = if i == j { C64::ONE } else { C64::ZERO };
                if !v.approx_eq(want, 1e-9) {
                    return Err(InvalidChannelError {
                        reason: format!("completeness violated at ({i},{j}): {v}"),
                    });
                }
            }
        }
        Ok(Channel2 { ops })
    }

    /// The Kraus operators.
    pub fn kraus(&self) -> &[Mat4] {
        &self.ops
    }

    /// Two-qubit depolarizing channel: with probability `p` one of the 15
    /// non-identity Pauli pairs is applied uniformly.
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
        let paulis: [Mat2; 4] = [
            [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]],
            [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]],
            [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]],
            [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]],
        ];
        let mut ops = Vec::with_capacity(16);
        for (a, pa) in paulis.iter().enumerate() {
            for (b, pb) in paulis.iter().enumerate() {
                let w = if a == 0 && b == 0 { 1.0 - p } else { p / 15.0 };
                let s = w.sqrt();
                let m = crate::math::kron2(pa, pb);
                let mut scaled = [[C64::ZERO; 4]; 4];
                for i in 0..4 {
                    for j in 0..4 {
                        scaled[i][j] = m[i][j].scale(s);
                    }
                }
                ops.push(scaled);
            }
        }
        Channel2::from_kraus(ops)
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
    fn depolarizing_two_qubit_has_16_kraus() {
        let ch = Channel2::depolarizing(0.05).unwrap();
        assert_eq!(ch.kraus().len(), 16);
        assert!(Channel2::depolarizing(-0.1).is_err());
    }

    #[test]
    fn incomplete_kraus_rejected() {
        let half = [[C64::real(0.5), C64::ZERO], [C64::ZERO, C64::real(0.5)]];
        assert!(Channel1::from_kraus(vec![half]).is_err());
    }
}
