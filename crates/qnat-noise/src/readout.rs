//! Readout (measurement) error model.
//!
//! Each qubit carries a 2×2 confusion matrix `M[true][observed]`, e.g.
//! IBMQ-Santiago qubit 0: `[[0.984, 0.016], [0.022, 0.978]]` — a `|0⟩` is
//! read as 0 with probability 0.984 (paper §3.2, "Readout noise injection").

use qnat_json::Json;
use qnat_sim::measure::{apply_confusion, confuse_expectation, Confusion};
use std::error::Error;
use std::fmt;

/// Error returned when a confusion matrix is not row-stochastic.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidReadoutError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidReadoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid readout matrix: {}", self.reason)
    }
}

impl Error for InvalidReadoutError {}

/// A validated per-qubit readout confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    matrix: Confusion,
}

impl Default for ReadoutError {
    fn default() -> Self {
        ReadoutError::ideal()
    }
}

impl ReadoutError {
    /// Builds a readout error from `M[true][observed]`, validating that each
    /// row is a probability distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidReadoutError`] if entries are outside `[0, 1]` or
    /// rows do not sum to 1 within `1e-9`.
    pub fn new(matrix: Confusion) -> Result<Self, InvalidReadoutError> {
        for (t, row) in matrix.iter().enumerate() {
            for (o, &p) in row.iter().enumerate() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(InvalidReadoutError {
                        reason: format!("entry ({t},{o}) = {p} out of [0,1]"),
                    });
                }
            }
            let s: f64 = row.iter().sum();
            if (s - 1.0).abs() > 1e-9 {
                return Err(InvalidReadoutError {
                    reason: format!("row {t} sums to {s}, expected 1"),
                });
            }
        }
        Ok(ReadoutError { matrix })
    }

    /// Perfect readout (identity confusion).
    pub fn ideal() -> Self {
        ReadoutError {
            matrix: [[1.0, 0.0], [0.0, 1.0]],
        }
    }

    /// Symmetric readout error: both `0→1` and `1→0` flip with probability
    /// `p`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidReadoutError`] if `p ∉ [0, 1]`.
    pub fn symmetric(p: f64) -> Result<Self, InvalidReadoutError> {
        ReadoutError::new([[1.0 - p, p], [p, 1.0 - p]])
    }

    /// Asymmetric readout error with distinct `0→1` (`p01`) and `1→0`
    /// (`p10`) flip probabilities — real devices read `|1⟩` worse than
    /// `|0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidReadoutError`] on out-of-range probabilities.
    pub fn asymmetric(p01: f64, p10: f64) -> Result<Self, InvalidReadoutError> {
        ReadoutError::new([[1.0 - p01, p01], [p10, 1.0 - p10]])
    }

    /// The raw confusion matrix `M[true][observed]`.
    pub fn matrix(&self) -> &Confusion {
        &self.matrix
    }

    /// Scales the off-diagonal (error) entries by the noise factor `t`,
    /// clamping flip probabilities to `[0, 1]`.
    pub fn scaled(&self, t: f64) -> ReadoutError {
        let t = t.max(0.0);
        let p01 = (self.matrix[0][1] * t).min(1.0);
        let p10 = (self.matrix[1][0] * t).min(1.0);
        ReadoutError {
            matrix: [[1.0 - p01, p01], [p10, 1.0 - p10]],
        }
    }

    /// Serializes to a JSON value `{"matrix": [[…,…],[…,…]]}`.
    pub fn to_json_value(&self) -> Json {
        Json::obj([(
            "matrix",
            Json::Arr(vec![Json::nums(self.matrix[0]), Json::nums(self.matrix[1])]),
        )])
    }

    /// Parses a readout error from a JSON value produced by
    /// [`ReadoutError::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidReadoutError`] on malformed JSON shape or a
    /// non-row-stochastic matrix.
    pub fn from_json_value(v: &Json) -> Result<Self, InvalidReadoutError> {
        let rows = v
            .get("matrix")
            .and_then(Json::as_array)
            .ok_or_else(|| InvalidReadoutError {
                reason: "missing 'matrix' array".into(),
            })?;
        let mut matrix: Confusion = [[0.0; 2]; 2];
        if rows.len() != 2 {
            return Err(InvalidReadoutError {
                reason: format!("expected 2 rows, got {}", rows.len()),
            });
        }
        for (t, row) in rows.iter().enumerate() {
            let cells = row.as_array().ok_or_else(|| InvalidReadoutError {
                reason: format!("row {t} is not an array"),
            })?;
            if cells.len() != 2 {
                return Err(InvalidReadoutError {
                    reason: format!("row {t} has {} entries, expected 2", cells.len()),
                });
            }
            for (o, cell) in cells.iter().enumerate() {
                matrix[t][o] = cell.as_f64().ok_or_else(|| InvalidReadoutError {
                    reason: format!("entry ({t},{o}) is not a number"),
                })?;
            }
        }
        ReadoutError::new(matrix)
    }

    /// Applies this qubit's confusion to a joint distribution (in place).
    pub fn apply_to_distribution(&self, probs: &mut [f64], q: usize) {
        apply_confusion(probs, q, &self.matrix);
    }

    /// Transforms a Z expectation through the confusion — the affine
    /// `γ·y + β` map of Theorem 3.1 restricted to readout noise.
    pub fn apply_to_expectation(&self, z: f64) -> f64 {
        confuse_expectation(z, &self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ReadoutError::new([[0.984, 0.016], [0.022, 0.978]]).is_ok());
        assert!(ReadoutError::new([[0.9, 0.2], [0.0, 1.0]]).is_err());
        assert!(ReadoutError::new([[1.1, -0.1], [0.0, 1.0]]).is_err());
        assert!(ReadoutError::symmetric(1.5).is_err());
    }

    #[test]
    fn ideal_is_identity_on_expectations() {
        let r = ReadoutError::ideal();
        for z in [-1.0, -0.3, 0.0, 0.7, 1.0] {
            assert!((r.apply_to_expectation(z) - z).abs() < 1e-15);
        }
    }

    #[test]
    fn expectation_map_matches_paper_example() {
        // Santiago qubit 0 (paper §3.2): P(0)=0.3, P(1)=0.7 →
        // P'(1) = 0.7·0.978 + 0.3·0.016 = 0.6894 (paper rounds to 0.69).
        let r = ReadoutError::new([[0.984, 0.016], [0.022, 0.978]]).unwrap();
        let z = r.apply_to_expectation(-0.4);
        assert!((z - (1.0 - 2.0 * 0.6894)).abs() < 1e-10, "z={z}");
    }

    #[test]
    fn scaling_readout() {
        let r = ReadoutError::asymmetric(0.02, 0.04).unwrap();
        let half = r.scaled(0.5);
        assert!((half.matrix()[0][1] - 0.01).abs() < 1e-12);
        assert!((half.matrix()[1][0] - 0.02).abs() < 1e-12);
        let zero = r.scaled(0.0);
        assert_eq!(zero, ReadoutError::ideal());
    }

    #[test]
    fn json_round_trip() {
        let r = ReadoutError::asymmetric(0.016, 0.022).unwrap();
        let text = r.to_json_value().to_json();
        let back = ReadoutError::from_json_value(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
        // Shape and stochasticity failures are reported, not panicked.
        assert!(ReadoutError::from_json_value(&Json::Null).is_err());
        let bad = Json::parse(r#"{"matrix": [[0.9, 0.2], [0.0, 1.0]]}"#).unwrap();
        assert!(ReadoutError::from_json_value(&bad).is_err());
    }
}
