//! Pauli-twirled gate error specifications.
//!
//! QuantumNAT approximates arbitrary gate noise by Pauli errors (via Pauli
//! twirling): after each gate, an X, Y or Z error gate is inserted with a
//! probability distribution `E = {X: pₓ, Y: p_y, Z: p_z, None: 1−Σp}` read
//! from the device calibration. A *noise factor* `T` scales the X/Y/Z
//! probabilities during sampling to trade off injection strength against
//! training stability (paper §3.2, typical `T ∈ [0.5, 1.5]`).

use qnat_json::Json;
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Error returned for out-of-range probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidProbabilityError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid probability: {}", self.reason)
    }
}

impl Error for InvalidProbabilityError {}

/// A sampled Pauli error (or none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauliError {
    /// No error this time.
    None,
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
}

/// The per-gate Pauli error distribution `E`.
///
/// # Examples
///
/// ```
/// use qnat_noise::error_spec::PauliErrorSpec;
/// // IBMQ-Yorktown SX on qubit 1 (paper §3.2).
/// let e = PauliErrorSpec::new(0.00096, 0.00096, 0.00096)?;
/// assert!((e.total() - 0.00288).abs() < 1e-12);
/// # Ok::<(), qnat_noise::error_spec::InvalidProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PauliErrorSpec {
    /// Probability of an X error.
    pub p_x: f64,
    /// Probability of a Y error.
    pub p_y: f64,
    /// Probability of a Z error.
    pub p_z: f64,
}

impl PauliErrorSpec {
    /// Creates a spec, validating that probabilities are non-negative and
    /// sum to at most 1.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] on out-of-range values.
    pub fn new(p_x: f64, p_y: f64, p_z: f64) -> Result<Self, InvalidProbabilityError> {
        let s = PauliErrorSpec { p_x, p_y, p_z };
        s.validate()?;
        Ok(s)
    }

    /// A zero-error spec.
    pub const fn zero() -> Self {
        PauliErrorSpec {
            p_x: 0.0,
            p_y: 0.0,
            p_z: 0.0,
        }
    }

    /// Symmetric spec with each Pauli probability equal to `total / 3`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if `total ∉ [0, 1]`.
    pub fn symmetric(total: f64) -> Result<Self, InvalidProbabilityError> {
        PauliErrorSpec::new(total / 3.0, total / 3.0, total / 3.0)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] on out-of-range values.
    pub fn validate(&self) -> Result<(), InvalidProbabilityError> {
        if self.p_x < 0.0 || self.p_y < 0.0 || self.p_z < 0.0 {
            return Err(InvalidProbabilityError {
                reason: format!("negative Pauli probability in {self:?}"),
            });
        }
        // Allow a float-rounding hair above 1 (e.g. after renormalization
        // in `scaled`).
        if self.total() > 1.0 + 1e-9 {
            return Err(InvalidProbabilityError {
                reason: format!("Pauli probabilities sum to {} > 1", self.total()),
            });
        }
        Ok(())
    }

    /// Total error probability `pₓ + p_y + p_z`.
    pub fn total(&self) -> f64 {
        self.p_x + self.p_y + self.p_z
    }

    /// Scales all three probabilities by the noise factor `t`, clamping the
    /// total at 1 so arbitrarily large factors (e.g. unbounded calibration
    /// drift) still yield a valid distribution.
    pub fn scaled(&self, t: f64) -> PauliErrorSpec {
        let t = t.max(0.0);
        let mut s = PauliErrorSpec {
            p_x: self.p_x * t,
            p_y: self.p_y * t,
            p_z: self.p_z * t,
        };
        let tot = s.total();
        if tot > 1.0 {
            // Renormalize strictly below 1: a plain 1/tot factor rounds the
            // sum an ulp above 1 often enough that downstream channel
            // construction (`Channel1::pauli`) rejects the spec mid-run.
            let f = (1.0 - 1e-12) / tot;
            s.p_x = (s.p_x * f).clamp(0.0, 1.0);
            s.p_y = (s.p_y * f).clamp(0.0, 1.0);
            s.p_z = (s.p_z * f).clamp(0.0, 1.0);
        }
        s
    }

    /// Serializes to a JSON value `{"p_x": …, "p_y": …, "p_z": …}`.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("p_x", self.p_x.into()),
            ("p_y", self.p_y.into()),
            ("p_z", self.p_z.into()),
        ])
    }

    /// Parses a spec from a JSON value produced by
    /// [`PauliErrorSpec::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] on missing/non-numeric fields or
    /// out-of-range probabilities.
    pub fn from_json_value(v: &Json) -> Result<Self, InvalidProbabilityError> {
        let bad = |reason: String| InvalidProbabilityError { reason };
        PauliErrorSpec::new(
            v.field("p_x").map_err(bad)?,
            v.field("p_y").map_err(bad)?,
            v.field("p_z").map_err(bad)?,
        )
    }

    /// Samples one error event from the distribution
    /// `{X: pₓ, Y: p_y, Z: p_z, None: 1−Σ}`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> PauliError {
        let u: f64 = rng.gen();
        if u < self.p_x {
            PauliError::X
        } else if u < self.p_x + self.p_y {
            PauliError::Y
        } else if u < self.total() {
            PauliError::Z
        } else {
            PauliError::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(PauliErrorSpec::new(-0.1, 0.0, 0.0).is_err());
        assert!(PauliErrorSpec::new(0.5, 0.4, 0.2).is_err());
        assert!(PauliErrorSpec::new(0.01, 0.01, 0.01).is_ok());
    }

    #[test]
    fn scaling_by_noise_factor() {
        let e = PauliErrorSpec::new(0.001, 0.002, 0.003).unwrap();
        let s = e.scaled(1.5);
        assert!((s.p_x - 0.0015).abs() < 1e-12);
        assert!((s.total() - 0.009).abs() < 1e-12);
        // Zero factor disables the noise.
        assert_eq!(e.scaled(0.0).total(), 0.0);
    }

    #[test]
    fn scaling_clamps_total_at_one() {
        let e = PauliErrorSpec::new(0.3, 0.3, 0.3).unwrap();
        let s = e.scaled(10.0);
        // Saturates just below 1 — never above, so channel construction
        // (which rejects sums > 1) cannot fail after any amount of drift.
        assert!(s.total() <= 1.0, "total {} > 1", s.total());
        assert!((s.total() - 1.0).abs() < 1e-9);
        // Relative composition preserved.
        assert!((s.p_x - s.p_y).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies_match_probabilities() {
        let e = PauliErrorSpec::new(0.1, 0.2, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match e.sample(&mut rng) {
                PauliError::X => counts[0] += 1,
                PauliError::Y => counts[1] += 1,
                PauliError::Z => counts[2] += 1,
                PauliError::None => counts[3] += 1,
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - 0.1).abs() < 0.01);
        assert!((f(counts[1]) - 0.2).abs() < 0.01);
        assert!((f(counts[2]) - 0.3).abs() < 0.01);
        assert!((f(counts[3]) - 0.4).abs() < 0.01);
    }

    #[test]
    fn zero_spec_never_samples_errors() {
        let e = PauliErrorSpec::zero();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert_eq!(e.sample(&mut rng), PauliError::None);
        }
    }

    #[test]
    fn json_round_trip() {
        let e = PauliErrorSpec::new(0.00096, 0.00096, 0.00096).unwrap();
        let text = e.to_json_value().to_json();
        let back = PauliErrorSpec::from_json_value(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(e, back);
        assert!(PauliErrorSpec::from_json_value(&Json::Null).is_err());
    }
}
