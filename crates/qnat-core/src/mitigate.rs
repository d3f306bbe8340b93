//! Error mitigation: zero-noise extrapolation and readout-confusion
//! inversion.
//!
//! Two families of inference-time mitigation live here:
//!
//! * **The paper's Table-4 std extrapolation.** QuantumNAT is orthogonal
//!   to classic error mitigation: the paper combines post-measurement
//!   normalization with an extrapolation step that estimates the
//!   *noise-free standard deviation* of each qubit's outcomes. The
//!   trained block's layers are repeated (3 → 6 → 9 → 12 layers — each
//!   repetition multiplies the noise while leaving the ideal
//!   distribution's spread comparable), the per-qubit std is measured at
//!   each depth, and a linear fit is extrapolated back to depth 0.
//!   Outcomes are then rescaled so their std matches the extrapolated
//!   noise-free value before the usual normalization.
//!
//! * **ZNE + readout inversion for served sweeps.** The gate-folding
//!   workload (`qnat-compiler::folding`, `qnat-serve::mitigate`) runs the
//!   same circuit at odd noise scales 1×/3×/5× and extrapolates each
//!   qubit's *expectation value* back to scale 0
//!   ([`extrapolate_expectation`], linear or Richardson), optionally
//!   after inverting the per-qubit readout confusion matrix
//!   ([`unconfuse_expectation`], [`unconfuse_distribution`]).
//!
//! Everything here returns a typed [`MitigateError`] on degenerate input
//! — no `assert!` on the public API, per the repo's no-panic library
//! convention (PR 1).

use qnat_sim::measure::Confusion;
use std::error::Error;
use std::fmt;

/// Confusion matrices with `|det|` below this are rejected as
/// near-singular by the inversion routines. For a row-stochastic 2×2
/// matrix `det = m00 + m11 − 1`, so a symmetric flip probability of
/// `p ≈ 0.5` (readout indistinguishable from a coin toss) sits at
/// `det ≈ 0` and inverting it would amplify noise by `1/det → ∞`.
pub const MIN_CONFUSION_DET: f64 = 1e-6;

/// Typed failure of a mitigation computation.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigateError {
    /// Fewer than two (scale, observation) points were provided; nothing
    /// can be extrapolated.
    NotEnoughPoints {
        /// How many points arrived.
        points: usize,
    },
    /// `xs` and `ys` (or scales and observation rows) differ in length.
    ShapeMismatch {
        /// Number of x/scale entries.
        xs: usize,
        /// Number of y/observation entries.
        ys: usize,
    },
    /// Observation row `index` has a different width than row 0 — the
    /// per-qubit layout is ragged.
    RaggedRow {
        /// Which row is inconsistent.
        index: usize,
        /// Width of row 0.
        expected: usize,
        /// Width of the offending row.
        got: usize,
    },
    /// The fit's x-values are (near-)constant: the normal-equation
    /// denominator `n·Σx² − (Σx)²` is below 1e-12, so no slope exists.
    DegenerateFit {
        /// The offending denominator.
        denom: f64,
    },
    /// A value that must be finite (an observation or scale) was NaN or
    /// infinite.
    NonFinite {
        /// Which input was non-finite.
        what: &'static str,
    },
    /// A readout confusion matrix is too close to singular to invert
    /// (see [`MIN_CONFUSION_DET`]).
    SingularConfusion {
        /// The matrix determinant.
        det: f64,
    },
}

impl fmt::Display for MitigateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigateError::NotEnoughPoints { points } => {
                write!(f, "need at least two points to extrapolate, got {points}")
            }
            MitigateError::ShapeMismatch { xs, ys } => {
                write!(f, "shape mismatch: {xs} x-values vs {ys} observations")
            }
            MitigateError::RaggedRow {
                index,
                expected,
                got,
            } => write!(
                f,
                "ragged observations: row {index} has {got} qubits, row 0 has {expected}"
            ),
            MitigateError::DegenerateFit { denom } => {
                write!(
                    f,
                    "degenerate fit: near-constant x-values (denom {denom:.3e})"
                )
            }
            MitigateError::NonFinite { what } => write!(f, "non-finite {what}"),
            MitigateError::SingularConfusion { det } => write!(
                f,
                "confusion matrix is near-singular (|det| {:.3e} < {MIN_CONFUSION_DET:.0e}); \
                 readout carries no invertible signal",
                det.abs()
            ),
        }
    }
}

impl Error for MitigateError {}

/// Validates that every value in `vals` is finite.
fn check_finite(vals: &[f64], what: &'static str) -> Result<(), MitigateError> {
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(MitigateError::NonFinite { what });
    }
    Ok(())
}

/// Validates the `(scales, rows)` layout shared by [`extrapolate_std`]
/// and [`extrapolate_expectations`]; returns the per-qubit width.
fn check_rows(scales: &[f64], rows: &[Vec<f64>]) -> Result<usize, MitigateError> {
    if scales.len() != rows.len() {
        return Err(MitigateError::ShapeMismatch {
            xs: scales.len(),
            ys: rows.len(),
        });
    }
    if scales.len() < 2 {
        return Err(MitigateError::NotEnoughPoints {
            points: scales.len(),
        });
    }
    check_finite(scales, "noise scale")?;
    let n_q = rows[0].len();
    for (k, row) in rows.iter().enumerate() {
        if row.len() != n_q {
            return Err(MitigateError::RaggedRow {
                index: k,
                expected: n_q,
                got: row.len(),
            });
        }
        check_finite(row, "observation")?;
    }
    Ok(n_q)
}

/// Least-squares linear fit `y ≈ a·x + b`; returns `(a, b)`.
///
/// # Errors
///
/// [`MitigateError::NotEnoughPoints`] with fewer than two points,
/// [`MitigateError::ShapeMismatch`] on length disagreement,
/// [`MitigateError::NonFinite`] on NaN/∞ input, and
/// [`MitigateError::DegenerateFit`] when the x-values are near-constant.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), MitigateError> {
    if xs.len() != ys.len() {
        return Err(MitigateError::ShapeMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(MitigateError::NotEnoughPoints { points: xs.len() });
    }
    check_finite(xs, "x-value")?;
    check_finite(ys, "y-value")?;
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() <= 1e-12 {
        return Err(MitigateError::DegenerateFit { denom });
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    Ok((a, b))
}

/// Per-qubit standard deviations of a batch of outcomes.
pub fn batch_std(outputs: &[Vec<f64>]) -> Vec<f64> {
    let stats = crate::normalize::NormStats::from_batch(outputs);
    stats.std
}

/// Extrapolates per-qubit noise-free stds from measurements at several
/// noise scales.
///
/// `scales[k]` is the noise multiplier of measurement set `k` (e.g. layer
/// repetitions 1, 2, 3, 4) and `stds[k]` the per-qubit std observed there.
/// Returns the linear extrapolation to scale 0.
///
/// A steeply-shrinking std can extrapolate to a *negative* intercept —
/// non-physical, and feeding it to [`rescale_to_std`] would invert the
/// sign of every outcome (the old code clamped it to `1e-6`, which made
/// the subsequent rescale silently *amplify* by ~10⁶ instead). Such a
/// qubit now falls back to its smallest **observed** std — the least
/// noise-inflated measurement actually in hand — which biases that qubit
/// conservatively toward "no extrapolation gain" rather than exploding.
///
/// # Errors
///
/// [`MitigateError::NotEnoughPoints`] with fewer than two scales,
/// [`MitigateError::ShapeMismatch`]/[`MitigateError::RaggedRow`] on
/// inconsistent shapes, [`MitigateError::NonFinite`] on NaN/∞ input,
/// and [`MitigateError::DegenerateFit`] when the scales are
/// near-constant.
pub fn extrapolate_std(scales: &[f64], stds: &[Vec<f64>]) -> Result<Vec<f64>, MitigateError> {
    let n_q = check_rows(scales, stds)?;
    (0..n_q)
        .map(|q| {
            let ys: Vec<f64> = stds.iter().map(|s| s[q]).collect();
            let (_a, b) = linear_fit(scales, &ys)?;
            if b > 0.0 {
                Ok(b)
            } else {
                // Non-physical intercept: fall back to the smallest
                // observed std (see the doc comment above).
                Ok(ys.iter().copied().fold(f64::INFINITY, f64::min))
            }
        })
        .collect()
}

/// How a zero-noise extrapolation fits the per-scale expectations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZneMethod {
    /// Least-squares linear fit over all scales; the intercept at scale 0
    /// is the mitigated value. Robust to shot noise, first-order only.
    Linear,
    /// Richardson extrapolation: the degree-(k−1) Lagrange interpolant
    /// through all k `(scale, value)` points, evaluated at scale 0.
    /// Cancels noise terms up to order k−1 but amplifies shot noise — the
    /// classic ZNE trade-off.
    Richardson,
}

impl ZneMethod {
    /// Canonical lowercase name (`"linear"` / `"richardson"`), the wire
    /// encoding.
    pub fn name(self) -> &'static str {
        match self {
            ZneMethod::Linear => "linear",
            ZneMethod::Richardson => "richardson",
        }
    }

    /// Parses [`ZneMethod::name`] output.
    pub fn from_name(name: &str) -> Option<ZneMethod> {
        match name {
            "linear" => Some(ZneMethod::Linear),
            "richardson" => Some(ZneMethod::Richardson),
            _ => None,
        }
    }
}

/// Extrapolates one observable's expectation values at noise scales
/// `scales` back to the zero-noise limit.
///
/// The returned value is **not** clamped to `[-1, 1]`: Richardson
/// extrapolation legitimately overshoots under shot noise, and callers
/// aggregating full sweeps decide how to project back to the physical
/// range (see `qnat-serve::mitigate`).
///
/// # Errors
///
/// Shape/finiteness errors as in [`linear_fit`];
/// [`MitigateError::DegenerateFit`] when two scales (nearly) coincide,
/// which would divide by ~0 in the Lagrange weights.
pub fn extrapolate_expectation(
    scales: &[f64],
    ys: &[f64],
    method: ZneMethod,
) -> Result<f64, MitigateError> {
    match method {
        ZneMethod::Linear => linear_fit(scales, ys).map(|(_a, b)| b),
        ZneMethod::Richardson => {
            if scales.len() != ys.len() {
                return Err(MitigateError::ShapeMismatch {
                    xs: scales.len(),
                    ys: ys.len(),
                });
            }
            if scales.len() < 2 {
                return Err(MitigateError::NotEnoughPoints {
                    points: scales.len(),
                });
            }
            check_finite(scales, "noise scale")?;
            check_finite(ys, "expectation")?;
            // Lagrange interpolation evaluated at x = 0:
            //   f(0) = Σ_k y_k · Π_{j≠k} x_j / (x_j − x_k).
            let mut acc = 0.0;
            for (k, &yk) in ys.iter().enumerate() {
                let mut w = 1.0;
                for (j, &xj) in scales.iter().enumerate() {
                    if j == k {
                        continue;
                    }
                    let d = xj - scales[k];
                    if d.abs() <= 1e-9 {
                        return Err(MitigateError::DegenerateFit { denom: d });
                    }
                    w *= xj / d;
                }
                acc += yk * w;
            }
            Ok(acc)
        }
    }
}

/// Extrapolates every qubit's expectation to zero noise:
/// `values[k][q]` is qubit `q`'s expectation at `scales[k]`.
///
/// # Errors
///
/// As in [`extrapolate_expectation`], plus
/// [`MitigateError::RaggedRow`] when rows disagree on qubit count.
pub fn extrapolate_expectations(
    scales: &[f64],
    values: &[Vec<f64>],
    method: ZneMethod,
) -> Result<Vec<f64>, MitigateError> {
    let n_q = check_rows(scales, values)?;
    (0..n_q)
        .map(|q| {
            let ys: Vec<f64> = values.iter().map(|v| v[q]).collect();
            extrapolate_expectation(scales, &ys, method)
        })
        .collect()
}

/// Rescales a batch so each qubit's std equals `target_std` (keeping the
/// mean), then applies standard post-measurement normalization. This is the
/// "Normalization + Extrapolation" arm of Table 4.
pub fn rescale_to_std(outputs: &mut [Vec<f64>], target_std: &[f64]) {
    let stats = crate::normalize::NormStats::from_batch(outputs);
    for row in outputs.iter_mut() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - stats.mean[j]) / stats.std[j] * target_std[j] + stats.mean[j];
        }
    }
}

// ---- readout-confusion inversion --------------------------------------

/// Inverts a per-qubit readout confusion matrix.
///
/// The inverse generally has negative entries — applying it produces
/// *quasi*-probabilities that downstream code must project back to the
/// simplex (see [`unconfuse_distribution`]).
///
/// # Errors
///
/// [`MitigateError::SingularConfusion`] when `|det|` is below
/// [`MIN_CONFUSION_DET`] (e.g. a symmetric flip `p ≈ 0.5`), and
/// [`MitigateError::NonFinite`] on NaN/∞ entries.
pub fn invert_confusion(m: &Confusion) -> Result<Confusion, MitigateError> {
    check_finite(&[m[0][0], m[0][1], m[1][0], m[1][1]], "confusion entry")?;
    let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    if det.abs() < MIN_CONFUSION_DET {
        return Err(MitigateError::SingularConfusion { det });
    }
    Ok([
        [m[1][1] / det, -m[0][1] / det],
        [-m[1][0] / det, m[0][0] / det],
    ])
}

/// Inverts the readout confusion on a single qubit's observed Z
/// expectation.
///
/// For a row-stochastic confusion the observed expectation is the affine
/// map `z_obs = det(M)·z + (m00 − m11)` (the γ·y + β of the paper's
/// Theorem 3.1 restricted to readout noise — see
/// [`qnat_sim::measure::confuse_expectation`]). Inverting solves for `z`
/// and clamps to `[-1, 1]`: shot noise can push the unconfused value
/// outside the physical range, and the clamp is the 1-qubit simplex
/// projection. **Bias:** clamping is nonlinear, so the estimator is no
/// longer unbiased near `|z| = 1` — it systematically pulls extreme
/// values inward by the clipped overshoot. That is the standard price of
/// a physical estimate; the unclamped value is recoverable as
/// `(z_obs − β)/γ` if an unbiased (but unphysical) reading is needed.
///
/// # Errors
///
/// [`MitigateError::SingularConfusion`] when `|det|` is below
/// [`MIN_CONFUSION_DET`], and [`MitigateError::NonFinite`] on NaN/∞
/// input.
pub fn unconfuse_expectation(z_obs: f64, m: &Confusion) -> Result<f64, MitigateError> {
    check_finite(&[z_obs], "observed expectation")?;
    check_finite(&[m[0][0], m[0][1], m[1][0], m[1][1]], "confusion entry")?;
    let gamma = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    if gamma.abs() < MIN_CONFUSION_DET {
        return Err(MitigateError::SingularConfusion { det: gamma });
    }
    let beta = m[0][0] - m[1][1];
    Ok(((z_obs - beta) / gamma).clamp(-1.0, 1.0))
}

/// Inverts per-qubit readout confusion on every qubit of an expectation
/// vector: `confusions[q]` corrects `zs[q]`.
///
/// # Errors
///
/// [`MitigateError::ShapeMismatch`] when the lengths disagree, otherwise
/// as in [`unconfuse_expectation`].
pub fn unconfuse_expectations(
    zs: &[f64],
    confusions: &[Confusion],
) -> Result<Vec<f64>, MitigateError> {
    if zs.len() != confusions.len() {
        return Err(MitigateError::ShapeMismatch {
            xs: confusions.len(),
            ys: zs.len(),
        });
    }
    zs.iter()
        .zip(confusions)
        .map(|(&z, m)| unconfuse_expectation(z, m))
        .collect()
}

/// Projects a quasi-probability vector back onto the probability simplex
/// (in place): negative entries are clipped to 0 and the rest is
/// renormalized to total mass 1. Returns the clipped mass — a direct
/// observability hook for how non-physical the inversion was (0.0 means
/// the inverse was already a distribution).
///
/// **Bias:** clipping is a projection, not an unbiased correction — mass
/// that the inversion pushed negative is redistributed proportionally
/// over the remaining outcomes. If every entry clips to zero (possible
/// only for pathological quasi-distributions) the result is uniform.
pub fn clamp_to_simplex(probs: &mut [f64]) -> f64 {
    let mut clipped = 0.0;
    for p in probs.iter_mut() {
        if *p < 0.0 {
            clipped -= *p;
            *p = 0.0;
        }
    }
    let total: f64 = probs.iter().sum();
    if total > 0.0 {
        for p in probs.iter_mut() {
            *p /= total;
        }
    } else if !probs.is_empty() {
        let uniform = 1.0 / probs.len() as f64;
        for p in probs.iter_mut() {
            *p = uniform;
        }
    }
    clipped
}

/// Inverts a readout confusion matrix for qubit `q` on a joint
/// distribution over basis states (in place), then projects the result
/// back onto the simplex. Returns the clipped quasi-probability mass
/// (see [`clamp_to_simplex`] for the bias this introduces).
///
/// The forward map ([`qnat_sim::measure::apply_confusion`]) applies
/// `Mᵀ` per qubit; this applies `(M⁻¹)ᵀ` with the same stride walk.
///
/// # Errors
///
/// [`MitigateError::ShapeMismatch`] unless `probs.len()` is a power of
/// two with `q` in range, otherwise as in [`invert_confusion`].
pub fn unconfuse_distribution(
    probs: &mut [f64],
    q: usize,
    m: &Confusion,
) -> Result<f64, MitigateError> {
    if !probs.len().is_power_of_two() || (1usize << q) >= probs.len() {
        return Err(MitigateError::ShapeMismatch {
            xs: probs.len(),
            ys: 1 << q,
        });
    }
    check_finite(probs, "probability")?;
    let inv = invert_confusion(m)?;
    let bit = 1usize << q;
    let n = probs.len();
    let mut base = 0usize;
    while base < n {
        for low in base..base + bit {
            let p0 = probs[low];
            let p1 = probs[low | bit];
            probs[low] = inv[0][0] * p0 + inv[1][0] * p1;
            probs[low | bit] = inv[0][1] * p0 + inv[1][1] * p1;
        }
        base += bit << 1;
    }
    Ok(clamp_to_simplex(probs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_sim::measure::{apply_confusion, confuse_expectation};

    #[test]
    fn linear_fit_exact_line() {
        let (a, b) = linear_fit(&[1.0, 2.0, 3.0], &[3.0, 5.0, 7.0]).expect("fit");
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_typed_errors() {
        assert_eq!(
            linear_fit(&[1.0], &[2.0]),
            Err(MitigateError::NotEnoughPoints { points: 1 })
        );
        assert_eq!(
            linear_fit(&[1.0, 2.0], &[2.0]),
            Err(MitigateError::ShapeMismatch { xs: 2, ys: 1 })
        );
        assert!(matches!(
            linear_fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]),
            Err(MitigateError::DegenerateFit { .. })
        ));
        assert_eq!(
            linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(MitigateError::NonFinite { what: "x-value" })
        );
    }

    #[test]
    fn extrapolation_recovers_zero_noise_intercept() {
        // std shrinks linearly with noise scale: std = 1.0 − 0.1·scale.
        let scales = [1.0, 2.0, 3.0, 4.0];
        let stds: Vec<Vec<f64>> = scales
            .iter()
            .map(|&s| vec![1.0 - 0.1 * s, 0.8 - 0.05 * s])
            .collect();
        let zero = extrapolate_std(&scales, &stds).expect("extrapolate");
        assert!((zero[0] - 1.0).abs() < 1e-10);
        assert!((zero[1] - 0.8).abs() < 1e-10);
    }

    #[test]
    fn single_scale_rejected_with_typed_error() {
        assert_eq!(
            extrapolate_std(&[1.0], &[vec![0.5]]),
            Err(MitigateError::NotEnoughPoints { points: 1 })
        );
    }

    #[test]
    fn ragged_rows_rejected() {
        assert_eq!(
            extrapolate_std(&[1.0, 2.0], &[vec![0.5, 0.4], vec![0.3]]),
            Err(MitigateError::RaggedRow {
                index: 1,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            extrapolate_std(&[1.0, 2.0, 3.0], &[vec![0.5], vec![0.4]]),
            Err(MitigateError::ShapeMismatch { xs: 3, ys: 2 })
        );
    }

    /// Regression for the silent-clamp bug: a steep negative slope used
    /// to extrapolate to a tiny positive clamp (1e-6), and the follow-up
    /// rescale would *amplify* outcomes by ~std/1e-6 ≈ 10⁶. The intercept
    /// here is 0.55 − 0.5·0 computed through scales 1..4 with std
    /// 0.55 − 0.5·s → negative from scale 2 on; the fallback must return
    /// the smallest observed std instead of a microscopic clamp.
    #[test]
    fn steep_negative_slope_falls_back_to_min_observed_std() {
        let scales: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        let stds: Vec<Vec<f64>> = scales
            .iter()
            .map(|&s| vec![(0.55 - 0.5 * s).abs().max(1e-3)])
            .collect();
        // Sanity: the raw linear intercept really is negative.
        let ys: Vec<f64> = stds.iter().map(|s| s[0]).collect();
        let (_a, b) = linear_fit(&scales, &ys).expect("fit");
        assert!(b < 0.0, "test premise: intercept must be negative, got {b}");
        let zero = extrapolate_std(&scales, &stds).expect("extrapolate");
        let min_observed = ys.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(zero[0], min_observed);
        assert!(zero[0] > 1e-4, "fallback must not be a microscopic clamp");
    }

    #[test]
    fn rescale_changes_std_not_mean() {
        let mut batch = vec![
            vec![0.1, 0.5],
            vec![0.3, 0.1],
            vec![-0.2, 0.9],
            vec![0.6, -0.3],
        ];
        let before = crate::normalize::NormStats::from_batch(&batch);
        rescale_to_std(&mut batch, &[1.0, 2.0]);
        let after = crate::normalize::NormStats::from_batch(&batch);
        for j in 0..2 {
            assert!((after.mean[j] - before.mean[j]).abs() < 1e-10);
        }
        assert!((after.std[0] - 1.0).abs() < 1e-6);
        assert!((after.std[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn richardson_is_exact_on_polynomials() {
        // y = 0.7 − 0.2x + 0.05x²: three points determine it exactly, so
        // Richardson recovers the intercept 0.7 while linear does not.
        let f = |x: f64| 0.7 - 0.2 * x + 0.05 * x * x;
        let scales = [1.0, 3.0, 5.0];
        let ys: Vec<f64> = scales.iter().map(|&s| f(s)).collect();
        let r = extrapolate_expectation(&scales, &ys, ZneMethod::Richardson).expect("zne");
        assert!((r - 0.7).abs() < 1e-12, "richardson missed: {r}");
        let l = extrapolate_expectation(&scales, &ys, ZneMethod::Linear).expect("zne");
        assert!(
            (l - 0.7).abs() > 1e-3,
            "linear should under-correct the quadratic"
        );
    }

    #[test]
    fn richardson_rejects_coincident_scales() {
        assert!(matches!(
            extrapolate_expectation(&[1.0, 1.0 + 1e-12], &[0.5, 0.4], ZneMethod::Richardson),
            Err(MitigateError::DegenerateFit { .. })
        ));
    }

    #[test]
    fn extrapolate_expectations_per_qubit() {
        let scales = [1.0, 3.0, 5.0];
        let values: Vec<Vec<f64>> = scales
            .iter()
            .map(|&s| vec![0.9 - 0.1 * s, -0.4 + 0.05 * s])
            .collect();
        let z = extrapolate_expectations(&scales, &values, ZneMethod::Linear).expect("zne");
        assert!((z[0] - 0.9).abs() < 1e-10);
        assert!((z[1] + 0.4).abs() < 1e-10);
    }

    #[test]
    fn confusion_inversion_round_trips() {
        let m: Confusion = [[0.984, 0.016], [0.022, 0.978]];
        for z in [-0.9, -0.3, 0.0, 0.4, 0.85] {
            let observed = confuse_expectation(z, &m);
            let recovered = unconfuse_expectation(observed, &m).expect("invert");
            assert!((recovered - z).abs() < 1e-12, "z={z} → {recovered}");
        }
    }

    #[test]
    fn distribution_inversion_round_trips() {
        let m: Confusion = [[0.95, 0.05], [0.08, 0.92]];
        let ideal = vec![0.05, 0.15, 0.35, 0.45];
        let mut p = ideal.clone();
        apply_confusion(&mut p, 0, &m);
        apply_confusion(&mut p, 1, &m);
        let c1 = unconfuse_distribution(&mut p, 1, &m).expect("invert q1");
        let c0 = unconfuse_distribution(&mut p, 0, &m).expect("invert q0");
        assert_eq!((c0, c1), (0.0, 0.0), "exact inverse clips nothing");
        for (a, b) in p.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn near_singular_confusion_rejected_not_nan() {
        // Symmetric flip p = 0.5: readout is a coin toss, det = 0.
        let coin: Confusion = [[0.5, 0.5], [0.5, 0.5]];
        assert!(matches!(
            invert_confusion(&coin),
            Err(MitigateError::SingularConfusion { .. })
        ));
        assert!(matches!(
            unconfuse_expectation(0.2, &coin),
            Err(MitigateError::SingularConfusion { .. })
        ));
        let mut p = vec![0.5, 0.5];
        assert!(matches!(
            unconfuse_distribution(&mut p, 0, &coin),
            Err(MitigateError::SingularConfusion { .. })
        ));
        // Just above the threshold still inverts to finite values.
        let near: Confusion = [[0.51, 0.49], [0.49, 0.51]];
        let inv = invert_confusion(&near).expect("invertible");
        assert!(inv.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn quasi_probabilities_are_clamped_to_simplex() {
        // Shot noise pushes an observed distribution outside the image of
        // the confusion map; the inverse then has a negative entry.
        let m: Confusion = [[0.9, 0.1], [0.2, 0.8]];
        let mut p = vec![0.05, 0.95]; // more |1⟩ than the map can produce from a simplex point
        let clipped = unconfuse_distribution(&mut p, 0, &m).expect("invert");
        assert!(clipped > 0.0, "this case must clip");
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamped_expectation_stays_physical() {
        let m: Confusion = [[0.9, 0.1], [0.2, 0.8]];
        // γ = 0.7, β = 0.1: z_obs = 0.95 would invert to ≈ 1.21.
        let z = unconfuse_expectation(0.95, &m).expect("invert");
        assert_eq!(z, 1.0);
    }
}
