//! Measurement: shot sampling and readout-confusion application.
//!
//! The paper estimates each qubit's Pauli-Z expectation from `s = 8192`
//! shots and models readout error as a per-qubit 2×2 confusion matrix
//! `M[true][measured]` (e.g. IBMQ-Santiago qubit 0:
//! `[[0.984, 0.016], [0.022, 0.978]]`). This module provides both the exact
//! distribution-level transforms and the stochastic shot sampler.

use rand::Rng;

/// A per-qubit readout confusion matrix: `m[t][o]` is the probability of
/// observing outcome `o` when the true state is `t`.
pub type Confusion = [[f64; 2]; 2];

/// Applies a readout confusion matrix for qubit `q` to a joint probability
/// distribution over basis states (in place). Readout errors on different
/// qubits are independent, so applying this per qubit is exact.
///
/// # Panics
///
/// Panics if `probs.len()` is not a power of two or `q` is out of range.
pub fn apply_confusion(probs: &mut [f64], q: usize, m: &Confusion) {
    assert!(
        probs.len().is_power_of_two(),
        "length must be a power of two"
    );
    let bit = 1usize << q;
    assert!(bit < probs.len(), "qubit {q} out of range");
    let n = probs.len();
    let mut base = 0usize;
    while base < n {
        for low in base..base + bit {
            let p0 = probs[low];
            let p1 = probs[low | bit];
            probs[low] = m[0][0] * p0 + m[1][0] * p1;
            probs[low | bit] = m[0][1] * p0 + m[1][1] * p1;
        }
        base += bit << 1;
    }
}

/// Transforms a single qubit's Z expectation through a confusion matrix.
///
/// With `P(1) = (1 − z)/2`, the observed expectation is an affine map of the
/// true one — exactly the `γ·y + β` linear map of the paper's Theorem 3.1
/// restricted to readout noise.
pub fn confuse_expectation(z: f64, m: &Confusion) -> f64 {
    let p1 = (1.0 - z) / 2.0;
    let p0 = 1.0 - p1;
    let q1 = p0 * m[0][1] + p1 * m[1][1];
    1.0 - 2.0 * q1
}

/// Draws `shots` basis-state samples from a probability distribution.
///
/// Uses inverse-CDF sampling; the distribution is renormalized defensively
/// against floating-point drift.
pub fn sample_outcomes<R: Rng>(probs: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    let total: f64 = probs.iter().sum();
    assert!(total > 0.0, "probability mass must be positive");
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for &p in probs {
        acc += p.max(0.0) / total;
        cdf.push(acc);
    }
    // Guard the tail against rounding below 1.0.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    (0..shots)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(probs.len() - 1)
        })
        .collect()
}

/// Estimates per-qubit Z expectations from `shots` samples of `probs`.
///
/// Returns one empirical mean in `[-1, 1]` per qubit, exactly the
/// `y = Σⱼ zⱼ/s` estimator from the paper's Appendix A.2.1.
pub fn sampled_expect_all_z<R: Rng>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Vec<f64> {
    assert!(shots > 0, "need at least one shot");
    let mut ones = vec![0usize; n_qubits];
    for s in sample_outcomes(probs, shots, rng) {
        for (q, count) in ones.iter_mut().enumerate() {
            if s & (1 << q) != 0 {
                *count += 1;
            }
        }
    }
    ones.into_iter()
        .map(|c| 1.0 - 2.0 * (c as f64) / (shots as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const IDENTITY: Confusion = [[1.0, 0.0], [0.0, 1.0]];

    #[test]
    fn identity_confusion_is_noop() {
        let mut p = vec![0.1, 0.2, 0.3, 0.4];
        let orig = p.clone();
        apply_confusion(&mut p, 0, &IDENTITY);
        apply_confusion(&mut p, 1, &IDENTITY);
        assert_eq!(p, orig);
    }

    #[test]
    fn confusion_matches_paper_example() {
        // Paper §3.2: P(0)=0.3, P(1)=0.7 with Santiago readout
        // [[0.984, 0.016], [0.022, 0.978]] → P'(0)=0.31, P'(1)=0.69.
        let m: Confusion = [[0.984, 0.016], [0.022, 0.978]];
        let mut p = vec![0.3, 0.7];
        apply_confusion(&mut p, 0, &m);
        assert!((p[0] - (0.3 * 0.984 + 0.7 * 0.022)).abs() < 1e-12);
        assert!((p[1] - (0.7 * 0.978 + 0.3 * 0.016)).abs() < 1e-12);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_preserves_total_probability() {
        let m: Confusion = [[0.95, 0.05], [0.08, 0.92]];
        let mut p = vec![0.05, 0.15, 0.35, 0.45];
        apply_confusion(&mut p, 1, &m);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confuse_expectation_is_affine() {
        let m: Confusion = [[0.98, 0.02], [0.03, 0.97]];
        // z → γz + β with γ = (m00 + m11 − 1), β = m00 − m11 ... verify
        // affinity by three-point collinearity.
        let f = |z: f64| confuse_expectation(z, &m);
        let (a, b, c) = (f(-1.0), f(0.0), f(1.0));
        assert!((b - (a + c) / 2.0).abs() < 1e-12);
        // γ < 1: the map contracts.
        assert!((c - a) / 2.0 < 1.0);
    }

    #[test]
    fn sampling_converges_to_distribution() {
        let probs = vec![0.5, 0.0, 0.0, 0.5]; // Bell-state diagonal
        let mut rng = StdRng::seed_from_u64(7);
        let z = sampled_expect_all_z(&probs, 2, 20_000, &mut rng);
        assert!(z[0].abs() < 0.05, "z0={}", z[0]);
        assert!(z[1].abs() < 0.05, "z1={}", z[1]);
        // Perfect correlation: outcomes only 00 and 11.
        let samples = sample_outcomes(&probs, 1000, &mut rng);
        assert!(samples.iter().all(|&s| s == 0 || s == 3));
    }

    #[test]
    fn deterministic_distribution_sampling() {
        let probs = vec![0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(1);
        let z = sampled_expect_all_z(&probs, 1, 100, &mut rng);
        assert_eq!(z[0], -1.0);
    }
}
