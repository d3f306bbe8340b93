//! Evaluation metrics: accuracy, SNR and MSE.
//!
//! The paper quantifies the normalization/quantization benefit with the
//! signal-to-noise ratio `SNR = ‖A‖² / ‖A − Ã‖²` between noise-free (`A`)
//! and noisy (`Ã`) measurement-outcome matrices (§3.1, Fig. 4, Table 5),
//! and the per-entry MSE for quantization (Fig. 6).

/// Classification accuracy from logits and labels.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn accuracy(logits: &[Vec<f64>], labels: &[usize]) -> f64 {
    assert_eq!(logits.len(), labels.len(), "batch size mismatch");
    assert!(!logits.is_empty(), "empty batch");
    let correct = logits
        .iter()
        .zip(labels)
        .filter(|(row, &y)| crate::head::predict(row) == y)
        .count();
    correct as f64 / labels.len() as f64
}

/// `SNR = ‖A‖² / ‖A − Ã‖²` between a clean and a noisy outcome matrix.
///
/// # Panics
///
/// Panics on shape mismatch or empty input.
pub fn snr(clean: &[Vec<f64>], noisy: &[Vec<f64>]) -> f64 {
    assert_eq!(clean.len(), noisy.len(), "batch size mismatch");
    assert!(!clean.is_empty(), "empty batch");
    let mut signal = 0.0;
    let mut noise = 0.0;
    for (a, b) in clean.iter().zip(noisy) {
        assert_eq!(a.len(), b.len(), "row length mismatch");
        for (&x, &y) in a.iter().zip(b) {
            signal += x * x;
            noise += (x - y) * (x - y);
        }
    }
    if noise == 0.0 {
        f64::INFINITY
    } else {
        signal / noise
    }
}

/// Mean squared error between two outcome matrices.
pub fn mse(clean: &[Vec<f64>], noisy: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (a, b) in clean.iter().zip(noisy) {
        for (&x, &y) in a.iter().zip(b) {
            acc += (x - y) * (x - y);
            n += 1;
        }
    }
    assert!(n > 0, "empty input");
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]];
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn snr_of_identical_matrices_is_infinite() {
        let a = vec![vec![0.5, -0.5]];
        assert!(snr(&a, &a).is_infinite());
    }

    #[test]
    fn snr_decreases_with_noise() {
        let clean = vec![vec![1.0, -1.0], vec![0.5, 0.5]];
        let small: Vec<Vec<f64>> = clean
            .iter()
            .map(|r| r.iter().map(|v| v + 0.01).collect())
            .collect();
        let large: Vec<Vec<f64>> = clean
            .iter()
            .map(|r| r.iter().map(|v| v + 0.3).collect())
            .collect();
        assert!(snr(&clean, &small) > snr(&clean, &large));
    }

    #[test]
    fn mse_matches_hand_computation() {
        let a = vec![vec![0.0, 1.0]];
        let b = vec![vec![0.3, 0.6]];
        assert!((mse(&a, &b) - (0.09 + 0.16) / 2.0).abs() < 1e-12);
    }
}
