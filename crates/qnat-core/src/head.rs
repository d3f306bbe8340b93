//! Classification heads (paper §4.1).
//!
//! The last block's per-qubit expectations become class logits through a
//! *fixed* (non-trainable) linear map followed by Softmax:
//!
//! * 2-class on 4 qubits: logit₀ = z₀ + z₁, logit₁ = z₂ + z₃;
//! * 4-class on 4 qubits and 10-class on 10 qubits: identity;
//! * general: qubits are assigned to classes round-robin and summed.

use qnat_autodiff::tensor::Tensor;

/// The fixed head matrix `[n_qubits × n_classes]` (row-major).
///
/// # Panics
///
/// Panics if `n_classes > n_qubits` or either is zero.
pub fn head_matrix(n_qubits: usize, n_classes: usize) -> Tensor {
    assert!(n_qubits > 0 && n_classes > 0, "degenerate head");
    assert!(
        n_classes <= n_qubits,
        "cannot map {n_qubits} qubits to {n_classes} classes"
    );
    let mut w = vec![0.0; n_qubits * n_classes];
    // Contiguous groups: qubit q belongs to class q / (n_qubits/n_classes)
    // — for 4 qubits / 2 classes this is exactly the paper's (0+1, 2+3).
    let group = n_qubits / n_classes;
    for q in 0..n_qubits {
        let class = (q / group).min(n_classes - 1);
        w[q * n_classes + class] = 1.0;
    }
    Tensor::new(w, vec![n_qubits, n_classes])
}

/// Applies the head to raw per-qubit outputs (non-autodiff path).
pub fn apply_head(outputs: &[Vec<f64>], n_classes: usize) -> Vec<Vec<f64>> {
    let n_qubits = outputs[0].len();
    let w = head_matrix(n_qubits, n_classes);
    outputs
        .iter()
        .map(|row| {
            (0..n_classes)
                .map(|c| row.iter().enumerate().map(|(q, &z)| z * w.get2(q, c)).sum())
                .collect()
        })
        .collect()
}

/// Softmax of one logit row.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mx = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - mx).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Argmax prediction of one logit row.
pub fn predict(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_class_head_matches_paper() {
        // Feature 1 = z0 + z1, feature 2 = z2 + z3 (§4.3 visualization).
        let w = head_matrix(4, 2);
        let logits = apply_head(&[vec![0.1, 0.2, 0.3, 0.4]], 2);
        assert!((logits[0][0] - 0.3).abs() < 1e-12);
        assert!((logits[0][1] - 0.7).abs() < 1e-12);
        assert_eq!(w.shape(), &[4, 2]);
    }

    #[test]
    fn square_head_is_identity() {
        let logits = apply_head(&[vec![0.5, -0.2, 0.9, 0.0]], 4);
        assert_eq!(logits[0], vec![0.5, -0.2, 0.9, 0.0]);
    }

    #[test]
    fn softmax_normalizes() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn predict_takes_argmax() {
        assert_eq!(predict(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(predict(&[2.0]), 0);
    }

    #[test]
    #[should_panic(expected = "cannot map")]
    fn too_many_classes_panics() {
        head_matrix(2, 4);
    }
}
