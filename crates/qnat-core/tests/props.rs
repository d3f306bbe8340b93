//! Property-based tests for QuantumNAT core invariants: Theorem 3.1
//! (normalization cancels affine noise), model Jacobian consistency and
//! head/metrics sanity.

use proptest::prelude::*;
use qnat_core::head::{apply_head, predict, softmax};
use qnat_core::metrics::{accuracy, mse, snr};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::normalize::normalize_batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-column variance floor: the affine-cancellation property only holds
/// when the true variance dominates the numerical ε inside the
/// normalization (a constant qubit carries no signal to recover).
fn min_column_var(rows: &[Vec<f64>]) -> f64 {
    let q = rows[0].len();
    let n = rows.len() as f64;
    (0..q)
        .map(|j| {
            let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n;
            rows.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n
        })
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normalization_cancels_affine_noise(
        rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 4), 4..16),
        gamma in 0.05f64..1.0,
        beta in -0.5f64..0.5,
    ) {
        // Theorem 3.1: f(y) = γ·y + β normalizes to the same values as y.
        prop_assume!(min_column_var(&rows) > 1e-3);
        let mut clean = rows.clone();
        let mut corrupted: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| gamma * v + beta).collect())
            .collect();
        normalize_batch(&mut clean);
        normalize_batch(&mut corrupted);
        for (a, b) in clean.iter().flatten().zip(corrupted.iter().flatten()) {
            // Tolerance dominated by the ε floor inside the normalization
            // when γ strongly contracts the variance.
            prop_assert!((a - b).abs() < 2e-3, "{} vs {}", a, b);
        }
    }

    #[test]
    fn per_qubit_affine_noise_also_cancelled(
        rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 4..12),
        gammas in prop::collection::vec(0.1f64..1.0, 3),
        betas in prop::collection::vec(-0.4f64..0.4, 3),
    ) {
        prop_assume!(min_column_var(&rows) > 1e-3);
        let mut clean = rows.clone();
        let mut corrupted: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(q, &v)| gammas[q] * v + betas[q])
                    .collect()
            })
            .collect();
        normalize_batch(&mut clean);
        normalize_batch(&mut corrupted);
        for (a, b) in clean.iter().flatten().zip(corrupted.iter().flatten()) {
            prop_assert!((a - b).abs() < 2e-3);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(logits in prop::collection::vec(-4.0f64..4.0, 2..6), c in -3.0f64..3.0) {
        let shifted: Vec<f64> = logits.iter().map(|v| v + c).collect();
        let a = softmax(&logits);
        let b = softmax(&shifted);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-10);
        }
        prop_assert_eq!(predict(&logits), predict(&shifted));
    }

    #[test]
    fn head_preserves_total_signal(z in prop::collection::vec(-1.0f64..1.0, 4)) {
        // The fixed 4→2 head sums disjoint qubit groups.
        let logits = apply_head(std::slice::from_ref(&z), 2);
        let total: f64 = logits[0].iter().sum();
        prop_assert!((total - z.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn snr_and_mse_are_consistent(
        clean in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 2..8),
        eps in 0.01f64..0.5,
    ) {
        let noisy: Vec<Vec<f64>> = clean
            .iter()
            .map(|r| r.iter().map(|v| v + eps).collect())
            .collect();
        prop_assert!((mse(&clean, &noisy) - eps * eps).abs() < 1e-9);
        let signal: f64 = clean.iter().flatten().map(|v| v * v).sum();
        prop_assume!(signal > 1e-6);
        let expect_snr = signal / (eps * eps * (clean.len() * 3) as f64);
        prop_assert!((snr(&clean, &noisy) - expect_snr).abs() < 1e-6 * expect_snr.max(1.0));
    }

    #[test]
    fn accuracy_is_a_fraction(
        n in 1usize..20,
        seed in 0u64..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let logits: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let a = accuracy(&logits, &labels);
        prop_assert!((0.0..=1.0).contains(&a));
        let scaled = a * n as f64;
        prop_assert!(scaled.round() - scaled < 1e-9);
    }
}

#[test]
fn model_outputs_invariant_to_rebuild() {
    // Deterministic construction: same seed → same parameters → same
    // outputs.
    let a = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 42);
    let b = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 42);
    assert_eq!(a.parameters(), b.parameters());
    let mut rng = StdRng::seed_from_u64(0);
    let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
    let oa = a
        .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
        .outputs;
    let ob = b
        .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
        .outputs;
    assert_eq!(oa, ob);
}
