//! **Figure 4** — post-measurement normalization reduces the mismatch
//! between noise-free and noisy measurement distributions and improves SNR.
//!
//! For a trained MNIST-4 model on Santiago, prints each qubit's outcome
//! mean/std in the noise-free and noisy cases before and after
//! normalization, plus the SNR improvement.

use qnat_bench::harness::*;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::metrics::snr;
use qnat_core::normalize::normalize_batch;
use qnat_data::dataset::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn col_stats(m: &[Vec<f64>], q: usize) -> (f64, f64) {
    let n = m.len() as f64;
    let mean = m.iter().map(|r| r[q]).sum::<f64>() / n;
    let var = m.iter().map(|r| (r[q] - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    let cfg = RunConfig::default();
    let device = presets::santiago();
    let (qnn, ds, _) = train_arm(
        Task::Mnist4,
        ArchSpec::u3cu3(2, 2),
        &device,
        Arm::Norm,
        &cfg,
    );
    let dep = qnn.deploy(&device, 2).expect("deployable");
    let mut rng = StdRng::seed_from_u64(1);
    let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
    let clean = infer(
        &qnn,
        &feats,
        &InferenceBackend::NoiseFree,
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .expect("inference succeeds");
    let noisy = infer(
        &qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .expect("inference succeeds");
    let mut c = clean.block_outputs[0].clone();
    let mut n = noisy.block_outputs[0].clone();
    let mut rows = Vec::new();
    for q in 0..4 {
        let (cm, cs) = col_stats(&c, q);
        let (nm, ns) = col_stats(&n, q);
        rows.push(vec![
            format!("qubit {q}"),
            format!("{cm:+.3} ± {cs:.3}"),
            format!("{nm:+.3} ± {ns:.3}"),
        ]);
    }
    print_table(
        "Figure 4: block-1 outcome distributions (before normalization)",
        &["qubit", "noise-free μ±σ", "noisy μ±σ"],
        &rows,
    );
    let snr_before = snr(&c, &n);
    normalize_batch(&mut c);
    normalize_batch(&mut n);
    let snr_after = snr(&c, &n);
    println!("\nSNR before normalization: {snr_before:.3}");
    println!("SNR after  normalization: {snr_after:.3}");
    println!("Expected shape (paper Fig. 4): SNR clearly improves after normalization.");
    assert!(snr_after > snr_before, "normalization must improve SNR");
}
