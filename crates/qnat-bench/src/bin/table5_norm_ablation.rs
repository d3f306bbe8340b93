//! **Table 5** — post-measurement normalization improves both accuracy and
//! SNR across four architectures and three devices (MNIST-4).

use qnat_bench::harness::*;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::metrics::snr;
use qnat_core::normalize::normalize_batch;
use qnat_data::dataset::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();
    let archs: Vec<ArchSpec> = if fast {
        vec![ArchSpec::u3cu3(2, 2)]
    } else {
        vec![
            ArchSpec::u3cu3(2, 2),
            ArchSpec::u3cu3(2, 8),
            ArchSpec::u3cu3(4, 2),
            ArchSpec::u3cu3(4, 4),
        ]
    };
    for device in [presets::santiago(), presets::quito(), presets::athens()] {
        let mut rows = Vec::new();
        for &arch in &archs {
            // Baseline arm (no normalization anywhere).
            let (b_qnn, ds, _) = train_arm(Task::Mnist4, arch, &device, Arm::Baseline, &cfg);
            let acc_base = eval_on_hardware(&b_qnn, &ds, &device, Arm::Baseline, &cfg, 2);
            // SNR of the baseline model's block-1 outcomes.
            let dep = b_qnn.deploy(&device, 2).expect("deployable");
            let mut rng = StdRng::seed_from_u64(3);
            let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
            let clean = infer(
                &b_qnn,
                &feats,
                &InferenceBackend::NoiseFree,
                &InferenceOptions::baseline(),
                &mut rng,
            )
            .expect("inference succeeds");
            let noisy = infer(
                &b_qnn,
                &feats,
                &InferenceBackend::Deployed(&dep),
                &InferenceOptions::baseline(),
                &mut rng,
            )
            .expect("inference succeeds");
            let snr_base = snr(&clean.block_outputs[0], &noisy.block_outputs[0]);
            let mut cn = clean.block_outputs[0].clone();
            let mut nn = noisy.block_outputs[0].clone();
            normalize_batch(&mut cn);
            normalize_batch(&mut nn);
            let snr_norm = snr(&cn, &nn);
            // +Norm arm accuracy.
            let (n_qnn, ds2, _) = train_arm(Task::Mnist4, arch, &device, Arm::Norm, &cfg);
            let acc_norm = eval_on_hardware(&n_qnn, &ds2, &device, Arm::Norm, &cfg, 2);
            rows.push(vec![
                arch.label(),
                format!("{acc_base:.2}"),
                format!("{snr_base:.2}"),
                format!("{acc_norm:.2}"),
                format!("{snr_norm:.2}"),
            ]);
        }
        print_table(
            &format!("Table 5: normalization ablation on {}", device.name()),
            &["arch", "base acc", "base SNR", "+norm acc", "+norm SNR"],
            &rows,
        );
    }
    println!("\nExpected shape (paper Table 5): +norm raises SNR in every cell and");
    println!("accuracy in nearly all; deeper models have lower raw SNR.");
}
