//! **Table 11 (Appendix A.3.5)** — reliability of noise models: accuracy
//! evaluated with the stochastic Pauli noise model (the training-time
//! approximation) vs the full density-matrix "real QC" emulator (which adds
//! the amplitude/phase damping the twirled model misses).

use qnat_bench::harness::*;
use qnat_core::infer::{infer, InferenceBackend};
use qnat_data::dataset::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();
    let tasks: Vec<Task> = if fast {
        vec![Task::Mnist4]
    } else {
        vec![Task::Mnist4, Task::Fashion4, Task::Mnist2, Task::Fashion2]
    };
    for (device, arch) in [
        (presets::santiago(), ArchSpec::u3cu3(2, 6)),
        (presets::yorktown(), ArchSpec::u3cu3(2, 2)),
    ] {
        let mut rows = Vec::new();
        for &task in &tasks {
            let (qnn, ds, _) = train_arm(task, arch, &device, Arm::Full, &cfg);
            let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
            let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x11);
            // "Noise model" = exact density-matrix evaluation under the
            // Pauli-twirled calibration model (no damping) — what a
            // downloaded noise model captures.
            let pauli_dev = device.pauli_only();
            let pauli_dep = qnn.deploy(&pauli_dev, 2).expect("deployable");
            let model_acc = infer(
                &qnn,
                &feats,
                &InferenceBackend::Deployed(&pauli_dep),
                &arm_inference_options(Arm::Full, &cfg),
                &mut rng,
            )
            .expect("inference succeeds")
            .accuracy(&labels);
            let real_acc = eval_on_hardware(&qnn, &ds, &device, Arm::Full, &cfg, 2);
            rows.push(vec![
                task.name().to_string(),
                format!("{model_acc:.2}"),
                format!("{real_acc:.2}"),
                format!("{:+.2}", model_acc - real_acc),
            ]);
        }
        print_table(
            &format!(
                "Table 11: noise-model vs real-QC accuracy on {} ({})",
                device.name(),
                arch.label()
            ),
            &["task", "noise model", "real QC (emulated)", "gap"],
            &rows,
        );
    }
    println!("\nExpected shape (paper Table 11): gaps typically below 5 points —");
    println!("the Pauli-twirled model tracks the full-noise hardware closely.");
}
