//! **Table 13 (Appendix A.3.7)** — normalization with validation-set
//! statistics: when the deployment batch is small, per-block statistics
//! profiled on the validation set substitute for batch statistics with
//! little accuracy loss.

use qnat_bench::harness::*;
use qnat_core::infer::{infer, profile_stats, InferenceBackend, InferenceOptions, NormMode};
use qnat_data::dataset::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();
    let arch = ArchSpec::u3cu3(2, 2);
    let tasks: Vec<Task> = if fast {
        vec![Task::Mnist2]
    } else {
        vec![Task::Fashion4, Task::Vowel4, Task::Mnist2]
    };
    let devices = if fast {
        vec![presets::yorktown()]
    } else {
        vec![presets::santiago(), presets::yorktown(), presets::belem()]
    };
    let mut rows = Vec::new();
    let mut sum_test = 0.0;
    let mut sum_valid = 0.0;
    let mut n_cells = 0usize;
    for &task in &tasks {
        for device in &devices {
            let (qnn, ds, _) = train_arm(task, arch, device, Arm::Full, &cfg);
            let dep = qnn.deploy(device, 2).expect("deployable");
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x13);
            let vfeats: Vec<Vec<f64>> = ds.valid.iter().map(|s| s.features.clone()).collect();
            let stats = profile_stats(
                &qnn,
                &vfeats,
                &InferenceBackend::Deployed(&dep),
                Some(cfg.quant),
                &mut rng,
            )
            .expect("inference succeeds");
            let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
            let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
            let acc_test_stats = infer(
                &qnn,
                &feats,
                &InferenceBackend::Deployed(&dep),
                &arm_inference_options(Arm::Full, &cfg),
                &mut rng,
            )
            .expect("inference succeeds")
            .accuracy(&labels);
            let acc_valid_stats = infer(
                &qnn,
                &feats,
                &InferenceBackend::Deployed(&dep),
                &InferenceOptions {
                    normalize: NormMode::FixedStats(stats.clone()),
                    quantize: Some(cfg.quant),
                    process_last: false,
                },
                &mut rng,
            )
            .expect("inference succeeds")
            .accuracy(&labels);
            let s = &stats[0];
            rows.push(vec![
                format!("{}-{}", task.name(), device.name()),
                format!(
                    "[{}]",
                    s.mean
                        .iter()
                        .map(|m| format!("{m:+.3}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                format!("{acc_test_stats:.2}"),
                format!("{acc_valid_stats:.2}"),
            ]);
            sum_test += acc_test_stats;
            sum_valid += acc_valid_stats;
            n_cells += 1;
        }
    }
    rows.push(vec![
        "average".into(),
        String::new(),
        format!("{:.2}", sum_test / n_cells as f64),
        format!("{:.2}", sum_valid / n_cells as f64),
    ]);
    print_table(
        "Table 13: test-batch statistics vs validation-profiled statistics",
        &[
            "task-device",
            "valid block-1 means",
            "test stats acc",
            "valid stats acc",
        ],
        &rows,
    );
    println!("\nExpected shape (paper Table 13): the two accuracies are close");
    println!("(paper averages 0.67 vs 0.65), enabling small deployment batches.");
}
