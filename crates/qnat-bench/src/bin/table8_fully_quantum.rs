//! **Table 8 (Appendix A.3.3)** — QuantumNAT on fully-quantum models:
//! a single block (no intermediate measurement); normalization and
//! quantization are applied to the *last* layer's outcomes.

use qnat_bench::harness::*;
use qnat_core::forward::PipelineOptions;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::{NoiseSource, Qnn};
use qnat_core::train::{train, AdamConfig, TrainOptions};
use qnat_data::dataset::{build, Task};
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig {
        t_factor: 0.5,
        quant: qnat_core::QuantizeSpec::levels(6),
        ..RunConfig::default()
    };
    let tasks: Vec<Task> = if fast {
        vec![Task::Mnist2]
    } else {
        vec![Task::Mnist4, Task::Fashion4, Task::Mnist2, Task::Fashion2]
    };
    let layer_counts: Vec<usize> = if fast { vec![3] } else { vec![3, 6] };
    for device in [presets::santiago(), presets::belem()] {
        for &layers in &layer_counts {
            let arch = ArchSpec::u3cu3(1, layers);
            let mut rows = Vec::new();
            for &task in &tasks {
                let dataset = build(task, &cfg.data);
                let mut accs = Vec::new();
                for full in [false, true] {
                    let mut qnn =
                        Qnn::for_device(qnn_config(task, arch), &device, cfg.seed).expect("fits");
                    let pipeline = if full {
                        PipelineOptions {
                            noise: NoiseSource::GateInsertion {
                                model: &device,
                                factor: cfg.t_factor,
                            },
                            readout: Some(&device),
                            normalize: true,
                            quantize: Some(cfg.quant),
                            quant_penalty: cfg.quant_penalty,
                            process_last: true,
                        }
                    } else {
                        PipelineOptions::baseline()
                    };
                    let options = TrainOptions {
                        adam: AdamConfig {
                            lr_max: cfg.lr_max,
                            warmup_epochs: (cfg.epochs / 5).max(1),
                            total_epochs: cfg.epochs,
                            ..AdamConfig::default()
                        },
                        batch_size: cfg.batch_size,
                        pipeline,
                        seed: cfg.seed,
                    };
                    train(&mut qnn, &dataset, &options).expect("training succeeds");
                    let dep = qnn.deploy(&device, 2).expect("deployable");
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x88);
                    let feats: Vec<Vec<f64>> =
                        dataset.test.iter().map(|s| s.features.clone()).collect();
                    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
                    let opts = if full {
                        InferenceOptions {
                            normalize: NormMode::BatchStats,
                            quantize: Some(cfg.quant),
                            process_last: true,
                        }
                    } else {
                        InferenceOptions::baseline()
                    };
                    let acc = infer(
                        &qnn,
                        &feats,
                        &InferenceBackend::Deployed(&dep),
                        &opts,
                        &mut rng,
                    )
                    .expect("inference succeeds")
                    .accuracy(&labels);
                    accs.push(acc);
                }
                rows.push(vec![
                    task.name().to_string(),
                    format!("{:.2}", accs[0]),
                    format!("{:.2}", accs[1]),
                ]);
            }
            print_table(
                &format!(
                    "Table 8: fully-quantum {} model on {}",
                    arch.label(),
                    device.name()
                ),
                &["task", "Baseline", "QuantumNAT"],
                &rows,
            );
        }
    }
    println!("\nExpected shape (paper Table 8): QuantumNAT beats the baseline on");
    println!("most tasks even without intermediate measurements (+7.4% average).");
}
