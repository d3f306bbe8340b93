//! Device comparison (the Figure-1 story): the same trained model is
//! deployed on every preset device; accuracy tracks the device's error
//! rates, and QuantumNAT-style normalization recovers most of the loss.
//!
//! ```sh
//! cargo run --release --example device_comparison
//! ```

use quantumnat::core::forward::PipelineOptions;
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use quantumnat::core::model::{Qnn, QnnConfig};
use quantumnat::core::train::{train, AdamConfig, TrainOptions};
use quantumnat::data::dataset::{build, Task, TaskConfig};
use quantumnat::noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = build(Task::Mnist2, &TaskConfig::small(3));
    // Train once with normalization, noise-free (device-agnostic model).
    let mut qnn = Qnn::for_device(QnnConfig::standard(16, 2, 2, 2), &presets::santiago(), 5)
        .expect("fits device");
    train(
        &mut qnn,
        &dataset,
        &TrainOptions {
            adam: AdamConfig {
                lr_max: 1.5e-2,
                warmup_epochs: 8,
                total_epochs: 40,
                ..AdamConfig::default()
            },
            batch_size: 32,
            pipeline: PipelineOptions {
                normalize: true,
                quantize: None,
                quant_penalty: 0.0,
                ..PipelineOptions::baseline()
            },
            seed: 5,
        },
    )
    .expect("training succeeds");

    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    println!(
        "{:<16} {:>9} {:>9} {:>10} {:>10}",
        "device", "1q error", "2q error", "raw acc", "norm acc"
    );
    for device in presets::all_devices() {
        if device.n_qubits() < 4 {
            continue;
        }
        let dep = qnn.deploy(&device, 2).expect("deployable");
        let mut rng = StdRng::seed_from_u64(1);
        let raw = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .expect("inference succeeds")
        .accuracy(&labels);
        let norm = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions {
                normalize: NormMode::BatchStats,
                quantize: None,
                process_last: false,
            },
            &mut rng,
        )
        .expect("inference succeeds")
        .accuracy(&labels);
        println!(
            "{:<16} {:>9.1e} {:>9.1e} {:>10.3} {:>10.3}",
            device.name(),
            device.mean_single_qubit_error(),
            device.mean_two_qubit_error(),
            raw,
            norm
        );
    }
}
