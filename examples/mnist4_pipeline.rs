//! Full MNIST-4 ablation pipeline: trains the four Table-1 arms
//! (Baseline → +Normalization → +Gate insertion → +Quantization) against
//! the Yorktown noise model and reports hardware accuracy for each.
//!
//! ```sh
//! cargo run --release --example mnist4_pipeline
//! ```

use quantumnat::core::forward::PipelineOptions;
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use quantumnat::core::model::{NoiseSource, Qnn, QnnConfig};
use quantumnat::core::train::{train, AdamConfig, TrainOptions};
use quantumnat::core::QuantizeSpec;
use quantumnat::data::dataset::{build, Task, TaskConfig};
use quantumnat::noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = build(
        Task::Mnist4,
        &TaskConfig {
            n_train: 192,
            n_valid: 64,
            n_test: 96,
            seed: 11,
        },
    );
    let device = presets::yorktown();
    let config = QnnConfig::standard(16, 4, 2, 2);
    let adam = AdamConfig {
        lr_max: 1.5e-2,
        warmup_epochs: 20,
        total_epochs: 100,
        ..AdamConfig::default()
    };
    let quant = QuantizeSpec::levels(6);

    let arms: Vec<(&str, PipelineOptions, Option<QuantizeSpec>, bool)> = vec![
        ("Baseline", PipelineOptions::baseline(), None, false),
        (
            "+ Post Norm.",
            PipelineOptions {
                normalize: true,
                quantize: None,
                quant_penalty: 0.0,
                ..PipelineOptions::baseline()
            },
            None,
            true,
        ),
        (
            "+ Gate Insert.",
            PipelineOptions {
                noise: NoiseSource::GateInsertion {
                    model: &device,
                    factor: 0.5,
                },
                readout: Some(&device),
                normalize: true,
                quantize: None,
                quant_penalty: 0.0,
                process_last: false,
            },
            None,
            true,
        ),
        (
            "+ Post Quant.",
            PipelineOptions {
                noise: NoiseSource::GateInsertion {
                    model: &device,
                    factor: 0.5,
                },
                readout: Some(&device),
                normalize: true,
                quantize: Some(quant),
                quant_penalty: 0.05,
                process_last: false,
            },
            Some(quant),
            true,
        ),
    ];

    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    println!("MNIST-4 on {} (2 blocks × 2 layers)\n", device.name());
    for (label, pipeline, quantize, norm) in arms {
        let mut qnn = Qnn::for_device(config, &device, 7).expect("fits device");
        let report = train(
            &mut qnn,
            &dataset,
            &TrainOptions {
                adam,
                batch_size: 48,
                pipeline,
                seed: 7,
            },
        )
        .expect("training succeeds");
        let dep = qnn.deploy(&device, 2).expect("deployable");
        let mut rng = StdRng::seed_from_u64(0);
        let acc = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions {
                normalize: if norm {
                    NormMode::BatchStats
                } else {
                    NormMode::Off
                },
                quantize,
                process_last: false,
            },
            &mut rng,
        )
        .expect("inference succeeds")
        .accuracy(&labels);
        println!(
            "{label:16} valid(noise-free) {:.3}   hardware {acc:.3}",
            report.valid_acc
        );
    }
}
