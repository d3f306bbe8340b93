//! Quickstart: build a QNN, train it noise-aware against a device noise
//! model, and compare baseline vs QuantumNAT accuracy on the emulated
//! hardware.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use quantumnat::core::forward::PipelineOptions;
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use quantumnat::core::model::{NoiseSource, Qnn, QnnConfig};
use quantumnat::core::train::{train, AdamConfig, TrainOptions};
use quantumnat::data::dataset::{build, Task, TaskConfig};
use quantumnat::noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic MNIST-2 dataset with the paper's preprocessing
    //    (center-crop 24×24, average-pool to 4×4).
    let dataset = build(Task::Mnist2, &TaskConfig::small(1));

    // 2. The target device: a synthetic IBMQ-Yorktown calibration model.
    let device = presets::yorktown();
    println!("device: {device}");

    // 3. Two models: a noise-unaware baseline and a QuantumNAT model
    //    trained with normalization + gate-insertion noise + quantization.
    //    Three layers per block: deep enough that gate noise visibly
    //    erodes the noise-unaware baseline (each CU3 layer compounds the
    //    ~4e-2 two-qubit error), shallow enough that both models train.
    let config = QnnConfig::standard(dataset.n_features, dataset.n_classes, 2, 3);
    let adam = AdamConfig {
        lr_max: 1.5e-2,
        warmup_epochs: 8,
        total_epochs: 40,
        ..AdamConfig::default()
    };

    let mut baseline = Qnn::for_device(config, &device, 7).expect("fits device");
    train(
        &mut baseline,
        &dataset,
        &TrainOptions {
            adam,
            batch_size: 32,
            pipeline: PipelineOptions::baseline(),
            seed: 7,
        },
    )
    .expect("training succeeds");

    let mut quantumnat = Qnn::for_device(config, &device, 7).expect("fits device");
    train(
        &mut quantumnat,
        &dataset,
        &TrainOptions {
            adam,
            batch_size: 32,
            pipeline: PipelineOptions {
                noise: NoiseSource::GateInsertion {
                    model: &device,
                    factor: 0.5,
                },
                readout: Some(&device),
                ..PipelineOptions::default()
            },
            seed: 7,
        },
    )
    .expect("training succeeds");

    // 4. Deploy both on the emulated hardware and compare.
    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let mut rng = StdRng::seed_from_u64(0);

    let dep_b = baseline.deploy(&device, 2).expect("deployable");
    let acc_base = infer(
        &baseline,
        &feats,
        &InferenceBackend::Deployed(&dep_b),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .expect("inference succeeds")
    .accuracy(&labels);

    let dep_q = quantumnat.deploy(&device, 2).expect("deployable");
    let acc_qnat = infer(
        &quantumnat,
        &feats,
        &InferenceBackend::Deployed(&dep_q),
        &InferenceOptions {
            normalize: NormMode::BatchStats,
            quantize: Some(quantumnat::core::QuantizeSpec::levels(5)),
            process_last: false,
        },
        &mut rng,
    )
    .expect("inference succeeds")
    .accuracy(&labels);

    println!("baseline  accuracy on noisy hardware: {acc_base:.3}");
    println!("QuantumNAT accuracy on noisy hardware: {acc_qnat:.3}");
    println!("noise-aware training gain: {:+.3}", acc_qnat - acc_base);
}
