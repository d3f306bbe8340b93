//! Cross-crate integration tests: the full QuantumNAT story exercised
//! end-to-end through the public API of the umbrella crate.

use quantumnat::core::forward::{PipelineOptions, QuantizeSpec};
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use quantumnat::core::metrics::snr;
use quantumnat::core::model::{NoiseSource, Qnn, QnnConfig};
use quantumnat::core::normalize::normalize_batch;
use quantumnat::core::train::{train, AdamConfig, TrainOptions};
use quantumnat::data::dataset::{build, Task, TaskConfig};
use quantumnat::noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn adam(epochs: usize) -> AdamConfig {
    AdamConfig {
        lr_max: 1.5e-2,
        warmup_epochs: (epochs / 5).max(1),
        total_epochs: epochs,
        ..AdamConfig::default()
    }
}

#[test]
fn training_reaches_useful_accuracy_and_deploys() {
    let dataset = build(Task::Mnist2, &TaskConfig::small(1));
    let device = presets::santiago();
    let mut qnn = Qnn::for_device(QnnConfig::standard(16, 2, 2, 2), &device, 3).unwrap();
    let report = train(
        &mut qnn,
        &dataset,
        &TrainOptions {
            adam: adam(35),
            batch_size: 32,
            pipeline: PipelineOptions {
                normalize: true,
                quantize: None,
                quant_penalty: 0.0,
                ..PipelineOptions::baseline()
            },
            seed: 3,
        },
    )
    .unwrap();
    assert!(
        report.valid_acc > 0.7,
        "noise-free validation accuracy {}",
        report.valid_acc
    );
    // Deployment on the emulated hardware with normalization stays close.
    let dep = qnn.deploy(&device, 2).unwrap();
    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let mut rng = StdRng::seed_from_u64(0);
    let acc = infer(
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
    .expect("hardware inference succeeds")
    .accuracy(&labels);
    assert!(acc > 0.6, "hardware accuracy {acc}");
}

#[test]
fn normalization_improves_snr_on_hardware() {
    // The core claim of Theorem 3.1 measured end-to-end.
    let device = presets::yorktown();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 5).unwrap();
    let dep = qnn.deploy(&device, 2).unwrap();
    let dataset = build(Task::Mnist4, &TaskConfig::small(2));
    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let mut rng = StdRng::seed_from_u64(1);
    let clean = infer(
        &qnn,
        &feats,
        &InferenceBackend::NoiseFree,
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .unwrap();
    let noisy = infer(
        &qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .unwrap();
    let mut c = clean.block_outputs[0].clone();
    let mut n = noisy.block_outputs[0].clone();
    let before = snr(&c, &n);
    normalize_batch(&mut c);
    normalize_batch(&mut n);
    let after = snr(&c, &n);
    assert!(
        after > before,
        "normalization should improve SNR ({before} → {after})"
    );
}

#[test]
fn noise_injected_training_is_finite_and_learns() {
    let dataset = build(Task::Mnist2, &TaskConfig::small(4));
    let device = presets::belem();
    let mut qnn = Qnn::for_device(QnnConfig::standard(16, 2, 2, 2), &device, 9).unwrap();
    let report = train(
        &mut qnn,
        &dataset,
        &TrainOptions {
            adam: adam(25),
            batch_size: 32,
            pipeline: PipelineOptions {
                noise: NoiseSource::GateInsertion {
                    model: &device,
                    factor: 0.5,
                },
                readout: Some(&device),
                normalize: true,
                quantize: Some(QuantizeSpec::levels(6)),
                quant_penalty: 0.05,
                process_last: false,
            },
            seed: 9,
        },
    )
    .unwrap();
    let first = report.history.first().unwrap().train_loss;
    let last = report.history.last().unwrap().train_loss;
    assert!(last.is_finite() && first.is_finite());
    assert!(last < first, "injected training should reduce loss");
}

#[test]
fn ten_qubit_model_trains_and_deploys_on_melbourne() {
    // Exercises the 6×6 encoder, the 10-qubit register, routing onto the
    // 15-qubit ladder and the trajectory emulator.
    let cfg = TaskConfig {
        n_train: 24,
        n_valid: 12,
        n_test: 12,
        seed: 1,
    };
    let dataset = build(Task::Mnist10, &cfg);
    let device = presets::melbourne();
    let mut qnn = Qnn::for_device(QnnConfig::standard(36, 10, 2, 2), &device, 2).unwrap();
    train(
        &mut qnn,
        &dataset,
        &TrainOptions {
            adam: adam(3),
            batch_size: 12,
            pipeline: PipelineOptions {
                normalize: true,
                quantize: None,
                quant_penalty: 0.0,
                ..PipelineOptions::baseline()
            },
            seed: 2,
        },
    )
    .unwrap();
    let dep = qnn.deploy(&device, 2).unwrap();
    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let result = infer(
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
    .unwrap();
    assert_eq!(result.logits.len(), 12);
    assert_eq!(result.logits[0].len(), 10);
    let acc = result.accuracy(&labels);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn batched_deployment_matches_direct_and_survives_faults() {
    use quantumnat::core::executor::RetryPolicy;
    use quantumnat::core::infer::InferenceOptions;
    use quantumnat::noise::fault::FaultSpec;

    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 1, 2), &device, 8).unwrap();
    let feats: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..16)
                .map(|k| ((i * 16 + k) as f64 * 0.29).sin().abs())
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(7);

    // Fault-free, exact expectations: the pooled batch path reproduces the
    // direct emulator deployment bit-for-bit.
    let dep = qnn.deploy(&device, 2).unwrap();
    let direct = infer(
        &qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .unwrap();
    let pooled = qnn
        .deploy_batch(&device, 2, RetryPolicy::default(), None, 4, 0)
        .unwrap();
    let batched = infer(
        &qnn,
        &feats,
        &InferenceBackend::Deployed(&pooled),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .unwrap();
    for (a, b) in direct
        .block_outputs
        .iter()
        .flatten()
        .flatten()
        .zip(batched.block_outputs.iter().flatten().flatten())
    {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    // Under injected transient faults the pooled path still completes,
    // reports its retries, and stays invariant to the worker count.
    let run = |workers: usize| {
        let dep = qnn
            .deploy_batch(
                &device,
                2,
                RetryPolicy::default(),
                Some(FaultSpec::transient(0.3, 13)),
                workers,
                99,
            )
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.logits, parallel.logits);
    let report = parallel.report.expect("batch runs carry a report");
    assert_eq!(serial.report, Some(report.clone()));
    assert!(report.retries > 0, "30% transient faults should retry");
    assert_eq!(report.jobs, feats.len());
}

#[test]
fn noise_model_serde_round_trips_through_deployment() {
    // Serialize a device model (as Qiskit would ship it), parse it back,
    // and use it for deployment.
    let json = presets::lima().to_json();
    let device = quantumnat::noise::DeviceModel::from_json(&json).unwrap();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 1, 2), &device, 4).unwrap();
    let dep = qnn.deploy(&device, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let out = infer(
        &qnn,
        &[vec![0.5; 16]],
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .unwrap();
    assert!(out.logits[0].iter().all(|v| v.is_finite()));
}

#[test]
fn cross_device_deployment_uses_target_topology() {
    // A model routed for Santiago (line) deploys on Yorktown (bowtie):
    // the deployment path must re-route for the target device.
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 1, 2), &presets::santiago(), 6).unwrap();
    for target in [presets::yorktown(), presets::belem(), presets::melbourne()] {
        let dep = qnn.deploy(&target, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let out = infer(
            &qnn,
            &[vec![0.3; 16], vec![0.7; 16]],
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        assert!(
            out.logits.iter().flatten().all(|v| v.is_finite()),
            "deployment on {} produced non-finite logits",
            target.name()
        );
    }
}
