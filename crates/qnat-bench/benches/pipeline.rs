//! Criterion benches for the end-to-end QuantumNAT pipeline: one training
//! step (forward + backward + Adam) and one hardware-deployment inference,
//! with and without noise injection.

use criterion::{criterion_group, criterion_main, Criterion};
use qnat_core::forward::{train_forward, PipelineOptions};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn batch() -> (Vec<Vec<f64>>, Vec<usize>) {
    let features = (0..16)
        .map(|i| {
            (0..16)
                .map(|k| ((i * 16 + k) as f64 * 0.37).sin().abs())
                .collect()
        })
        .collect();
    let labels = (0..16).map(|i| i % 4).collect();
    (features, labels)
}

fn bench_train_step(c: &mut Criterion) {
    let device = presets::yorktown();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 1).unwrap();
    let (features, labels) = batch();
    let mut rng = StdRng::seed_from_u64(0);
    c.bench_function("train_step_noise_free", |b| {
        b.iter(|| {
            train_forward(
                &qnn,
                &features,
                &labels,
                &PipelineOptions::baseline(),
                &mut rng,
            )
        })
    });
    let injected = PipelineOptions {
        noise: NoiseSource::GateInsertion {
            model: &device,
            factor: 0.5,
        },
        readout: Some(&device),
        ..PipelineOptions::default()
    };
    c.bench_function("train_step_noise_injected", |b| {
        b.iter(|| train_forward(&qnn, &features, &labels, &injected, &mut rng))
    });
}

fn bench_deployment(c: &mut Criterion) {
    let device = presets::yorktown();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 1).unwrap();
    let dep = qnn.deploy(&device, 2).unwrap();
    let (features, _) = batch();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("hardware_inference_batch16", |b| {
        b.iter(|| {
            infer(
                &qnn,
                &features,
                &InferenceBackend::Deployed(&dep),
                &InferenceOptions::default(),
                &mut rng,
            )
        })
    });
}

criterion_group!(benches, bench_train_step, bench_deployment);
criterion_main!(benches);
