//! End-to-end fault-tolerance tests: the Full-arm deployment pipeline
//! under injected backend faults must keep serving answers — retrying
//! transient failures, falling back to the noise-model simulator, and
//! recording everything in the execution report.

use qnat_core::forward::{PipelineOptions, QuantizeSpec};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::train::{train, AdamConfig, TrainOptions};
use qnat_core::RetryPolicy;
use qnat_data::dataset::{build, Dataset, Task, TaskConfig};
use qnat_noise::{presets, FaultSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trains a small Full-arm (noise injection + normalization +
/// quantization) model on MNIST-2 against Santiago.
fn trained_full_arm() -> (Qnn, Dataset) {
    let dataset = build(Task::Mnist2, &TaskConfig::small(1));
    let device = presets::santiago();
    let mut qnn =
        Qnn::for_device(QnnConfig::standard(16, 2, 2, 2), &device, 3).expect("fits device");
    train(
        &mut qnn,
        &dataset,
        &TrainOptions {
            adam: AdamConfig {
                lr_max: 1.5e-2,
                warmup_epochs: 5,
                total_epochs: 25,
                ..AdamConfig::default()
            },
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
            seed: 3,
        },
    )
    .expect("training succeeds");
    (qnn, dataset)
}

fn full_arm_options() -> InferenceOptions {
    InferenceOptions {
        normalize: NormMode::BatchStats,
        quantize: Some(QuantizeSpec::levels(6)),
        process_last: false,
    }
}

fn test_accuracy(
    qnn: &Qnn,
    dataset: &Dataset,
    faults: Option<FaultSpec>,
) -> (f64, qnat_core::ExecutionReport) {
    let device = presets::santiago();
    let dep = qnn
        .deploy_resilient(&device, 2, RetryPolicy::default(), faults, 11)
        .expect("deployable");
    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let result = infer(
        qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &full_arm_options(),
        &mut rng,
    )
    .expect("resilient inference returns Ok even under faults");
    let acc = result.accuracy(&labels);
    let report = result.report.expect("resilient run carries a report");
    (acc, report)
}

#[test]
fn full_arm_survives_30pct_transient_faults() {
    let (qnn, dataset) = trained_full_arm();

    let (clean_acc, clean_report) = test_accuracy(&qnn, &dataset, None);
    assert!(clean_acc > 0.6, "fault-free hardware accuracy {clean_acc}");
    assert_eq!(clean_report.retries, 0);
    assert!(!clean_report.degraded);

    let (faulty_acc, report) = test_accuracy(&qnn, &dataset, Some(FaultSpec::transient(0.3, 99)));
    // Retries absorb a 30% transient rate: the pipeline answers every
    // query, and accuracy stays within 2 points of the fault-free run.
    assert!(
        (faulty_acc - clean_acc).abs() <= 0.02 + 1e-12,
        "faulty {faulty_acc} vs clean {clean_acc}"
    );
    assert!(report.retries > 0, "expected retries at a 30% fault rate");
    assert!(report.attempts > report.jobs);
    assert!(
        report.total_backoff_ms > 0,
        "retries must accrue (virtual) backoff"
    );
    assert!(
        !report.degraded,
        "30% transients should not force degradation"
    );
}

#[test]
fn total_primary_outage_degrades_to_noise_model_and_still_answers() {
    let (qnn, dataset) = trained_full_arm();
    let (clean_acc, _) = test_accuracy(&qnn, &dataset, None);

    // Every primary attempt fails: the executor must degrade to the
    // noise-model fallback and keep answering.
    let (acc, report) = test_accuracy(&qnn, &dataset, Some(FaultSpec::transient(1.0, 4)));
    assert!(report.degraded, "permanent outage must trigger degradation");
    assert!(report.fallback_jobs > 0);
    assert_eq!(report.jobs, 64 * 2, "two blocks × 64 test samples");
    // The noise-model simulator is a faithful stand-in (paper Table 11):
    // accuracy stays close to the emulated-hardware run.
    assert!(
        (acc - clean_acc).abs() <= 0.05 + 1e-12,
        "degraded {acc} vs clean {clean_acc}"
    );
}
