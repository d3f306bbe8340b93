//! **Figure 7** — ablation of noise-injection methods.
//!
//! Left: without quantization, sweep the noise factor `T` for gate
//! insertion, measurement-outcome perturbation and rotation-angle
//! perturbation. Right: with quantization (T = 0.5), sweep quantization
//! levels for gate insertion vs outcome perturbation — perturbation is
//! largely cancelled by quantization, so insertion wins.
//!
//! Gaussian statistics for the perturbations are benchmarked from
//! validation-set error profiling, as in the paper.

use qnat_bench::harness::*;
use qnat_core::forward::{PipelineOptions, QuantizeSpec};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::{NoiseSource, Qnn};
use qnat_core::train::{train, AdamConfig, TrainOptions};
use qnat_data::dataset::{build, Task};
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Benchmarks the noise-free vs noisy outcome error distribution on the
/// validation set, returning (μ_err, σ_err) — paper §3.2, "Direct
/// perturbation".
fn benchmark_error_stats(
    qnn: &Qnn,
    valid: &[qnat_data::Sample],
    device: &qnat_noise::DeviceModel,
) -> (f64, f64) {
    let dep = qnn.deploy(device, 2).expect("deployable");
    let mut rng = StdRng::seed_from_u64(17);
    let feats: Vec<Vec<f64>> = valid.iter().map(|s| s.features.clone()).collect();
    let clean = infer(
        qnn,
        &feats,
        &InferenceBackend::NoiseFree,
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .expect("inference succeeds");
    let noisy = infer(
        qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions::baseline(),
        &mut rng,
    )
    .expect("inference succeeds");
    let errs: Vec<f64> = clean.block_outputs[0]
        .iter()
        .flatten()
        .zip(noisy.block_outputs[0].iter().flatten())
        .map(|(c, n)| n - c)
        .collect();
    let mu = errs.iter().sum::<f64>() / errs.len() as f64;
    let var = errs.iter().map(|e| (e - mu).powi(2)).sum::<f64>() / errs.len() as f64;
    (mu, var.sqrt())
}

fn train_with(
    task: Task,
    device: &qnat_noise::DeviceModel,
    noise: NoiseSource<'_>,
    quantize: Option<QuantizeSpec>,
    cfg: &RunConfig,
) -> (Qnn, qnat_data::Dataset) {
    let dataset = build(task, &cfg.data);
    let arch = ArchSpec::u3cu3(2, 2);
    let mut qnn = Qnn::for_device(qnn_config(task, arch), device, cfg.seed).expect("fits device");
    let pipeline = PipelineOptions {
        noise,
        readout: Some(device),
        normalize: true,
        quantize,
        quant_penalty: if quantize.is_some() {
            cfg.quant_penalty
        } else {
            0.0
        },
        process_last: false,
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
    (qnn, dataset)
}

fn hw_accuracy(
    qnn: &Qnn,
    ds: &qnat_data::Dataset,
    device: &qnat_noise::DeviceModel,
    quantize: Option<QuantizeSpec>,
    cfg: &RunConfig,
) -> f64 {
    let dep = qnn.deploy(device, 2).expect("deployable");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF1);
    let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
    infer(
        qnn,
        &feats,
        &InferenceBackend::Deployed(&dep),
        &InferenceOptions {
            normalize: NormMode::BatchStats,
            quantize,
            process_last: false,
        },
        &mut rng,
    )
    .expect("inference succeeds")
    .accuracy(&labels)
}

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();
    let device = presets::yorktown();
    let task = Task::Mnist4;

    // Benchmark perturbation statistics from a +Norm reference model.
    let (ref_qnn, ds, _) = train_arm(task, ArchSpec::u3cu3(2, 2), &device, Arm::Norm, &cfg);
    let (mu, sigma) = benchmark_error_stats(&ref_qnn, &ds.valid, &device);
    println!("benchmarked outcome-error stats: mu = {mu:.4}, sigma = {sigma:.4}");

    // Left plot: accuracy vs noise factor, no quantization.
    let factors: &[f64] = if fast { &[0.5] } else { &[0.1, 0.5, 1.0, 1.5] };
    let mut rows = Vec::new();
    for &t in factors {
        let (gi, ds1) = train_with(
            task,
            &device,
            NoiseSource::GateInsertion {
                model: &device,
                factor: t,
            },
            None,
            &cfg,
        );
        let (op, ds2) = train_with(
            task,
            &device,
            NoiseSource::OutcomePerturb {
                mu: mu * t,
                sigma: sigma * t,
            },
            None,
            &cfg,
        );
        let (ap, ds3) = train_with(
            task,
            &device,
            NoiseSource::AnglePerturb { sigma: 0.12 * t },
            None,
            &cfg,
        );
        rows.push(vec![
            format!("{t}"),
            format!("{:.2}", hw_accuracy(&gi, &ds1, &device, None, &cfg)),
            format!("{:.2}", hw_accuracy(&op, &ds2, &device, None, &cfg)),
            format!("{:.2}", hw_accuracy(&ap, &ds3, &device, None, &cfg)),
        ]);
    }
    print_table(
        "Figure 7 (left): accuracy vs noise factor, no quantization",
        &["T", "gate insertion", "outcome perturb", "angle perturb"],
        &rows,
    );

    // Right plot: with quantization at T = 0.5, sweep levels.
    let levels: &[usize] = if fast { &[5] } else { &[3, 4, 5, 6] };
    let mut rows = Vec::new();
    for &lv in levels {
        let q = Some(QuantizeSpec::levels(lv));
        let (gi, ds1) = train_with(
            task,
            &device,
            NoiseSource::GateInsertion {
                model: &device,
                factor: 0.5,
            },
            q,
            &cfg,
        );
        let (op, ds2) = train_with(
            task,
            &device,
            NoiseSource::OutcomePerturb {
                mu: mu * 0.5,
                sigma: sigma * 0.5,
            },
            q,
            &cfg,
        );
        rows.push(vec![
            format!("{lv}"),
            format!("{:.2}", hw_accuracy(&gi, &ds1, &device, q, &cfg)),
            format!("{:.2}", hw_accuracy(&op, &ds2, &device, q, &cfg)),
        ]);
    }
    print_table(
        "Figure 7 (right): accuracy vs quantization levels (T = 0.5)",
        &["levels", "gate insertion", "outcome perturb"],
        &rows,
    );
    println!("\nExpected shape (paper Fig. 7): without quantization gate insertion ≈");
    println!("outcome perturbation > angle perturbation; with quantization gate");
    println!("insertion wins because added perturbations are cancelled by rounding.");
}
