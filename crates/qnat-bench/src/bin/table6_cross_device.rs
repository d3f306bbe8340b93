//! **Table 6 (Appendix A.3.1)** — hardware-specific noise models matter:
//! models trained with noise model X and deployed on device Y show a
//! diagonal accuracy pattern (best when X = Y).

use qnat_bench::harness::*;
use qnat_core::forward::PipelineOptions;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::{NoiseSource, Qnn};
use qnat_core::train::{train, AdamConfig, TrainOptions};
use qnat_data::dataset::build;
use qnat_data::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = RunConfig::default();
    // The paper uses Fashion-2; our synthetic Fashion-2 saturates near 1.0
    // on all three devices (ceiling effect), so the harder MNIST-4 is used
    // to resolve the diagonal.
    let task = Task::Mnist4;
    let arch = ArchSpec::u3cu3(2, 2);
    let dataset = build(task, &cfg.data);
    let models = [presets::santiago(), presets::yorktown(), presets::lima()];

    // Train one model per noise model (all routed for the same line layout
    // so cross-device deployment is fair).
    let trained: Vec<Qnn> = models
        .iter()
        .map(|noise_model| {
            let mut qnn =
                Qnn::for_device(qnn_config(task, arch), noise_model, cfg.seed).expect("fits");
            let options = TrainOptions {
                adam: AdamConfig {
                    lr_max: cfg.lr_max,
                    warmup_epochs: (cfg.epochs / 5).max(1),
                    total_epochs: cfg.epochs,
                    ..AdamConfig::default()
                },
                batch_size: cfg.batch_size,
                pipeline: PipelineOptions {
                    noise: NoiseSource::GateInsertion {
                        model: noise_model,
                        factor: cfg.t_factor,
                    },
                    readout: Some(noise_model),
                    normalize: true,
                    quantize: Some(cfg.quant),
                    quant_penalty: cfg.quant_penalty,
                    process_last: false,
                },
                seed: cfg.seed,
            };
            train(&mut qnn, &dataset, &options).expect("training succeeds");
            qnn
        })
        .collect();

    let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let mut rows = Vec::new();
    for infer_device in &models {
        let mut row = vec![infer_device.name().to_string()];
        for qnn in &trained {
            let dep = qnn.deploy(infer_device, 2).expect("deployable");
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x66);
            let acc = infer(
                qnn,
                &feats,
                &InferenceBackend::Deployed(&dep),
                &InferenceOptions {
                    normalize: NormMode::BatchStats,
                    quantize: Some(cfg.quant),
                    process_last: false,
                },
                &mut rng,
            )
            .expect("inference succeeds")
            .accuracy(&labels);
            row.push(format!("{acc:.2}"));
        }
        rows.push(row);
    }
    print_table(
        "Table 6: noise model used for training (columns) vs inference device (rows)",
        &[
            "inference on ↓",
            "santiago model",
            "yorktown model",
            "lima model",
        ],
        &rows,
    );
    println!("\nExpected shape (paper Table 6): a diagonal pattern — matching the");
    println!("training noise model to the inference device gives the best accuracy.");
}
