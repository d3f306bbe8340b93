//! **Figure 9** — breakdown of the accuracy gain: noise injection and
//! quantization applied individually vs jointly (all on top of
//! normalization), MNIST-4.

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
    let device = presets::yorktown();
    let task = Task::Mnist4;
    let arch = ArchSpec::u3cu3(2, 2);
    let dataset = build(task, &cfg.data);

    let variants: Vec<(&str, bool, bool)> = vec![
        ("norm only", false, false),
        ("+ injection only", true, false),
        ("+ quantization only", false, true),
        ("+ both (QuantumNAT)", true, true),
    ];
    let mut rows = Vec::new();
    for (label, inject, quant) in variants {
        let mut qnn = Qnn::for_device(qnn_config(task, arch), &device, cfg.seed).expect("fits");
        let pipeline = PipelineOptions {
            noise: if inject {
                NoiseSource::GateInsertion {
                    model: &device,
                    factor: cfg.t_factor,
                }
            } else {
                NoiseSource::None
            },
            readout: if inject { Some(&device) } else { None },
            normalize: true,
            quantize: if quant { Some(cfg.quant) } else { None },
            quant_penalty: if quant { cfg.quant_penalty } else { 0.0 },
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
        let dep = qnn.deploy(&device, 2).expect("deployable");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAB);
        let feats: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
        let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
        let acc = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions {
                normalize: NormMode::BatchStats,
                quantize: if quant { Some(cfg.quant) } else { None },
                process_last: false,
            },
            &mut rng,
        )
        .expect("inference succeeds")
        .accuracy(&labels);
        rows.push(vec![label.to_string(), format!("{acc:.2}")]);
    }
    print_table(
        "Figure 9: individual vs joint application (MNIST-4, Yorktown)",
        &["pipeline", "hardware accuracy"],
        &rows,
    );
    println!("\nExpected shape (paper Fig. 9): each technique alone helps;");
    println!("combining them delivers the best accuracy.");
}
