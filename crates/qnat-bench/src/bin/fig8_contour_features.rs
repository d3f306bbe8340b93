//! **Figure 8** — left: accuracy contour over (noise factor `T`,
//! quantization levels) on Fashion-4 / Athens; right: the 2-D feature
//! visualization for MNIST-2 on Belem (feature 1 = z₀+z₁, feature 2 =
//! z₂+z₃) for baseline / +norm / +injection pipelines.

use qnat_bench::harness::*;
use qnat_core::forward::QuantizeSpec;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::normalize::normalize_batch;
use qnat_data::dataset::Task;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();

    // Left: (T, levels) contour.
    let device = presets::athens();
    let factors: &[f64] = if fast {
        &[0.2, 1.0]
    } else {
        &[0.1, 0.2, 0.5, 1.0]
    };
    let levels: &[usize] = if fast { &[5] } else { &[3, 4, 5, 6] };
    let mut rows = Vec::new();
    for &t in factors {
        let mut row = vec![format!("T={t}")];
        for &lv in levels {
            let cell = RunConfig {
                t_factor: t,
                quant: QuantizeSpec::levels(lv),
                ..cfg
            };
            let (qnn, ds, _) = train_arm(
                Task::Fashion4,
                ArchSpec::u3cu3(2, 2),
                &device,
                Arm::Full,
                &cell,
            );
            let acc = eval_on_hardware(&qnn, &ds, &device, Arm::Full, &cell, 2);
            row.push(format!("{acc:.2}"));
        }
        rows.push(row);
    }
    let mut header = vec!["noise factor".to_string()];
    header.extend(levels.iter().map(|l| format!("q{l}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Figure 8 (left): Fashion-4 / Athens accuracy over (T, quant levels)",
        &header_refs,
        &rows,
    );
    println!("Expected shape: an interior maximum — too little noise/levels and");
    println!("too much both hurt (paper found the peak near T=0.2, 5 levels).");

    // Right: feature scatter on Belem MNIST-2.
    let device = presets::belem();
    let mut rows = Vec::new();
    for arm in [Arm::Baseline, Arm::Norm, Arm::NormInject] {
        let (qnn, ds, _) = train_arm(Task::Mnist2, ArchSpec::u3cu3(2, 2), &device, arm, &cfg);
        let dep = qnn.deploy(&device, 2).expect("deployable");
        let mut rng = StdRng::seed_from_u64(4);
        let feats: Vec<Vec<f64>> = ds
            .test
            .iter()
            .take(48)
            .map(|s| s.features.clone())
            .collect();
        let labels: Vec<usize> = ds.test.iter().take(48).map(|s| s.label).collect();
        let result = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions {
                normalize: if arm == Arm::Baseline {
                    NormMode::Off
                } else {
                    NormMode::BatchStats
                },
                quantize: None,
                process_last: false,
            },
            &mut rng,
        )
        .expect("inference succeeds");
        // Last-block outputs → the two features.
        let last = result.block_outputs.last().expect("has blocks");
        let mut z = last.clone();
        if arm != Arm::Baseline {
            // The figure plots the normalized features for the norm arms.
            normalize_batch(&mut z);
        }
        let feature_pairs: Vec<(f64, f64, usize)> = z
            .iter()
            .zip(&labels)
            .map(|(row, &y)| (row[0] + row[1], row[2] + row[3], y))
            .collect();
        // Summaries: class centroids and margin statistics.
        for class in 0..2 {
            let pts: Vec<(f64, f64)> = feature_pairs
                .iter()
                .filter(|&&(_, _, y)| y == class)
                .map(|&(a, b, _)| (a, b))
                .collect();
            let n = pts.len() as f64;
            let cx = pts.iter().map(|p| p.0).sum::<f64>() / n;
            let cy = pts.iter().map(|p| p.1).sum::<f64>() / n;
            let spread = (pts
                .iter()
                .map(|p| (p.0 - cx).powi(2) + (p.1 - cy).powi(2))
                .sum::<f64>()
                / n)
                .sqrt();
            rows.push(vec![
                arm.label().to_string(),
                format!("class {class}"),
                format!("({cx:+.2}, {cy:+.2})"),
                format!("{spread:.2}"),
            ]);
        }
        // Distance of centroids from the boundary f1 = f2.
        let margin: f64 = feature_pairs
            .iter()
            .map(|&(a, b, y)| {
                let signed = (a - b) / std::f64::consts::SQRT_2;
                if y == 0 {
                    signed
                } else {
                    -signed
                }
            })
            .sum::<f64>()
            / feature_pairs.len() as f64;
        rows.push(vec![
            arm.label().to_string(),
            "mean margin".into(),
            format!("{margin:+.3}"),
            String::new(),
        ]);
    }
    print_table(
        "Figure 8 (right): MNIST-2 / Belem feature-space summary",
        &["pipeline", "group", "centroid (f1,f2)", "spread"],
        &rows,
    );
    println!("\nExpected shape (paper Fig. 8 right): baseline features huddle");
    println!("together near the boundary; normalization expands them; injection");
    println!("enlarges the class margin further.");
}
