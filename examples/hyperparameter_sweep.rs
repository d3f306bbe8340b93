//! The paper's §4.2 hyper-parameter selection: train one model per
//! (noise factor T, quantization levels) candidate and pick the combination
//! with the lowest validation loss.
//!
//! ```sh
//! cargo run --release --example hyperparameter_sweep
//! ```

use quantumnat::core::model::QnnConfig;
use quantumnat::core::sweep::{select_hyperparameters, SweepConfig};
use quantumnat::core::train::AdamConfig;
use quantumnat::data::dataset::{build, Task, TaskConfig};
use quantumnat::noise::presets;

fn main() {
    let dataset = build(Task::Mnist2, &TaskConfig::small(2));
    let device = presets::yorktown();
    // A reduced 2×2 grid for the example; the paper sweeps 4×4.
    let sweep = SweepConfig {
        t_factors: vec![0.1, 0.5],
        levels: vec![4, 6],
        adam: AdamConfig {
            lr_max: 1.5e-2,
            warmup_epochs: 4,
            total_epochs: 20,
            ..AdamConfig::default()
        },
        // Candidates are independent — fan them across a small pool. The
        // selected point is identical for any worker count.
        workers: 4,
        ..SweepConfig::default()
    };
    println!(
        "sweeping {} candidates on {} ({} workers) ...\n",
        sweep.t_factors.len() * sweep.levels.len(),
        device.name(),
        sweep.workers
    );
    let outcome =
        select_hyperparameters(QnnConfig::standard(16, 2, 2, 2), &dataset, &device, &sweep)
            .expect("sweep succeeds");
    println!(
        "{:>6} {:>7} {:>12} {:>11}",
        "T", "levels", "valid loss", "valid acc"
    );
    for r in &outcome.records {
        let marker = if r.point == outcome.best {
            "  <-- selected"
        } else {
            ""
        };
        println!(
            "{:>6} {:>7} {:>12.4} {:>11.3}{marker}",
            r.point.t_factor, r.point.levels, r.valid_loss, r.valid_acc
        );
    }
    println!(
        "\nwinner: T = {}, {} quantization levels ({} trained parameters)",
        outcome.best.t_factor,
        outcome.best.levels,
        outcome.best_model.n_params()
    );
}
