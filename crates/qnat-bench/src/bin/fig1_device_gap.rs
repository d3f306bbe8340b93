//! **Figure 1 (right)** — the motivation plot: the same QNN deployed on
//! devices with different error rates suffers different accuracy drops.
//!
//! Trains one noise-unaware MNIST-2 model (2B×2L) and evaluates it
//! noise-free and on five emulated devices, printing the series
//! (device, single-qubit error rate, accuracy) the figure plots.

use qnat_bench::harness::*;
use qnat_data::dataset::Task;
use qnat_noise::presets;

fn main() {
    let cfg = RunConfig::default();
    let arch = ArchSpec::u3cu3(2, 2);
    // One noise-unaware model; it must fit every device, so build it for
    // the largest ring-compatible topology (line) and re-deploy per device.
    let (qnn, ds, _) = train_arm(
        Task::Mnist2,
        arch,
        &presets::santiago(),
        Arm::Baseline,
        &cfg,
    );
    let clean = eval_noise_free(&qnn, &ds, Arm::Baseline, &cfg);
    let mut rows = vec![vec!["noise-free".into(), "0".into(), format!("{clean:.3}")]];
    for device in [
        presets::santiago(),
        presets::athens(),
        presets::belem(),
        presets::quito(),
        presets::yorktown(),
    ] {
        let acc = eval_on_hardware(&qnn, &ds, &device, Arm::Baseline, &cfg, 2);
        rows.push(vec![
            device.name().to_string(),
            format!("{:.2e}", device.mean_single_qubit_error()),
            format!("{acc:.3}"),
        ]);
    }
    print_table(
        "Figure 1: device error rate vs MNIST-2 accuracy (noise-unaware model)",
        &["device", "1q error rate", "accuracy"],
        &rows,
    );
    println!("\nExpected shape (paper): accuracy decreases as error rate grows;");
    println!("gap between noise-free and the noisiest device is tens of points.");
}
