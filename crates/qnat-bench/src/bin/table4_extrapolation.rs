//! **Table 4** — compatibility with zero-noise extrapolation.
//!
//! A 2-block model with 3-layer blocks is trained with normalization; at
//! deployment the first block's trainable layers are repeated 1×..4×
//! (multiplying the noise), the per-qubit outcome std is measured at each
//! depth and linearly extrapolated to depth 0. "Extrapolation +
//! Normalization" centers outcomes with the batch mean but scales them with
//! the *extrapolated noise-free std* instead of the contracted batch std —
//! restoring the per-qubit feature scale the next block saw in training
//! (plain batch normalization would erase that information by forcing unit
//! variance).

use qnat_bench::harness::*;
use qnat_core::head::apply_head;
use qnat_core::metrics::accuracy;
use qnat_core::mitigate::{batch_std, extrapolate_std};
use qnat_core::model::Qnn;
use qnat_core::normalize::{normalize_batch, NormStats};
use qnat_data::dataset::{Dataset, Task};
use qnat_noise::emulator::HardwareEmulator;
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;

/// Binds block `bi` with its ansatz layers repeated `reps` times
/// (same parameters each repetition).
fn repeated_block_circuit(qnn: &Qnn, bi: usize, inputs: &[f64], reps: usize) -> Circuit {
    let block = &qnn.blocks()[bi];
    let n_enc_gates = block.encoder.n_features();
    let gates = block.logical.gates();
    let mut c = Circuit::new(block.logical.n_qubits());
    for g in &gates[..n_enc_gates] {
        c.push(*g);
    }
    for _ in 0..reps {
        for g in &gates[n_enc_gates..] {
            c.push(*g);
        }
    }
    let mut params = block.encoder.angles(inputs);
    for _ in 0..reps {
        params.extend_from_slice(qnn.block_params(bi));
    }
    c.set_parameters(&params);
    c
}

/// Block-1 outcomes of the whole test set at a given repetition count.
fn block1_outputs(
    qnn: &Qnn,
    emulator: &HardwareEmulator,
    ds: &Dataset,
    reps: usize,
) -> Vec<Vec<f64>> {
    ds.test
        .iter()
        .map(|s| {
            let c = repeated_block_circuit(qnn, 0, &s.features, reps);
            emulator.expect_all_z(&c).expect("emulation succeeds")
        })
        .collect()
}

fn main() {
    let cfg = RunConfig::default();
    let device = presets::yorktown();
    let emulator = HardwareEmulator::new(device.clone());
    let mut rows = Vec::new();
    for task in [Task::Mnist4, Task::Fashion4] {
        let arch = ArchSpec::u3cu3(2, 3);
        let (qnn, ds, _) = train_arm(task, arch, &device, Arm::Norm, &cfg);
        let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();

        // Shared second-block evaluation given processed block-1 outputs.
        let finish = |block1: &[Vec<f64>]| -> f64 {
            let logits: Vec<Vec<f64>> = block1
                .iter()
                .map(|row| {
                    let c = {
                        let block = &qnn.blocks()[1];
                        let mut c = block.logical.clone();
                        let mut p = block.encoder.angles(row);
                        p.extend_from_slice(qnn.block_params(1));
                        c.set_parameters(&p);
                        c
                    };
                    emulator.expect_all_z(&c).expect("emulation succeeds")
                })
                .collect();
            accuracy(&apply_head(&logits, qnn.config().n_classes), &labels)
        };

        // Arm A: normalization only.
        let mut norm_only = block1_outputs(&qnn, &emulator, &ds, 1);
        normalize_batch(&mut norm_only);
        let acc_norm = finish(&norm_only);

        // Arm B: extrapolation + normalization — center with the batch
        // mean, scale with the extrapolated noise-free std.
        let scales = [1.0, 2.0, 3.0, 4.0];
        let stds: Vec<Vec<f64>> = scales
            .iter()
            .map(|&k| batch_std(&block1_outputs(&qnn, &emulator, &ds, k as usize)))
            .collect();
        let target = match extrapolate_std(&scales, &stds) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("table4: std extrapolation failed for {}: {e}", task.name());
                std::process::exit(1);
            }
        };
        let mut extrap = block1_outputs(&qnn, &emulator, &ds, 1);
        let stats = NormStats::from_batch(&extrap);
        // Match the *noise-free* per-qubit scale: divide the centered
        // outcomes by σ_batch and multiply by σ_extrap/σ_batch-at-depth-1,
        // i.e. scale each qubit so its std equals σ_extrap/σ_ideal-unit.
        for row in &mut extrap {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - stats.mean[j]) / stats.std[j] * (target[j] / stats.std[j]).min(3.0);
            }
        }
        let acc_extrap = finish(&extrap);

        rows.push(vec![
            task.name().to_string(),
            format!("{acc_norm:.2}"),
            format!("{acc_extrap:.2}"),
        ]);
    }
    print_table(
        "Table 4: normalization vs normalization + zero-noise extrapolation",
        &["task", "Normalization only", "Norm. + Extrapolation"],
        &rows,
    );
    println!("\nExpected shape (paper Table 4): extrapolation adds a small further");
    println!("gain (~2 points), demonstrating orthogonality to QuantumNAT.");
}
