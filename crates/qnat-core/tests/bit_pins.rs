//! Bit-level pins of the two workloads the amplitude kernels carry: a
//! noisy training run and the density-matrix hardware emulator. Both
//! hashes were recorded once and must never be edited to make a change
//! pass: a kernel rewrite that reorders any floating-point operation (or
//! lets the compiler fuse a multiply and an add) moves them.
//!
//! The hash is FNV-1a over the little-endian bytes of each `f64`'s bits.

use qnat_compiler::{fold_circuit, FoldStrategy};
use qnat_core::forward::{train_forward, PipelineOptions, QuantizeSpec};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::train::{Adam, AdamConfig};
use qnat_data::dataset::{batch_indices, build, Task, TaskConfig};
use qnat_noise::emulator::HardwareEmulator;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// 32 steps of the full QuantumNAT arm: the §4.2 model (2 blocks × 2
/// U3+CU3 layers) routed for Santiago, model seed 11, 384 MNIST-4 training
/// rows from data seed 7, error-gate insertion at T = 0.5 plus readout
/// injection, normalization, 6-level quantization with λ = 0.05, batch 48,
/// Adam (default config) at learning rate 1e-2, noise RNG seed 3, batch
/// RNG seed 5. Hashed: every step's loss, gradient and probability bits,
/// then the noise RNG's next draw.
#[test]
fn noisy_training_hash_is_pinned() {
    let device = presets::santiago();
    let data = build(
        Task::Mnist4,
        &TaskConfig {
            n_train: 384,
            n_valid: 0,
            n_test: 0,
            seed: 7,
        },
    );
    let opts = PipelineOptions {
        noise: NoiseSource::GateInsertion {
            model: &device,
            factor: 0.5,
        },
        readout: Some(&device),
        normalize: true,
        quantize: Some(QuantizeSpec::levels(6)),
        quant_penalty: 0.05,
        process_last: false,
    };
    let mut qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 11).unwrap();
    let mut adam = Adam::new(AdamConfig::default(), qnn.n_params());
    let mut noise_rng = StdRng::seed_from_u64(3);
    let mut batch_rng = StdRng::seed_from_u64(5);
    let mut hash = Fnv::new();
    let mut steps = 0;
    while steps < 32 {
        for idx in batch_indices(data.train.len(), 48, &mut batch_rng) {
            if steps == 32 {
                break;
            }
            let features: Vec<Vec<f64>> = idx
                .iter()
                .map(|&i| data.train[i].features.clone())
                .collect();
            let labels: Vec<usize> = idx.iter().map(|&i| data.train[i].label).collect();
            let step = train_forward(&qnn, &features, &labels, &opts, &mut noise_rng);
            let mut params = qnn.parameters().to_vec();
            assert!(adam.step(&mut params, &step.grads, 1e-2), "step {steps}");
            qnn.set_parameters(&params);
            hash.values(&[step.loss]);
            hash.values(&step.grads);
            hash.values(step.probs.data());
            steps += 1;
        }
    }
    hash.word(noise_rng.next_u64());
    assert_eq!(format!("{:016x}", hash.0), "0e4553cdd213e9e0");
}

/// Per preset (in [`presets::all_devices`] order), the hashes at fold
/// scales 1, 3 and 5.
const EMULATOR_PINS: [(&str, [&str; 3]); 8] = [
    (
        "ibmq-santiago",
        ["8e85f9ec798d1063", "2468ca4176fb5c58", "7deb2d17ea83ac71"],
    ),
    (
        "ibmq-athens",
        ["2e0947fbc57a04bc", "db766d2061322d55", "6f7827fbd929d805"],
    ),
    (
        "ibmq-bogota",
        ["db56052733e4af3f", "e9073214503eb9fe", "592cbdf46db65f2d"],
    ),
    (
        "ibmq-lima",
        ["e246f76c1e19562a", "c7c7f836ed547c88", "8c020efbeb3a4d0c"],
    ),
    (
        "ibmq-quito",
        ["564429e6f50f2a58", "72938fab4ba7981d", "09f7c64d3d915033"],
    ),
    (
        "ibmq-belem",
        ["ad23ddb7079556b6", "27e91cacb9e4eab1", "73e63a7941974c6c"],
    ),
    (
        "ibmq-yorktown",
        ["5b786b4de194180a", "e3ce006b38a40434", "927e2e1a9e168f5a"],
    ),
    (
        "ibmq-melbourne",
        ["23572b2f04a36402", "4018338c5561b012", "e54ab11edbff5b28"],
    ),
];

/// `HardwareEmulator::expect_all_z` on both blocks of the §4.2 model
/// (model seed 11) routed for every preset, block 0 bound to the first
/// two MNIST-4 test rows (data seed 7) and block 1 to block 0's observed
/// ⟨Z⟩, and on each circuit folded per gate at scales 3 and 5: one hash
/// per preset and scale over the window ⟨Z⟩ bits of every (row, block) in
/// order.
#[test]
fn emulator_expectations_are_pinned() {
    let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 11);
    let data = build(Task::Mnist4, &TaskConfig::small(7));
    let rows = &data.test[..2];
    let mut got = Vec::new();
    for device in presets::all_devices() {
        let plans = qnn.route_plan(&device, 2).unwrap();
        let mut per_scale = [""; 3].map(String::from);
        for (slot, scale) in [1, 3, 5].into_iter().enumerate() {
            let mut hash = Fnv::new();
            for row in rows {
                let mut input = row.features.clone();
                for (b, plan) in plans.iter().enumerate() {
                    let circuit = plan.bind(&qnn, b, &input);
                    let folded = fold_circuit(&circuit, scale, FoldStrategy::PerGate).unwrap();
                    let emulator = HardwareEmulator::new(plan.view.clone());
                    let z = emulator.expect_all_z(&folded).unwrap();
                    hash.values(&z);
                    input = plan.observe(&z);
                }
            }
            per_scale[slot] = format!("{:016x}", hash.0);
        }
        got.push((device.name().to_string(), per_scale));
    }
    let want: Vec<(String, [String; 3])> = EMULATOR_PINS
        .iter()
        .map(|(name, pins)| (name.to_string(), pins.map(String::from)))
        .collect();
    assert_eq!(got, want);
}
