//! The compiled error-gate sampler against the per-gate loop it replaced.
//!
//! [`ErrorSampler`] compiles a circuit's error events once and then
//! draws plans from cumulative thresholds. The reference below is the
//! loop it compiles: per gate, [`DeviceModel::gate_errors`], then
//! [`PauliErrorSpec::scaled`], then [`PauliErrorSpec::sample`]. Over
//! random circuits of every gate kind, every preset and noise factors
//! that include zero and one large enough to renormalize, the two must
//! draw equal plans, entry for entry, and leave the RNG in the same
//! state. The training-step oracle cannot catch a wrong sampler: its
//! reference prepares samples through the same sampler.

use proptest::prelude::*;
use qnat_noise::device::DeviceModel;
use qnat_noise::error_spec::PauliError;
use qnat_noise::inject::{sample_error_plan, ErrorSampler};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const MAX_QUBITS: usize = 5;
/// Covers no noise, the paper's range and the renormalizing branch of
/// `scaled` (every preset's total saturates at 1e6).
const FACTORS: [f64; 4] = [0.0, 0.5, 1.5, 1e6];

/// The per-gate loop: one draw per error event, in circuit order.
fn reference(
    circuit: &Circuit,
    model: &DeviceModel,
    factor: f64,
    rng: &mut StdRng,
) -> Vec<(usize, Gate)> {
    let mut entries = Vec::new();
    for (i, g) in circuit.gates().iter().enumerate() {
        for (q, spec) in model.gate_errors(g) {
            let error = match spec.scaled(factor).sample(rng) {
                PauliError::None => continue,
                PauliError::X => Gate::x(q),
                PauliError::Y => Gate::y(q),
                PauliError::Z => Gate::z(q),
            };
            entries.push((i, error));
        }
    }
    entries
}

/// Every preset, the noise-free one included.
fn models() -> Vec<DeviceModel> {
    let mut models = presets::all_devices();
    models.push(presets::noise_free(MAX_QUBITS));
    models
}

/// A gate of `kind` on an `n`-qubit register; `None` for a two-qubit
/// kind on one qubit.
fn place(kind: GateKind, n: usize, a: usize, d: usize, angle: f64) -> Option<Gate> {
    let q0 = a % n;
    let qubits = match kind.arity() {
        1 => [q0, 0],
        _ if n < 2 => return None,
        _ => [q0, (q0 + 1 + d % (n - 1)) % n],
    };
    Some(Gate {
        kind,
        qubits,
        params: [angle, -angle, 0.5 * angle],
    })
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        1..=MAX_QUBITS,
        prop::collection::vec(
            (
                0..GateKind::ALL.len(),
                0..MAX_QUBITS,
                0..MAX_QUBITS,
                -3.2f64..3.2,
            ),
            0..40,
        ),
    )
        .prop_map(|(n, raw)| {
            let mut c = Circuit::new(n);
            for (k, a, d, angle) in raw {
                c.extend(place(GateKind::ALL[k], n, a, d, angle));
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampler_draws_the_per_gate_loops_plans(circuit in arb_circuit(), seed in 0u64..1_000_000) {
        for model in models() {
            for factor in FACTORS {
                let sampler = ErrorSampler::new(&circuit, &model, factor);
                let mut loop_rng = StdRng::seed_from_u64(seed);
                let mut sampler_rng = StdRng::seed_from_u64(seed);
                for draw in 0..3 {
                    let expect = reference(&circuit, &model, factor, &mut loop_rng);
                    let plan = sampler.sample(&mut sampler_rng);
                    prop_assert_eq!(
                        plan.entries(),
                        &expect[..],
                        "{} at T = {}, draw {}", model.name(), factor, draw
                    );
                }
                prop_assert_eq!(
                    sampler_rng.next_u64(),
                    loop_rng.next_u64(),
                    "{} at T = {}: RNG state", model.name(), factor
                );
                let mut one_shot_rng = StdRng::seed_from_u64(seed);
                let one_shot = sample_error_plan(&circuit, &model, factor, &mut one_shot_rng);
                let mut loop_rng = StdRng::seed_from_u64(seed);
                prop_assert_eq!(one_shot.entries(), &reference(&circuit, &model, factor, &mut loop_rng)[..]);
                prop_assert_eq!(one_shot_rng.next_u64(), loop_rng.next_u64());
            }
        }
    }
}

#[test]
fn zero_probability_events_still_consume_a_draw() {
    let mut c = Circuit::new(3);
    c.push(Gate::sx(0));
    c.push(Gate::rz(1, 0.4)); // virtual: no error event, no draw
    c.push(Gate::cx(1, 2));
    c.push(Gate::x(2));
    for (model, factor) in [(presets::noise_free(3), 1.0), (presets::santiago(), 0.0)] {
        let sampler = ErrorSampler::new(&c, &model, factor);
        assert_eq!(sampler.len(), 4, "{}: sx, cx (two qubits), x", model.name());
        let mut rng = StdRng::seed_from_u64(17);
        assert!(sampler.sample(&mut rng).is_empty());
        let mut skipped = StdRng::seed_from_u64(17);
        for _ in 0..sampler.len() {
            let _: f64 = skipped.gen();
        }
        assert_eq!(rng.next_u64(), skipped.next_u64(), "{}", model.name());
    }
}
