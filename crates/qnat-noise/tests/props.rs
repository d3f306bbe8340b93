//! Property-based tests for noise models: probability sanity, scaling
//! laws, injection structure and emulator physicality.

use proptest::prelude::*;
use qnat_compiler::symbolic::lower_symbolic;
use qnat_noise::device::DeviceModel;
use qnat_noise::emulator::HardwareEmulator;
use qnat_noise::error_spec::PauliErrorSpec;
use qnat_noise::inject::{expected_overhead, insert_error_gates, sample_error_plan, splice};
use qnat_noise::presets;
use qnat_noise::readout::ReadoutError;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arb_spec() -> impl Strategy<Value = PauliErrorSpec> {
    (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3)
        .prop_map(|(x, y, z)| PauliErrorSpec::new(x, y, z).unwrap())
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    prop::collection::vec(
        prop_oneof![
            (0usize..4).prop_map(Gate::sx),
            (0usize..4).prop_map(Gate::x),
            (0usize..4, -3.0f64..3.0).prop_map(|(q, a)| Gate::rz(q, a)),
            (0usize..4, 1usize..4).prop_map(|(a, d)| Gate::cx(a, (a + d) % 4)),
        ],
        1..25,
    )
    .prop_map(|gates| {
        let mut c = Circuit::new(4);
        c.extend(gates);
        c
    })
}

/// A parameterized logical circuit, the kind a QNN block lowers: encoder
/// rotations, U3/CU3 layers and fixed entanglers.
fn arb_logical() -> impl Strategy<Value = Circuit> {
    prop::collection::vec(
        prop_oneof![
            (0usize..4).prop_map(|q| Gate::ry(q, 0.0)),
            (0usize..4).prop_map(|q| Gate::rz(q, 0.0)),
            (0usize..4).prop_map(|q| Gate::u3(q, 0.0, 0.0, 0.0)),
            (0usize..4, 1usize..4).prop_map(|(a, d)| Gate::cu3(a, (a + d) % 4, 0.0, 0.0, 0.0)),
            (0usize..4, 1usize..4).prop_map(|(a, d)| Gate::cx(a, (a + d) % 4)),
            (0usize..4).prop_map(Gate::sx),
        ],
        1..16,
    )
    .prop_map(|gates| {
        let mut c = Circuit::new(4);
        c.extend(gates);
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_on_template_splices_to_injection_on_binding(
        logical in arb_logical(),
        raw_params in prop::collection::vec(-3.0f64..3.0, 64),
        seed in 0u64..1_000,
        factor in 0.0f64..3.0,
        device in 0usize..3,
    ) {
        let model = [presets::yorktown(), presets::santiago(), presets::melbourne()][device].clone();
        let lowered = lower_symbolic(&logical);
        let params = &raw_params[..lowered.n_logical];
        let bound = lowered.bind(params);

        let mut inject_rng = StdRng::seed_from_u64(seed);
        let (injected, stats) = insert_error_gates(&bound, &model, factor, &mut inject_rng);
        let mut plan_rng = StdRng::seed_from_u64(seed);
        let plan = sample_error_plan(&lowered.circuit, &model, factor, &mut plan_rng);

        prop_assert_eq!(&splice(&bound, &plan), &injected);
        prop_assert_eq!(plan.len(), stats.inserted_gates);
        prop_assert_eq!(inject_rng.next_u64(), plan_rng.next_u64());
    }

    #[test]
    fn zero_noise_factor_draws_an_empty_plan(logical in arb_logical(), seed in 0u64..1_000) {
        let lowered = lower_symbolic(&logical);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = sample_error_plan(&lowered.circuit, &presets::yorktown(), 0.0, &mut rng);
        prop_assert!(plan.is_empty());
        prop_assert_eq!(splice(&lowered.circuit, &plan), lowered.circuit);
    }

    #[test]
    fn spec_scaling_is_linear_below_cap(spec in arb_spec(), t in 0.0f64..2.0) {
        let scaled = spec.scaled(t);
        let expect = (spec.total() * t).min(1.0);
        prop_assert!(
            (scaled.total() - expect).abs() < 1e-9,
            "total {} expected {}", scaled.total(), expect
        );
        prop_assert!(scaled.validate().is_ok());
    }

    #[test]
    fn readout_rows_are_stochastic(p01 in 0.0f64..0.5, p10 in 0.0f64..0.5, t in 0.0f64..2.0) {
        let r = ReadoutError::asymmetric(p01, p10).unwrap().scaled(t);
        for row in r.matrix() {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn readout_expectation_map_is_contraction(
        p01 in 0.0f64..0.4,
        p10 in 0.0f64..0.4,
        z in -1.0f64..1.0,
    ) {
        let r = ReadoutError::asymmetric(p01, p10).unwrap();
        let out = r.apply_to_expectation(z);
        prop_assert!((-1.0..=1.0).contains(&out));
    }

    #[test]
    fn injection_keeps_original_gates_in_order(circuit in arb_circuit(), seed in 0u64..100) {
        let model = presets::yorktown();
        let mut rng = StdRng::seed_from_u64(seed);
        let (noisy, stats) = insert_error_gates(&circuit, &model, 1.5, &mut rng);
        prop_assert_eq!(noisy.len(), circuit.len() + stats.inserted_gates);
        // Removing inserted Pauli gates recovers the original sequence.
        let mut orig = circuit.gates().iter();
        let mut matched = 0usize;
        for g in noisy.gates() {
            if let Some(o) = orig.clone().next() {
                if g == o {
                    orig.next();
                    matched += 1;
                    continue;
                }
            }
            // Inserted gates are always bare Paulis.
            prop_assert!(matches!(g.kind, GateKind::X | GateKind::Y | GateKind::Z));
        }
        prop_assert_eq!(matched, circuit.len());
    }

    #[test]
    fn expected_overhead_scales_with_t(circuit in arb_circuit(), t in 0.1f64..1.5) {
        let model = presets::belem();
        let base = expected_overhead(&circuit, &model, 1.0);
        let scaled = expected_overhead(&circuit, &model, t);
        prop_assert!((scaled - base * t).abs() < 1e-9);
    }

    #[test]
    fn emulator_output_is_physical(circuit in arb_circuit()) {
        let emu = HardwareEmulator::new(presets::yorktown());
        let probs = emu.measure_probabilities(&circuit).unwrap();
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(probs.iter().all(|&p| p >= -1e-9));
        for z in emu.expect_all_z(&circuit).unwrap() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
        }
    }

    #[test]
    fn device_json_round_trip(scale in 0.1f64..2.0) {
        for d in presets::all_devices() {
            let scaled = d.scaled(scale);
            let back = DeviceModel::from_json(&scaled.to_json()).unwrap();
            prop_assert_eq!(scaled, back);
        }
    }

    #[test]
    fn subdevice_is_consistent(keep in prop::collection::vec(0usize..5, 2..4)) {
        let mut keep = keep;
        keep.sort_unstable();
        keep.dedup();
        prop_assume!(keep.len() >= 2);
        let d = presets::santiago();
        let sub = d.subdevice(&keep).unwrap();
        prop_assert_eq!(sub.n_qubits(), keep.len());
        for (i, &p) in keep.iter().enumerate() {
            prop_assert_eq!(sub.single_qubit_error(i), d.single_qubit_error(p));
            prop_assert_eq!(sub.readout_error(i), d.readout_error(p));
        }
    }
}
