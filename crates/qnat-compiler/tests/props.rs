//! Property-based tests for the transpiler: every pass preserves the
//! circuit unitary (up to global phase), at every optimization level, and
//! the symbolic lowering agrees for random parameter bindings.

use proptest::prelude::*;
use qnat_compiler::decompose::{decompose_to_basis, is_basis_gate};
use qnat_compiler::optimize::optimize;
use qnat_compiler::symbolic::lower_symbolic;
use qnat_compiler::transpile::{transpile, TranspileOptions};
use qnat_compiler::unitary::equiv_up_to_phase;
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_sim::statevector::simulate;

const N_QUBITS: usize = 4;

fn arb_gate() -> impl Strategy<Value = Gate> {
    let q = 0..N_QUBITS;
    let angle = -3.0f64..3.0;
    prop_oneof![
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::t),
        q.clone().prop_map(Gate::sx),
        q.clone().prop_map(Gate::sqrt_h),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::ry(q, a)),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::rz(q, a)),
        (q.clone(), angle.clone(), angle.clone(), angle.clone())
            .prop_map(|(q, a, b, c)| Gate::u3(q, a, b, c)),
        (0..N_QUBITS, 1..N_QUBITS).prop_map(|(a, d)| Gate::cx(a, (a + d) % N_QUBITS)),
        (0..N_QUBITS, 1..N_QUBITS).prop_map(|(a, d)| Gate::cz(a, (a + d) % N_QUBITS)),
        (0..N_QUBITS, 1..N_QUBITS).prop_map(|(a, d)| Gate::swap(a, (a + d) % N_QUBITS)),
        (0..N_QUBITS, 1..N_QUBITS, angle.clone()).prop_map(|(a, d, t)| Gate::cry(
            a,
            (a + d) % N_QUBITS,
            t
        )),
        (
            0..N_QUBITS,
            1..N_QUBITS,
            angle.clone(),
            angle.clone(),
            angle
        )
            .prop_map(|(a, d, t, p, l)| Gate::cu3(a, (a + d) % N_QUBITS, t, p, l)),
    ]
}

fn arb_circuit(max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(), 1..max_gates).prop_map(|gates| {
        let mut c = Circuit::new(N_QUBITS);
        c.extend(gates);
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decomposition_preserves_unitary(circuit in arb_circuit(12)) {
        let lowered = decompose_to_basis(&circuit);
        prop_assert!(lowered.gates().iter().all(|g| is_basis_gate(g.kind)));
        prop_assert!(equiv_up_to_phase(&circuit, &lowered, 1e-7));
    }

    #[test]
    fn optimization_preserves_unitary(circuit in arb_circuit(12)) {
        let mut lowered = decompose_to_basis(&circuit);
        let reference = lowered.clone();
        optimize(&mut lowered);
        prop_assert!(lowered.len() <= reference.len());
        prop_assert!(equiv_up_to_phase(&reference, &lowered, 1e-7));
    }

    #[test]
    fn transpiled_expectations_match_logical(circuit in arb_circuit(10), level in 0u8..4) {
        let model = presets::santiago();
        let t = transpile(&circuit, &model, TranspileOptions::level(level)).unwrap();
        // Every 2q gate must respect the coupling map.
        for g in t.circuit.gates().iter().filter(|g| g.arity() == 2) {
            prop_assert!(t.device_view.are_coupled(g.qubits[0], g.qubits[1]));
        }
        let ideal = simulate(&circuit);
        let mut psi = qnat_sim::StateVector::zero_state(t.circuit.n_qubits());
        psi.run(&t.circuit);
        let window_z = psi.expect_all_z();
        for q in 0..N_QUBITS {
            let got = window_z[t.layout[q]];
            prop_assert!(
                (got - ideal.expect_z(q)).abs() < 1e-6,
                "level {} qubit {}: {} vs {}", level, q, got, ideal.expect_z(q)
            );
        }
    }

    #[test]
    fn symbolic_lowering_matches_for_random_bindings(
        circuit in arb_circuit(8),
        scale in -1.5f64..1.5,
    ) {
        let sym = lower_symbolic(&circuit);
        let params: Vec<f64> = circuit.parameters().iter().map(|p| p * scale).collect();
        let mut rebound = circuit.clone();
        rebound.set_parameters(&params);
        let bound = sym.bind(&params);
        prop_assert!(equiv_up_to_phase(&rebound, &bound, 1e-7));
    }

    #[test]
    fn symbolic_template_size_is_binding_independent(circuit in arb_circuit(8)) {
        let sym = lower_symbolic(&circuit);
        let zeros = vec![0.0; circuit.n_params()];
        let ones = vec![1.0; circuit.n_params()];
        prop_assert_eq!(sym.bind(&zeros).len(), sym.bind(&ones).len());
    }
}
