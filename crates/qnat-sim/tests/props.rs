//! Property-based tests for the simulator: unitarity, channel physicality
//! and gradient-engine agreement on random circuits.

use proptest::prelude::*;
use qnat_sim::adjoint::adjoint_gradients;
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::{invert_gate, is_inverse_pair, Circuit};
use qnat_sim::density::DensityMatrix;
use qnat_sim::gate::{Gate, GateKind};
use qnat_sim::paramshift::paramshift_gradients;
use qnat_sim::statevector::{simulate, StateVector};

const N_QUBITS: usize = 3;

/// Strategy: one random gate on a 3-qubit register.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let q = 0..N_QUBITS;
    let angle = -3.0f64..3.0;
    prop_oneof![
        q.clone().prop_map(Gate::x),
        q.clone().prop_map(Gate::h),
        q.clone().prop_map(Gate::s),
        q.clone().prop_map(Gate::sx),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::rx(q, a)),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::ry(q, a)),
        (q.clone(), angle.clone()).prop_map(|(q, a)| Gate::rz(q, a)),
        (q.clone(), angle.clone(), angle.clone(), angle.clone())
            .prop_map(|(q, a, b, c)| Gate::u3(q, a, b, c)),
        (0..N_QUBITS, 1..N_QUBITS).prop_map(|(a, d)| Gate::cx(a, (a + d) % N_QUBITS)),
        (0..N_QUBITS, 1..N_QUBITS, angle.clone()).prop_map(|(a, d, t)| Gate::crz(
            a,
            (a + d) % N_QUBITS,
            t
        )),
        (
            0..N_QUBITS,
            1..N_QUBITS,
            angle.clone(),
            angle.clone(),
            angle.clone()
        )
            .prop_map(|(a, d, t, p, l)| Gate::cu3(a, (a + d) % N_QUBITS, t, p, l)),
        (0..N_QUBITS, 1..N_QUBITS, angle).prop_map(|(a, d, t)| Gate::rzz(a, (a + d) % N_QUBITS, t)),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_preserve_norm(circuit in arb_circuit(20)) {
        let psi = simulate(&circuit);
        prop_assert!((psi.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectations_stay_in_range(circuit in arb_circuit(20)) {
        let psi = simulate(&circuit);
        for z in psi.expect_all_z() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&z));
        }
    }

    #[test]
    fn circuit_inverse_undoes_circuit(circuit in arb_circuit(15)) {
        let mut psi = StateVector::zero_state(N_QUBITS);
        psi.run(&circuit);
        psi.run(&circuit.inverse());
        prop_assert!((psi.probability(0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn every_gate_inverse_is_its_dagger(gate in arb_gate()) {
        let inv = invert_gate(&gate);
        prop_assert!(is_inverse_pair(&gate, &inv));
    }

    #[test]
    fn adjoint_matches_paramshift(circuit in arb_circuit(12)) {
        let obs: Vec<usize> = (0..N_QUBITS).collect();
        let a = adjoint_gradients(&circuit, &obs);
        let p = paramshift_gradients(&circuit, &obs);
        for o in 0..obs.len() {
            prop_assert!((a.expectations[o] - p.expectations[o]).abs() < 1e-9);
            for k in 0..circuit.n_params() {
                prop_assert!(
                    (a.gradients[o][k] - p.gradients[o][k]).abs() < 1e-7,
                    "obs {} param {}: adjoint {} vs shift {}",
                    o, k, a.gradients[o][k], p.gradients[o][k]
                );
            }
        }
    }

    #[test]
    fn density_matrix_stays_physical(
        circuit in arb_circuit(10),
        px in 0.0f64..0.2,
        py in 0.0f64..0.2,
        pz in 0.0f64..0.2,
        gamma in 0.0f64..0.3,
    ) {
        let mut rho = DensityMatrix::zero_state(N_QUBITS);
        rho.run(&circuit);
        rho.apply_channel1(0, &Channel1::pauli(px, py, pz).unwrap());
        rho.apply_channel1(1, &Channel1::amplitude_damping(gamma).unwrap());
        rho.apply_channel1(2, &Channel1::phase_damping(gamma).unwrap());
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.hermiticity_error() < 1e-9);
        prop_assert!(rho.purity() <= 1.0 + 1e-9);
        for p in rho.probabilities() {
            prop_assert!(p >= -1e-9);
        }
    }

    #[test]
    fn pure_state_density_agrees_with_statevector(circuit in arb_circuit(12)) {
        let psi = simulate(&circuit);
        let mut rho = DensityMatrix::zero_state(N_QUBITS);
        rho.run(&circuit);
        for q in 0..N_QUBITS {
            prop_assert!((rho.expect_z(q) - psi.expect_z(q)).abs() < 1e-8);
        }
    }

    #[test]
    fn parameter_round_trip(circuit in arb_circuit(15), scale in 0.1f64..2.0) {
        let mut c = circuit.clone();
        let p: Vec<f64> = c.parameters().iter().map(|v| v * scale).collect();
        c.set_parameters(&p);
        prop_assert_eq!(c.parameters(), p);
        prop_assert_eq!(c.n_params(), circuit.n_params());
    }
}

#[test]
fn gate_kind_coverage_in_strategy() {
    // The strategy covers single-qubit, controlled and Ising gates.
    let kinds = [GateKind::X, GateKind::Cu3, GateKind::Rzz, GateKind::Crz];
    for k in kinds {
        assert!(k.arity() >= 1);
    }
}
