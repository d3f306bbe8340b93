//! Oracle for the run-fused adjoint: `adjoint_gradients` must match the
//! plain gate-by-gate adjoint sweep (kept here as the reference) to 1e-12
//! on every expectation and every gradient entry — on random circuits
//! over every gate kind, on random observable lists, and on the routed,
//! basis-compiled QNN block after error-gate insertion, the circuit that
//! noise-injected training differentiates.

use proptest::prelude::*;
use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::inject::insert_error_gates;
use qnat_noise::presets;
use qnat_sim::adjoint::{adjoint_gradients, GradientResult};
use qnat_sim::circuit::{try_invert_gate, Circuit};
use qnat_sim::gate::{Gate, GateKind, GateMatrix};
use qnat_sim::kernels::{apply_mat2, apply_mat4};
use qnat_sim::math::C64;
use qnat_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-12;
const MAX_QUBITS: usize = 6;

/// Gates whose product undoes `g`. `SqrtH` and `SqrtSwap` have no named
/// inverse; they use `g⁻¹ = g·g²` with `g²` = `H` resp. `SWAP` (`g⁴ = I`).
fn inverse_gates(g: &Gate) -> Vec<Gate> {
    match try_invert_gate(g) {
        Some(inv) => vec![inv],
        None => {
            let base = match g.kind {
                GateKind::SqrtH => GateKind::H,
                _ => GateKind::Swap,
            };
            vec![*g, Gate { kind: base, ..*g }]
        }
    }
}

/// The reference adjoint: simulate forward, then undo one gate at a time
/// on ψ and on one co-state `λ_o = Z_o|ψ⟩` per observable, taking
/// `2·Re⟨λ_o|∂U/∂θ|ψ⟩` for each parameter from a fresh `∂U·ψ` vector.
fn gate_by_gate(circuit: &Circuit, obs_qubits: &[usize]) -> GradientResult {
    let n = circuit.n_qubits();
    let mut psi = StateVector::zero_state(n);
    psi.run(circuit);
    let expectations: Vec<f64> = obs_qubits.iter().map(|&q| psi.expect_z(q)).collect();

    let n_params = circuit.n_params();
    let mut gradients = vec![vec![0.0f64; n_params]; obs_qubits.len()];
    let mut lambdas: Vec<StateVector> = obs_qubits
        .iter()
        .map(|&q| {
            let amps = psi
                .amplitudes()
                .iter()
                .enumerate()
                .map(|(i, &a)| if i >> q & 1 == 1 { -a } else { a })
                .collect();
            StateVector::from_amplitudes(amps)
        })
        .collect();

    let mut flat_end = n_params;
    for g in circuit.gates().iter().rev() {
        let np = g.kind.param_count();
        let flat_start = flat_end - np;
        let inv = inverse_gates(g);
        inv.iter().for_each(|u| psi.apply(u));
        for slot in 0..np {
            let mut mu: Vec<C64> = psi.amplitudes().to_vec();
            match g.d_matrix(slot) {
                GateMatrix::One(dm) => apply_mat2(&mut mu, g.qubits[0], &dm),
                GateMatrix::Two(dm) => apply_mat4(&mut mu, g.qubits[0], g.qubits[1], &dm),
            }
            for (o, lambda) in lambdas.iter().enumerate() {
                let ip: C64 = lambda
                    .amplitudes()
                    .iter()
                    .zip(&mu)
                    .map(|(l, m)| l.conj() * *m)
                    .sum();
                gradients[o][flat_start + slot] = 2.0 * ip.re;
            }
        }
        for lambda in &mut lambdas {
            inv.iter().for_each(|u| lambda.apply(u));
        }
        flat_end = flat_start;
    }
    GradientResult {
        expectations,
        gradients,
    }
}

fn assert_matches_oracle(circuit: &Circuit, obs: &[usize]) {
    let fused = adjoint_gradients(circuit, obs);
    let oracle = gate_by_gate(circuit, obs);
    assert_eq!(fused.expectations.len(), obs.len());
    assert_eq!(fused.gradients.len(), obs.len());
    for (o, (&f, &r)) in fused
        .expectations
        .iter()
        .zip(&oracle.expectations)
        .enumerate()
    {
        assert!(
            (f - r).abs() < TOL,
            "⟨Z⟩ of obs {o}: fused {f} vs oracle {r}\n{circuit}"
        );
    }
    for (o, (fg, rg)) in fused.gradients.iter().zip(&oracle.gradients).enumerate() {
        assert_eq!(fg.len(), circuit.n_params());
        for (k, (&f, &r)) in fg.iter().zip(rg).enumerate() {
            assert!(
                (f - r).abs() < TOL,
                "obs {o} param {k}: fused {f} vs oracle {r}\n{circuit}"
            );
        }
    }
}

/// A gate of `kind` on an `n`-qubit register, qubits and angles drawn from
/// raw values; `None` for a two-qubit kind on one qubit.
fn place(kind: GateKind, n: usize, a: usize, d: usize, angles: [f64; 3]) -> Option<Gate> {
    let q0 = a % n;
    let qubits = match kind.arity() {
        1 => [q0, 0],
        _ if n < 2 => return None,
        _ => [q0, (q0 + 1 + d % (n - 1)) % n],
    };
    Some(Gate {
        kind,
        qubits,
        params: angles,
    })
}

/// Raw gate draws: kind index into [`GateKind::ALL`], two qubit seeds and
/// three angles.
type RawGate = (usize, usize, usize, f64, f64, f64);

fn raw_gate() -> impl Strategy<Value = RawGate> {
    let angle = -3.2f64..3.2;
    (
        0..GateKind::ALL.len(),
        0..MAX_QUBITS,
        0..MAX_QUBITS,
        angle.clone(),
        angle.clone(),
        angle,
    )
}

/// A random circuit on 1–6 qubits over the kinds `keep` admits, and a
/// random observable list (any order, duplicates, possibly empty).
fn arb_case(keep: fn(GateKind) -> bool) -> impl Strategy<Value = (Circuit, Vec<usize>)> {
    (
        1..=MAX_QUBITS,
        prop::collection::vec(raw_gate(), 0..40),
        prop::collection::vec(0..MAX_QUBITS, 0..8),
    )
        .prop_map(move |(n, raw, obs)| {
            let mut c = Circuit::new(n);
            for (k, a, d, t, p, l) in raw {
                let kind = GateKind::ALL[k];
                if keep(kind) {
                    c.extend(place(kind, n, a, d, [t, p, l]));
                }
            }
            (c, obs.into_iter().map(|q| q % n).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_matches_gate_by_gate_on_every_kind(case in arb_case(|_| true)) {
        let (circuit, obs) = case;
        assert_matches_oracle(&circuit, &obs);
    }

    #[test]
    fn fused_matches_gate_by_gate_on_parameterized_kinds(
        case in arb_case(|k| k.param_count() > 0)
    ) {
        let (circuit, obs) = case;
        assert_matches_oracle(&circuit, &obs);
    }

    #[test]
    fn fused_matches_gate_by_gate_without_parameters(
        case in arb_case(|k| k.param_count() == 0)
    ) {
        let (circuit, obs) = case;
        prop_assert_eq!(circuit.n_params(), 0);
        assert_matches_oracle(&circuit, &obs);
        prop_assert!(adjoint_gradients(&circuit, &obs).gradients.iter().all(Vec::is_empty));
    }
}

/// The training shape: both blocks of the standard MNIST-4 model routed
/// for Santiago, bound to random inputs and differentiated after fresh
/// error-gate insertion, at the benchmark's noise factor and at 3× it.
#[test]
fn fused_matches_gate_by_gate_on_noise_injected_training_blocks() {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 11)
        .expect("santiago fits the standard model");
    let mut rng = StdRng::seed_from_u64(2110);
    let mut injected = 0;
    for (bi, block) in qnn.blocks().iter().enumerate() {
        for sample in 0..24 {
            let inputs: Vec<f64> = (0..block.encoder.n_features())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut params = block.encoder.angles(&inputs);
            params.extend_from_slice(qnn.block_params(bi));
            let bound = block.lowered.bind(&params);
            let factor = if sample % 2 == 0 { 0.5 } else { 1.5 };
            let (run, stats) = insert_error_gates(&bound, &device, factor, &mut rng);
            injected += stats.inserted_gates;
            assert_matches_oracle(&run, &block.obs);
        }
    }
    assert!(injected > 0, "the noise model must inject some error gates");
}
