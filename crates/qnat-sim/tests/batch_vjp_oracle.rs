//! Oracle for the batch engine: `batch_forward` + `batch_vjp` must match
//! a plain gate-by-gate adjoint sweep, run sample by sample on the
//! sample's own circuit (the template bound to its parameters, its error
//! events spliced in), to 1e-12 on every ⟨Z⟩ and on every vector-Jacobian
//! product `Σ_c w_c·∂⟨Z_c⟩/∂θ_k` — on random circuits over every gate
//! kind on 1–6 qubits, in batches of 1, 3 and 48 whose samples carry
//! their own prefix angles, their own Pauli events and their own seeds
//! (zero weights and repeated qubits included).
//!
//! A second property pins the invariant the training step's worker-count
//! independence rests on: a sample's states and gradients are bitwise the
//! same alone, in the whole batch, and in any chunking of it.
//!
//! Each of these deliberate engine mutations fails this oracle: a seed
//! weight read from the wrong qubit, an error event applied to the
//! neighbouring sample, and a sample's own pending product left in place
//! (not cleared) when a CX consumes it.

use proptest::prelude::*;
use qnat_sim::adjoint::{batch_forward, batch_vjp, expect_z, BatchSample};
use qnat_sim::circuit::{try_invert_gate, Circuit};
use qnat_sim::gate::{Gate, GateKind, GateMatrix};
use qnat_sim::kernels::{apply_mat2, apply_mat4};
use qnat_sim::math::C64;
use qnat_sim::statevector::StateVector;

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

/// The reference: ⟨Z_c⟩ for every qubit and the VJP `Σ_c w_c·∂⟨Z_c⟩/∂θ`
/// for each seed `w`, from a forward simulation and a backward sweep that
/// undoes one gate at a time on ψ and on one co-state `Z_c|ψ⟩` per qubit,
/// taking each `∂⟨Z_c⟩/∂θ` from a fresh `∂U·ψ` vector.
fn gate_by_gate(circuit: &Circuit, seeds: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = circuit.n_qubits();
    let mut psi = StateVector::zero_state(n);
    psi.run(circuit);
    let z: Vec<f64> = (0..n).map(|q| psi.expect_z(q)).collect();
    let n_params = circuit.n_params();
    let mut jac = vec![vec![0.0f64; n_params]; n];
    let mut lambdas: Vec<StateVector> = (0..n)
        .map(|q| {
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
            for (c, lambda) in lambdas.iter().enumerate() {
                let ip: C64 = lambda
                    .amplitudes()
                    .iter()
                    .zip(&mu)
                    .map(|(l, m)| l.conj() * *m)
                    .sum();
                jac[c][flat_start + slot] = 2.0 * ip.re;
            }
        }
        for lambda in &mut lambdas {
            inv.iter().for_each(|u| lambda.apply(u));
        }
        flat_end = flat_start;
    }
    let vjps = seeds
        .iter()
        .map(|w| {
            (0..n_params)
                .map(|k| (0..n).map(|c| w[c] * jac[c][k]).sum())
                .collect()
        })
        .collect();
    (z, vjps)
}

/// One sample's own circuit: the template bound to its parameters, each
/// error event inserted right after its gate.
fn sample_circuit(template: &Circuit, s: &Sample) -> Circuit {
    let mut bound = template.clone();
    bound.set_parameters(&s.params);
    let mut out = Circuit::new(template.n_qubits());
    for (i, g) in bound.gates().iter().enumerate() {
        out.push(*g);
        for &(_, e) in s.events.iter().filter(|(at, _)| *at == i) {
            out.push(e);
        }
    }
    out
}

/// One sample as the test owns it.
#[derive(Debug, Clone)]
struct Sample {
    params: Vec<f64>,
    events: Vec<(usize, Gate)>,
    /// `[n_seeds][n_qubits]` weights.
    seeds: Vec<Vec<f64>>,
}

#[derive(Debug, Clone)]
struct Case {
    template: Circuit,
    samples: Vec<Sample>,
    n_seeds: usize,
    from: usize,
}

fn views(samples: &[Sample]) -> Vec<BatchSample<'_>> {
    samples
        .iter()
        .map(|s| BatchSample {
            params: &s.params,
            events: &s.events,
        })
        .collect()
}

/// Runs the engine on `samples`; returns the `[batch, 2ⁿ]` states and
/// the `[batch, n_seeds, n_params]` products, pre-filled with NaN so
/// slots the sweep skips stay visible.
fn engine(case: &Case, samples: &[Sample]) -> (Vec<C64>, Vec<f64>) {
    let t = &case.template;
    let batch = samples.len();
    let mut states = vec![C64::ZERO; batch << t.n_qubits()];
    let batch_view = views(samples);
    batch_forward(t, &batch_view, &mut states);
    let seeds: Vec<f64> = samples.iter().flat_map(|s| s.seeds.concat()).collect();
    let mut grads = vec![f64::NAN; batch * case.n_seeds * t.n_params()];
    batch_vjp(
        t,
        &batch_view,
        &states,
        &seeds,
        case.n_seeds,
        case.from,
        &mut grads,
    );
    (states, grads)
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

/// Raw per-sample draws: prefix angles, events `(gate seed, qubit seed,
/// Pauli)` and seed terms `(qubit seed, weight)`; a weight drawn near
/// zero is made exactly zero.
type RawSample = (Vec<f64>, Vec<(usize, usize, usize)>, Vec<(usize, f64)>);

fn raw_sample() -> impl Strategy<Value = RawSample> {
    (
        prop::collection::vec(-3.2f64..3.2, 8),
        prop::collection::vec((0..64usize, 0..MAX_QUBITS, 0..3usize), 0..4),
        prop::collection::vec((0..MAX_QUBITS, -1.5f64..1.5), 0..6),
    )
}

/// A random template on 1–6 qubits, a batch of `batch` samples whose
/// first few parameter slots (the "encoder prefix") differ per sample,
/// with their own Pauli events and `n_seeds` seeds each, and a first
/// slot `from` the sweep may stop at.
fn arb_case(batch: usize) -> impl Strategy<Value = Case> {
    (
        1..=MAX_QUBITS,
        prop::collection::vec(raw_gate(), 0..40),
        prop::collection::vec(raw_sample(), batch),
        1..3usize,
        0..8usize,
        0..4usize,
    )
        .prop_map(move |(n, raw, raw_samples, n_seeds, prefix, from_seed)| {
            let mut template = Circuit::new(n);
            for (k, a, d, t, p, l) in raw {
                template.extend(place(GateKind::ALL[k], n, a, d, [t, p, l]));
            }
            let base = template.parameters();
            let n_gates = template.len();
            let samples = raw_samples
                .into_iter()
                .map(|(angles, raw_events, terms)| {
                    let mut params = base.clone();
                    for (p, a) in params.iter_mut().zip(angles).take(prefix) {
                        *p = a;
                    }
                    let mut events: Vec<(usize, Gate)> = if n_gates == 0 {
                        Vec::new()
                    } else {
                        raw_events
                            .into_iter()
                            .map(|(at, q, pauli)| {
                                let q = q % n;
                                let e = [Gate::x(q), Gate::y(q), Gate::z(q)][pauli];
                                (at % n_gates, e)
                            })
                            .collect()
                    };
                    events.sort_by_key(|&(at, _)| at);
                    // Seed `s` takes every `n_seeds`-th term; several terms
                    // may hit one qubit, and a seed may get none at all.
                    let seeds = (0..n_seeds)
                        .map(|s| {
                            let mut w = vec![0.0; n];
                            for &(q, v) in terms.iter().skip(s).step_by(n_seeds) {
                                w[q % n] += if v.abs() < 0.3 { 0.0 } else { v };
                            }
                            w
                        })
                        .collect();
                    Sample {
                        params,
                        events,
                        seeds,
                    }
                })
                .collect();
            // Mostly a full sweep; sometimes stop partway.
            let from = match from_seed {
                0 => base.len() / 2,
                _ => 0,
            };
            Case {
                template,
                samples,
                n_seeds,
                from,
            }
        })
}

fn assert_matches_oracle(case: &Case) {
    let t = &case.template;
    let (n, n_params) = (t.n_qubits(), t.n_params());
    let (states, grads) = engine(case, &case.samples);
    for (i, s) in case.samples.iter().enumerate() {
        let (z, vjps) = gate_by_gate(&sample_circuit(t, s), &s.seeds);
        let state = &states[i << n..(i + 1) << n];
        for (q, &want) in z.iter().enumerate() {
            let got = expect_z(state, q);
            assert!(
                (got - want).abs() < TOL,
                "sample {i} ⟨Z_{q}⟩: engine {got} vs oracle {want}\n{t}"
            );
        }
        for (sd, want) in vjps.iter().enumerate() {
            let row = &grads[(i * case.n_seeds + sd) * n_params..][..n_params];
            for (k, (&got, &want)) in row.iter().zip(want).enumerate() {
                let skipped = k < case.from && got.is_nan();
                assert!(
                    skipped || (got - want).abs() < TOL,
                    "sample {i} seed {sd} slot {k}: engine {got} vs oracle {want}\n{t}"
                );
            }
        }
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

fn state_bits(states: &[C64]) -> Vec<u64> {
    bits(states.iter().flat_map(|a| [a.re, a.im]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_of_one_matches_gate_by_gate(case in arb_case(1)) {
        assert_matches_oracle(&case);
    }

    #[test]
    fn batch_of_three_matches_gate_by_gate(case in arb_case(3)) {
        assert_matches_oracle(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_of_48_matches_gate_by_gate(case in arb_case(48)) {
        assert_matches_oracle(&case);
    }

    /// Alone, in the whole batch, and chunked into runs of `chunk`
    /// samples: the same bits.
    #[test]
    fn a_sample_is_bitwise_the_same_in_any_batch(case in arb_case(48), chunk in 1..20usize) {
        let t = &case.template;
        let dim = 1usize << t.n_qubits();
        let width = case.n_seeds * t.n_params();
        let (states, grads) = engine(&case, &case.samples);
        for (c, part) in case.samples.chunks(chunk).enumerate() {
            let (s, g) = engine(&case, part);
            let at = c * chunk;
            prop_assert_eq!(state_bits(&s), state_bits(&states[at * dim..(at + part.len()) * dim]));
            prop_assert_eq!(bits(g), bits(grads[at * width..(at + part.len()) * width].to_vec()));
        }
        for (i, sample) in case.samples.iter().enumerate().step_by(7) {
            let (s, g) = engine(&case, std::slice::from_ref(sample));
            prop_assert_eq!(state_bits(&s), state_bits(&states[i * dim..(i + 1) * dim]));
            prop_assert_eq!(bits(g), bits(grads[i * width..(i + 1) * width].to_vec()));
        }
    }
}
