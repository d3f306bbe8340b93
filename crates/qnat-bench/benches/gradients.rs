//! Criterion benches for the gradient engines: adjoint differentiation vs
//! parameter-shift, the adjoint on the noise-injected training block, and
//! the symbolic-lowering chain rule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_compiler::symbolic::lower_symbolic;
use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::inject::insert_error_gates;
use qnat_noise::presets;
use qnat_sim::adjoint::{adjoint_all_z, adjoint_gradients};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_sim::paramshift::paramshift_gradients;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A U3+CU3 block like the QuantumNAT default ansatz.
fn qnn_block(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::ry(q, 0.3 + q as f64 * 0.1));
    }
    for l in 0..layers {
        if l % 2 == 0 {
            for q in 0..n {
                c.push(Gate::u3(q, 0.2, -0.1, 0.4));
            }
        } else {
            for q in 0..n {
                c.push(Gate::cu3(q, (q + 1) % n, 0.3, 0.1, -0.2));
            }
        }
    }
    c
}

fn bench_adjoint_vs_paramshift(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradients_4q_4layers");
    let circuit = qnn_block(4, 4);
    group.bench_function("adjoint", |b| b.iter(|| adjoint_all_z(&circuit)));
    group.bench_function("paramshift", |b| {
        b.iter(|| paramshift_gradients(&circuit, &[0, 1, 2, 3]))
    });
    group.finish();
}

fn bench_adjoint_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjoint_scaling");
    for &n in &[4usize, 6, 8, 10] {
        let circuit = qnn_block(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| adjoint_all_z(&circuit))
        });
    }
    group.finish();
}

/// The circuit noise-injected training differentiates: the first block
/// of the standard MNIST-4 model (2 blocks × 2 U3+CU3 layers) routed and
/// basis-compiled for Santiago, bound to one input row, after error-gate
/// insertion at T = 0.5; plus its observable qubits.
fn train_block() -> (Circuit, Vec<usize>) {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 7)
        .expect("santiago fits the standard model");
    let block = &qnn.blocks()[0];
    let row: Vec<f64> = (0..16).map(|j| (j as f64 * 0.013).sin()).collect();
    let mut params = block.encoder.angles(&row);
    params.extend_from_slice(qnn.block_params(0));
    let bound = block.lowered.bind(&params);
    let mut rng = StdRng::seed_from_u64(7);
    let (run, _) = insert_error_gates(&bound, &device, 0.5, &mut rng);
    (run, block.obs.clone())
}

fn bench_train_block(c: &mut Criterion) {
    let (circuit, obs) = train_block();
    // Absolute cost unit: one amplitude touched by one gate in the plain
    // gate-by-gate sweep (ψ forward, then ψ and every co-state backward).
    let amp_ops = circuit.len() * (1 << circuit.n_qubits()) * (2 + obs.len());
    println!(
        "gradients_train_block: {} gates ({} params) on {} qubits, {} observables, \
         {amp_ops} amplitude-ops per call",
        circuit.len(),
        circuit.n_params(),
        circuit.n_qubits(),
        obs.len()
    );
    let mut group = c.benchmark_group("gradients_train_block");
    group.bench_function("adjoint", |b| b.iter(|| adjoint_gradients(&circuit, &obs)));
    group.finish();
}

fn bench_symbolic_lowering(c: &mut Criterion) {
    let circuit = qnn_block(4, 4);
    c.bench_function("symbolic_lowering_4q_4layers", |b| {
        b.iter(|| lower_symbolic(&circuit))
    });
    let sym = lower_symbolic(&circuit);
    let params = circuit.parameters();
    c.bench_function("symbolic_bind", |b| b.iter(|| sym.bind(&params)));
    let grads = vec![0.5; sym.angles.len()];
    c.bench_function("symbolic_chain_gradient", |b| {
        b.iter(|| sym.chain_gradient(&grads))
    });
}

criterion_group!(
    benches,
    bench_adjoint_vs_paramshift,
    bench_adjoint_scaling,
    bench_train_block,
    bench_symbolic_lowering
);
criterion_main!(benches);
