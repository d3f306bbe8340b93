//! Criterion benches for the gradient engines: adjoint differentiation vs
//! parameter-shift, the adjoint on the noise-injected training block, the
//! batch VJP of a whole training batch, the batch forward that inference
//! runs, and the symbolic-lowering chain rule.
//!
//! The `gradients_train_batch` group ends in two acceptance gates, which
//! write their figures to `results/BENCH_gradients.json`:
//!
//! * training: one shared batch forward plus VJP over 48 prepared
//!   samples must beat 48 per-sample `adjoint_gradients` calls by ≥ 2×
//!   on the §4.2 blocks (the forward and the VJP sweep are also timed
//!   apart, and reported next to their sum);
//! * inference: one noise-free `batch_forward` over 48 distinct §4.2 rows
//!   must agree with 48 per-row bind + `StateVector::run` calls to 1e-12
//!   on every ⟨Z⟩ and sustain ≥ 1.3× their rate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_compiler::symbolic::lower_symbolic;
use qnat_core::model::{NoiseSource, PreparedSample, Qnn, QnnConfig};
use qnat_json::Json;
use qnat_noise::inject::{insert_error_gates, splice};
use qnat_noise::presets;
use qnat_sim::adjoint::{
    adjoint_all_z, adjoint_gradients, batch_forward, batch_vjp, expect_z, BatchSample,
};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_sim::math::C64;
use qnat_sim::paramshift::paramshift_gradients;
use qnat_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

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

/// Samples per training batch (perfbench's `train` workload).
const BATCH: usize = 48;

/// One block of a training batch: its samples prepared as
/// `train_forward` prepares them, the same samples as bound circuits with
/// their error gates spliced in, and each sample's VJP seed.
struct TrainBlock {
    template: Circuit,
    obs: Vec<usize>,
    prepared: Vec<PreparedSample>,
    runs: Vec<Circuit>,
    /// `[BATCH, n_window]`: upstream gradient × readout slope γ.
    seeds: Vec<f64>,
    /// First slot the sweep needs (block 0 skips its encoder prefix).
    from: usize,
}

/// Both blocks of the §4.2 model (2 blocks × 2 U3+CU3 layers routed for
/// Santiago), 48 samples each, error gates at T = 0.5 plus readout
/// injection. Block 1's inputs stand in for quantized block-0 outputs.
fn train_batch() -> Vec<TrainBlock> {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 7)
        .expect("santiago fits the standard model");
    let source = NoiseSource::GateInsertion {
        model: &device,
        factor: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(48);
    (0..qnn.blocks().len())
        .map(|bi| {
            let block = &qnn.blocks()[bi];
            let noise = qnn.block_noise(bi, &source, Some(&device));
            let slopes = noise.readout_slopes(block.obs.len());
            let template = block.lowered.circuit.clone();
            let n_win = template.n_qubits();
            let mut prepared = Vec::with_capacity(BATCH);
            let mut seeds = vec![0.0; BATCH * n_win];
            for w in seeds.chunks_exact_mut(n_win) {
                let row: Vec<f64> = (0..block.encoder.n_features())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect();
                prepared.push(qnn.prepare(bi, &row, &noise, &mut rng));
                for (&q, gamma) in block.obs.iter().zip(&slopes) {
                    w[q] = rng.gen_range(-1.0..1.0) * gamma;
                }
            }
            let runs = prepared
                .iter()
                .map(|p| {
                    let mut bound = template.clone();
                    bound.set_parameters(&p.angles);
                    splice(&bound, &p.plan)
                })
                .collect();
            TrainBlock {
                obs: block.obs.clone(),
                from: if bi == 0 {
                    block.first_trainable_slot()
                } else {
                    0
                },
                template,
                prepared,
                runs,
                seeds,
            }
        })
        .collect()
}

fn per_sample_adjoint(block: &TrainBlock) {
    for run in &block.runs {
        black_box(adjoint_gradients(run, &block.obs));
    }
}

fn batch_samples(block: &TrainBlock) -> Vec<BatchSample<'_>> {
    block
        .prepared
        .iter()
        .map(PreparedSample::batch_sample)
        .collect()
}

/// The block's batch forward: every sample's final state into `states`.
fn batch_forward_pass(block: &TrainBlock, states: &mut [C64]) {
    batch_forward(&block.template, &batch_samples(block), states);
    black_box(states);
}

/// The block's VJP sweep back from the final states in `states`.
fn batch_vjp_sweep(block: &TrainBlock, states: &[C64], grads: &mut [f64]) {
    batch_vjp(
        &block.template,
        &batch_samples(block),
        states,
        &block.seeds,
        1,
        block.from,
        grads,
    );
    black_box(grads);
}

/// Forward then VJP: what one training step runs per block.
fn batch_vjp_pass(block: &TrainBlock, states: &mut [C64], grads: &mut [f64]) {
    batch_forward_pass(block, states);
    batch_vjp_sweep(block, states, grads);
}

/// The noise-free inference forward of block 0 of the §4.2 model (2
/// blocks × 2 U3+CU3 layers routed for Santiago): 48 distinct rows
/// prepared as `infer` prepares them.
struct InferBlock {
    template: Circuit,
    obs: Vec<usize>,
    prepared: Vec<PreparedSample>,
}

fn infer_block() -> InferBlock {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 7)
        .expect("santiago fits the standard model");
    let noise = qnn.block_noise(0, &NoiseSource::None, None);
    let mut rng = StdRng::seed_from_u64(16);
    let prepared = (0..BATCH)
        .map(|_| {
            let row: Vec<f64> = (0..16).map(|_| rng.gen_range(0.0..1.0)).collect();
            qnn.prepare(0, &row, &noise, &mut rng)
        })
        .collect();
    let block = &qnn.blocks()[0];
    InferBlock {
        template: block.lowered.circuit.clone(),
        obs: block.obs.clone(),
        prepared,
    }
}

/// Every row's ⟨Z⟩, one bind and gate-by-gate statevector run per row.
fn per_row_forward(block: &InferBlock, out: &mut [f64]) {
    let rows = out.chunks_exact_mut(block.obs.len());
    for (p, out) in block.prepared.iter().zip(rows) {
        let mut bound = block.template.clone();
        bound.set_parameters(&p.angles);
        let mut psi = StateVector::zero_state(bound.n_qubits());
        psi.run(&bound);
        for (o, &q) in out.iter_mut().zip(&block.obs) {
            *o = psi.expect_z(q);
        }
    }
    black_box(out);
}

/// Every row's ⟨Z⟩ from one shared batch forward.
fn batch_infer_forward(block: &InferBlock, states: &mut [C64], out: &mut [f64]) {
    let samples: Vec<BatchSample<'_>> = block
        .prepared
        .iter()
        .map(PreparedSample::batch_sample)
        .collect();
    batch_forward(&block.template, &samples, states);
    let dim = 1usize << block.template.n_qubits();
    for (state, out) in states
        .chunks_exact(dim)
        .zip(out.chunks_exact_mut(block.obs.len()))
    {
        for (o, &q) in out.iter_mut().zip(&block.obs) {
            *o = expect_z(state, q);
        }
    }
    black_box(out);
}

/// Median over `passes` of the mean time per call of `f`.
fn time_per_call(mut f: impl FnMut(), calls: usize, passes: usize) -> Duration {
    let mut times: Vec<Duration> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed() / calls as u32
        })
        .collect();
    times.sort();
    times[passes / 2]
}

fn bench_train_batch(c: &mut Criterion) {
    let blocks = train_batch();
    let buffers = |b: &TrainBlock| {
        let dim = 1usize << b.template.n_qubits();
        (
            vec![C64::ZERO; BATCH * dim],
            vec![0.0; BATCH * b.template.n_params()],
        )
    };
    let mut group = c.benchmark_group("gradients_train_batch");
    group.bench_function("per_sample_adjoint", |b| {
        b.iter(|| blocks.iter().for_each(per_sample_adjoint))
    });
    let mut bufs: Vec<_> = blocks.iter().map(buffers).collect();
    let both = |bufs: &mut [(Vec<C64>, Vec<f64>)]| {
        for (block, (states, grads)) in blocks.iter().zip(bufs) {
            batch_vjp_pass(block, states, grads);
        }
    };
    let forward = |bufs: &mut [(Vec<C64>, Vec<f64>)]| {
        for (block, (states, _)) in blocks.iter().zip(bufs) {
            batch_forward_pass(block, states);
        }
    };
    // Run after a forward pass, so the states are the blocks' own.
    let sweep = |bufs: &mut [(Vec<C64>, Vec<f64>)]| {
        for (block, (states, grads)) in blocks.iter().zip(bufs) {
            batch_vjp_sweep(block, states, grads);
        }
    };
    group.bench_function("batch_vjp", |b| b.iter(|| both(&mut bufs)));
    group.bench_function("batch_forward", |b| b.iter(|| forward(&mut bufs)));
    group.bench_function("batch_vjp_sweep", |b| b.iter(|| sweep(&mut bufs)));
    group.finish();
    if !c.selects("gradients_train_batch") {
        return;
    }

    // Acceptance gate: both ways over both blocks, interleaved passes.
    let per_sample = time_per_call(|| blocks.iter().for_each(per_sample_adjoint), 40, 7);
    let batch = time_per_call(|| both(&mut bufs), 40, 7);
    let batch_forward = time_per_call(|| forward(&mut bufs), 40, 7);
    let batch_sweep = time_per_call(|| sweep(&mut bufs), 40, 7);
    let sample_blocks = (BATCH * blocks.len()) as f64;
    let us_per = |t: Duration| t.as_secs_f64() * 1e6 / sample_blocks;
    // Absolute cost unit: one amplitude touched by one gate in a plain
    // gate-by-gate sweep: `states` of them per gate, ψ forward (1), then ψ
    // and every co-state backward; a Jacobian carries one co-state per
    // observable, a VJP one.
    let amp_ops = |states: usize| -> f64 {
        blocks
            .iter()
            .flat_map(|b| {
                b.runs
                    .iter()
                    .map(move |r| r.len() * (1 << r.n_qubits()) * states)
            })
            .sum::<usize>() as f64
    };
    let ns_per_op = |t: Duration, ops: f64| t.as_secs_f64() * 1e9 / ops;
    let n_obs = blocks[0].obs.len();
    let (per_sample_ns, batch_ns, forward_ns, sweep_ns) = (
        ns_per_op(per_sample, amp_ops(2 + n_obs)),
        ns_per_op(batch, amp_ops(3)),
        ns_per_op(batch_forward, amp_ops(1)),
        ns_per_op(batch_sweep, amp_ops(2)),
    );
    let ratio = per_sample.as_secs_f64() / batch.as_secs_f64();
    println!(
        "gradients_train_batch: {BATCH} samples x {} blocks; per-sample adjoint {:.2} us \
         per sample-block ({per_sample_ns:.2} ns/amp-op) vs batch forward+VJP {:.2} us \
         ({batch_ns:.2} ns/amp-op) -> {ratio:.2}x; forward {:.2} us ({forward_ns:.2} \
         ns/amp-op), VJP {:.2} us ({sweep_ns:.2} ns/amp-op)",
        blocks.len(),
        us_per(per_sample),
        us_per(batch),
        us_per(batch_forward),
        us_per(batch_sweep),
    );

    // Inference gate: the batch forward against per-row runs.
    let infer = infer_block();
    let n_out = BATCH * infer.obs.len();
    let mut states = vec![C64::ZERO; BATCH << infer.template.n_qubits()];
    let (mut per_row_out, mut batch_out) = (vec![0.0; n_out], vec![0.0; n_out]);
    per_row_forward(&infer, &mut per_row_out);
    batch_infer_forward(&infer, &mut states, &mut batch_out);
    for (k, (a, b)) in per_row_out.iter().zip(&batch_out).enumerate() {
        assert!((a - b).abs() < 1e-12, "⟨Z⟩ {k}: per-row {a} vs batch {b}");
    }
    let per_row = time_per_call(|| per_row_forward(&infer, &mut per_row_out), 40, 7);
    let batch_infer = time_per_call(
        || batch_infer_forward(&infer, &mut states, &mut batch_out),
        40,
        7,
    );
    let row_us = |t: Duration| t.as_secs_f64() * 1e6 / BATCH as f64;
    let infer_ratio = per_row.as_secs_f64() / batch_infer.as_secs_f64();
    println!(
        "gradients_infer_forward: {BATCH} rows; per-row bind + run {:.2} us per row vs \
         batch forward {:.2} us -> {infer_ratio:.2}x",
        row_us(per_row),
        row_us(batch_infer),
    );
    let doc = Json::obj([
        ("bench", Json::Str("gradients_train_batch".into())),
        (
            "workload",
            Json::Str(
                "standard(16,4,2,2) routed for santiago, 48 samples per block, \
                 gate insertion T=0.5 + readout"
                    .into(),
            ),
        ),
        (
            "per_sample_adjoint_us_per_sample_block",
            Json::Num(us_per(per_sample)),
        ),
        ("batch_vjp_us_per_sample_block", Json::Num(us_per(batch))),
        ("per_sample_adjoint_ns_per_amp_op", Json::Num(per_sample_ns)),
        ("batch_vjp_ns_per_amp_op", Json::Num(batch_ns)),
        (
            "batch_forward_us_per_sample_block",
            Json::Num(us_per(batch_forward)),
        ),
        ("batch_forward_ns_per_amp_op", Json::Num(forward_ns)),
        (
            "batch_vjp_sweep_us_per_sample_block",
            Json::Num(us_per(batch_sweep)),
        ),
        ("batch_vjp_sweep_ns_per_amp_op", Json::Num(sweep_ns)),
        ("speedup", Json::Num(ratio)),
        (
            "infer_workload",
            Json::Str(
                "standard(16,4,2,2) routed for santiago, block 0, 48 distinct rows, noise-free"
                    .into(),
            ),
        ),
        ("infer_per_row_us_per_row", Json::Num(row_us(per_row))),
        (
            "infer_batch_forward_us_per_row",
            Json::Num(row_us(batch_infer)),
        ),
        ("infer_speedup", Json::Num(infer_ratio)),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_gradients.json"), doc.to_json_pretty())
        .expect("write results/BENCH_gradients.json");
    assert!(
        ratio >= 2.0,
        "one batch forward + VJP must beat {BATCH} per-sample adjoint calls by >= 2x: got {ratio:.2}x"
    );
    assert!(
        infer_ratio >= 1.3,
        "one batch forward must sustain >= 1.3x the rate of {BATCH} per-row runs: got {infer_ratio:.2}x"
    );
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
    bench_train_batch,
    bench_symbolic_lowering
);
criterion_main!(benches);
