//! Fused-vs-unfused simulator throughput (ISSUE 7 acceptance bench).
//!
//! The QuantumNAT workload is repeated inference over the same §4.2 QNN
//! blocks — the ideal fuse-once-run-many case. This bench takes the
//! standard 4-qubit block transpiled for Santiago at level 2, binds one
//! row of encoder angles plus the trained parameters, and compares
//! gate-by-gate execution against running the [`FusedCircuit`] the
//! compiler's fusion pass produces. It also microbenches the raw
//! branch-free `apply_mat2`/`apply_mat4` kernels through single-gate
//! circuits on larger registers, writes `results/BENCH_sim.json`
//! (throughput plus per-run latency percentiles), and fails loudly unless
//! fused execution sustains ≥ 2× the unfused runs/sec.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_bench::block_circuit;
use qnat_bench::stats::latency_percentiles_ms;
use qnat_compiler::fusion::fuse;
use qnat_json::Json;
use qnat_sim::circuit::Circuit;
use qnat_sim::fused::FusedCircuit;
use qnat_sim::gate::Gate;
use qnat_sim::statevector::StateVector;
use std::time::{Duration, Instant};

/// Per-run iterations of the acceptance gate (each run = full block
/// execution + ⟨Z⟩ readout, exactly the serving layer's per-job work).
const ITERS: usize = 2000;

fn run_unfused(circuit: &Circuit) -> Vec<f64> {
    let mut psi = StateVector::zero_state(circuit.n_qubits());
    psi.run(circuit);
    psi.expect_all_z()
}

fn run_fused(fused: &FusedCircuit) -> Vec<f64> {
    let mut psi = StateVector::zero_state(fused.n_qubits());
    psi.run_fused(fused);
    psi.expect_all_z()
}

/// Times `ITERS` runs individually: total wall-clock plus the per-run
/// latency samples the percentile summary pools.
fn timed_pass<R>(mut run: impl FnMut() -> R) -> (Duration, Vec<Duration>) {
    let mut samples = Vec::with_capacity(ITERS);
    let start = Instant::now();
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(run());
        samples.push(t.elapsed());
    }
    (start.elapsed(), samples)
}

fn bench_block(c: &mut Criterion) {
    let circuit = block_circuit();
    // Fuse ONCE, outside every timed loop — the compiled-circuit cache
    // makes this the steady-state serving shape.
    let fused = fuse(&circuit);
    let mut group = c.benchmark_group("sim_fused_block");
    group.bench_function("unfused", |b| b.iter(|| run_unfused(&circuit)));
    group.bench_function("fused", |b| b.iter(|| run_fused(&fused)));
    group.finish();
}

/// Raw kernel microbench: one U3 (Mat2 path) and one CU3 (Mat4 path)
/// swept across register sizes, isolating the branch-free strided
/// kernels from circuit overhead.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_fused_kernels");
    for &n in &[8usize, 12, 16] {
        let mut one_q = Circuit::new(n);
        one_q.push(Gate::u3(n / 2, 0.3, -0.2, 0.7));
        let mut two_q = Circuit::new(n);
        two_q.push(Gate::cu3(0, n - 1, 0.3, -0.2, 0.7));
        group.bench_with_input(BenchmarkId::new("mat2", n), &n, |b, &n| {
            let mut psi = StateVector::zero_state(n);
            b.iter(|| psi.run(&one_q))
        });
        group.bench_with_input(BenchmarkId::new("mat4", n), &n, |b, &n| {
            let mut psi = StateVector::zero_state(n);
            b.iter(|| psi.run(&two_q))
        });
    }
    group.finish();

    acceptance_gate();
}

/// Acceptance gate + `results/BENCH_sim.json`: fused execution must
/// sustain ≥ 2× unfused runs/sec on the §4.2 block. Median of 3 passes
/// to shrug off scheduler hiccups; equivalence is asserted here too, so
/// a kernel regression cannot hide behind a fast wrong answer.
fn acceptance_gate() {
    let circuit = block_circuit();
    let fused = fuse(&circuit);
    let baseline = run_unfused(&circuit);
    let fused_out = run_fused(&fused);
    for (a, b) in baseline.iter().zip(&fused_out) {
        assert!((a - b).abs() < 1e-12, "fused must reproduce unfused");
    }

    let median_of_3 = |mut runs: Vec<Duration>| {
        runs.sort();
        runs[1]
    };
    let unfused_passes: Vec<(Duration, Vec<Duration>)> =
        (0..3).map(|_| timed_pass(|| run_unfused(&circuit))).collect();
    let fused_passes: Vec<(Duration, Vec<Duration>)> =
        (0..3).map(|_| timed_pass(|| run_fused(&fused))).collect();
    let unfused_t = median_of_3(unfused_passes.iter().map(|p| p.0).collect());
    let fused_t = median_of_3(fused_passes.iter().map(|p| p.0).collect());
    let unfused_rate = ITERS as f64 / unfused_t.as_secs_f64();
    let fused_rate = ITERS as f64 / fused_t.as_secs_f64();
    let speedup = fused_rate / unfused_rate;

    let mut unfused_lat: Vec<Duration> =
        unfused_passes.iter().flat_map(|p| p.1.clone()).collect();
    let mut fused_lat: Vec<Duration> = fused_passes.iter().flat_map(|p| p.1.clone()).collect();
    let (u50, u90, u99) = latency_percentiles_ms(&mut unfused_lat);
    let (f50, f90, f99) = latency_percentiles_ms(&mut fused_lat);

    println!(
        "sim_fused: §4.2 block {} gates → {} fused ops; unfused {unfused_rate:.0} runs/s vs \
         fused {fused_rate:.0} runs/s → {speedup:.2}x",
        circuit.len(),
        fused.len()
    );

    let doc = Json::obj([
        ("bench", Json::Str("sim_fused".into())),
        ("block", Json::Str("standard(16,4,1,2) block 0, santiago, level 2".into())),
        ("gates_unfused", Json::Num(circuit.len() as f64)),
        ("ops_fused", Json::Num(fused.len() as f64)),
        ("iters_per_pass", Json::Num(ITERS as f64)),
        ("unfused_runs_per_sec", Json::Num(unfused_rate)),
        ("fused_runs_per_sec", Json::Num(fused_rate)),
        ("speedup", Json::Num(speedup)),
        (
            "unfused_latency_ms",
            Json::obj([
                ("p50", Json::Num(u50)),
                ("p90", Json::Num(u90)),
                ("p99", Json::Num(u99)),
            ]),
        ),
        (
            "fused_latency_ms",
            Json::obj([
                ("p50", Json::Num(f50)),
                ("p90", Json::Num(f90)),
                ("p99", Json::Num(f99)),
            ]),
        ),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_sim.json"), doc.to_json_pretty())
        .expect("write results/BENCH_sim.json");

    assert!(
        speedup >= 2.0,
        "fused execution must sustain ≥ 2x unfused runs/sec on the §4.2 block: got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_block, bench_kernels);
criterion_main!(benches);
