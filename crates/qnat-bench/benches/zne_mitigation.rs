//! Error-mitigation sweep head-to-head (ISSUE 10 acceptance bench).
//!
//! Runs the §4.2 QNN block (standard 16-feature / 4-qubit model, routed
//! for Santiago at level 2) as a served [`MitigatedJob`] against the
//! exact density-matrix hardware emulator, and compares four arms
//! against the noise-free statevector ideal:
//!
//! * **raw** — the unmitigated noisy expectations (the sweep's scale-1
//!   baseline),
//! * **zne** — gate-folding zero-noise extrapolation (scales 1/3/5,
//!   per-gate folding, linear fit),
//! * **readout inversion** — per-qubit confusion inversion of the raw
//!   run, no folding,
//! * **combined** — readout inversion per scale, then ZNE.
//!
//! Every arm's mean absolute expectation error lands in
//! `results/BENCH_zne.json` next to the served sweep's latency
//! percentiles, and the gate fails loudly unless ZNE beats the raw
//! noisy error — the mitigation stack must *pay for itself* on the
//! paper's own workload.

use criterion::{criterion_group, criterion_main, Criterion};
use qnat_bench::block_circuit;
use qnat_bench::stats::latency_percentiles_ms;
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_core::mitigate::unconfuse_expectations;
use qnat_json::Json;
use qnat_noise::backend::EmulatorBackend;
use qnat_noise::presets;
use qnat_serve::{submit_mitigated, MitigatedJob, ServeConfig, ServeEngine};
use qnat_sim::statevector::StateVector;
use std::time::{Duration, Instant};

/// Served sweeps timed for the latency percentiles.
const SWEEPS: usize = 30;

fn emulator_engine(workers: usize) -> ServeEngine {
    let device = presets::santiago();
    ServeEngine::new(
        ServeConfig {
            workers,
            seed: 7,
            ..ServeConfig::default()
        },
        move |_job, seed| {
            Ok(ResilientExecutor::new(
                Box::new(EmulatorBackend::new(&device, seed)?),
                RetryPolicy::default(),
            ))
        },
    )
}

fn mean_abs_error(zs: &[f64], ideal: &[f64]) -> f64 {
    zs.iter()
        .zip(ideal)
        .map(|(z, i)| (z - i).abs())
        .sum::<f64>()
        / ideal.len() as f64
}

fn bench_sweep(c: &mut Criterion) {
    let circuit = block_circuit();
    let engine = emulator_engine(2);
    let job = MitigatedJob::zne(circuit, None);
    let mut group = c.benchmark_group("zne_mitigation");
    group.bench_function("served_sweep_1_3_5", |b| {
        b.iter(|| {
            let sweep = submit_mitigated(&engine, &job, 0xA11CE).expect("submit");
            sweep.wait(&engine).expect("tickets live")
        })
    });
    group.finish();
    engine.drain();

    acceptance_gate();
}

/// Acceptance gate + `results/BENCH_zne.json`: the served ZNE sweep's
/// mean absolute expectation error on the §4.2 block under Santiago
/// emulator noise must beat the raw (unmitigated) error, bitwise
/// reproducibly (exact density-matrix sub-runs, pinned sweep seed).
fn acceptance_gate() {
    let circuit = block_circuit();
    let n = circuit.n_qubits();
    let device = presets::santiago();
    let confusions: Vec<_> = device.confusions().into_iter().take(n).collect();

    // Ground truth: the noise-free statevector.
    let mut psi = StateVector::zero_state(n);
    psi.run(&circuit);
    let ideal = psi.expect_all_z();

    let engine = emulator_engine(2);

    // ZNE arm (its scale-1 sub-run doubles as the raw arm), timed over
    // SWEEPS served repetitions for the latency percentiles.
    let zne_job = MitigatedJob::zne(circuit.clone(), None);
    let mut latencies: Vec<Duration> = Vec::with_capacity(SWEEPS);
    let mut zne_outcome = None;
    for _ in 0..SWEEPS {
        let t = Instant::now();
        let sweep = submit_mitigated(&engine, &zne_job, 0xA11CE).expect("submit zne");
        let outcome = sweep.wait(&engine).expect("tickets live");
        latencies.push(t.elapsed());
        zne_outcome = Some(outcome);
    }
    let zne_outcome = zne_outcome.expect("at least one sweep ran");
    let zne = zne_outcome.mitigated.expect("zne aggregation").expectations;
    let raw = zne_outcome.raw.expect("scale-1 run succeeded");

    // Combined arm: readout inversion per scale, then ZNE.
    let combined_job = MitigatedJob::zne(circuit.clone(), None).with_readout(confusions.clone());
    let sweep = submit_mitigated(&engine, &combined_job, 0xA11CE).expect("submit combined");
    let combined = sweep
        .wait(&engine)
        .expect("tickets live")
        .mitigated
        .expect("combined aggregation")
        .expectations;
    engine.drain();

    // Readout-inversion-only arm: pure math on the raw run.
    let inverted = unconfuse_expectations(&raw, &confusions).expect("santiago is invertible");

    let raw_err = mean_abs_error(&raw, &ideal);
    let zne_err = mean_abs_error(&zne, &ideal);
    let inv_err = mean_abs_error(&inverted, &ideal);
    let combined_err = mean_abs_error(&combined, &ideal);
    let (p50, p90, p99) = latency_percentiles_ms(&mut latencies);

    println!(
        "zne_mitigation: §4.2 block on santiago emulator — mean |Δ⟨Z⟩| raw {raw_err:.5}, \
         zne {zne_err:.5}, readout-inv {inv_err:.5}, combined {combined_err:.5}; \
         sweep p50 {p50:.2} ms"
    );

    let doc = Json::obj([
        ("bench", Json::Str("zne_mitigation".into())),
        (
            "block",
            Json::Str("standard(16,4,1,2) block 0, santiago, level 2".into()),
        ),
        (
            "backend",
            Json::Str("emulator(santiago), exact expectations".into()),
        ),
        ("scales", Json::nums([1.0, 3.0, 5.0])),
        ("strategy", Json::Str("per_gate".into())),
        ("method", Json::Str("linear".into())),
        ("sweeps_timed", Json::Num(SWEEPS as f64)),
        ("raw_mean_abs_error", Json::Num(raw_err)),
        ("zne_mean_abs_error", Json::Num(zne_err)),
        ("readout_inversion_mean_abs_error", Json::Num(inv_err)),
        ("combined_mean_abs_error", Json::Num(combined_err)),
        ("zne_error_reduction", Json::Num(1.0 - zne_err / raw_err)),
        (
            "combined_error_reduction",
            Json::Num(1.0 - combined_err / raw_err),
        ),
        (
            "sweep_latency_ms",
            Json::obj([
                ("p50", Json::Num(p50)),
                ("p90", Json::Num(p90)),
                ("p99", Json::Num(p99)),
            ]),
        ),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_zne.json"), doc.to_json_pretty())
        .expect("write results/BENCH_zne.json");

    assert!(
        zne_err < raw_err,
        "ZNE must beat the raw noisy expectation error on the §4.2 block: \
         zne {zne_err:.6} vs raw {raw_err:.6}"
    );
    assert!(
        combined_err < raw_err,
        "combined mitigation must beat the raw noisy expectation error: \
         combined {combined_err:.6} vs raw {raw_err:.6}"
    );
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
