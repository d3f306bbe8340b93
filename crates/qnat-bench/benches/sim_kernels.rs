//! Criterion benches for the simulator kernels: statevector gate
//! application, the raw `apply_mat2`/`apply_mat4` kernels per register
//! size (with ns per amplitude-op), density-matrix channel application,
//! the served emulator run, the trajectory emulator and shot sampling.
//!
//! `density_channel` (a Pauli channel, amplitude damping and phase
//! damping on 2, 4 and 6 qubits) and `hardware_emulator` (one exact run
//! of the §4.2 block on Santiago, the job `serve` sends) are timed in
//! process and written, µs per run and ns per amplitude-op with the
//! commit and configuration, to `results/BENCH_sim.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qnat_bench::block_circuit;
use qnat_json::Json;
use qnat_noise::{presets, DeviceModel, HardwareEmulator};
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::Circuit;
use qnat_sim::density::DensityMatrix;
use qnat_sim::gate::Gate;
use qnat_sim::measure::sampled_expect_all_z;
use qnat_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn random_circuit(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for d in 0..depth {
        for q in 0..n {
            c.push(Gate::u3(
                q,
                0.3 + 0.1 * d as f64,
                -0.2 + 0.05 * q as f64,
                0.7,
            ));
        }
        for q in 0..n.saturating_sub(1) {
            c.push(Gate::cx(q, q + 1));
        }
    }
    c
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_run");
    for &n in &[4usize, 8, 12] {
        let circuit = random_circuit(n, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut psi = StateVector::zero_state(n);
                psi.run(&circuit);
                psi.expect_all_z()
            })
        });
    }
    group.finish();
}

/// Raw kernel microbench: one U3 (Mat2 path) and one CU3 (Mat4 path)
/// swept across register sizes, isolating the branch-free strided
/// kernels from circuit overhead. `mat2/n` targets qubit n/2 and
/// `mat4/n` qubits (0, n−1); n = 4 is one training row. `mat2_low/10`
/// (qubit 0) and `mat4_low/10` (qubits (0, 1)) take the small-block
/// loops over 1024 amplitudes, the 64 rows × 16 amplitudes of a training
/// batch. Each case also reports ns per amplitude-op: the time per
/// amplitude the gate updates, all 2ⁿ of them. Kernel codegen is
/// layout-sensitive, so compare these against the parent after any
/// `qnat-sim` edit.
fn bench_gate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_kernels");
    let cases = [4usize, 8, 12, 16]
        .into_iter()
        .flat_map(|n| {
            [
                ("mat2", n, Gate::u3(n / 2, 0.3, -0.2, 0.7)),
                ("mat4", n, Gate::cu3(0, n - 1, 0.3, -0.2, 0.7)),
            ]
        })
        .chain([
            ("mat2_low", 10, Gate::u3(0, 0.3, -0.2, 0.7)),
            ("mat4_low", 10, Gate::cu3(0, 1, 0.3, -0.2, 0.7)),
        ]);
    for (name, n, gate) in cases {
        let mut circuit = Circuit::new(n);
        circuit.push(gate);
        group.throughput(Throughput::Elements(1 << n));
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            let mut psi = StateVector::zero_state(n);
            b.iter(|| psi.run(&circuit))
        });
    }
    group.finish();
}

/// Median time per call of `f` over `passes` passes of `calls` calls.
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

/// One timed case of `results/BENCH_sim.json`: µs per run and ns per
/// amplitude-op (`amp_ops` amplitudes touched per run).
fn cost(id: &str, t: Duration, amp_ops: f64) -> (String, Json) {
    let us = t.as_secs_f64() * 1e6;
    let ns = t.as_secs_f64() * 1e9 / amp_ops;
    println!("{id:50} {us:>12.3} us/run {ns:>10.3} ns/amp-op");
    (
        id.to_string(),
        Json::obj([
            ("us_per_run", Json::Num(us)),
            ("ns_per_amp_op", Json::Num(ns)),
        ]),
    )
}

/// One channel on qubit 0 of an n-qubit ρ after a Hadamard: a Pauli
/// channel, amplitude damping and phase damping, at device-like rates.
/// A channel rewrites all 4ⁿ amplitudes of vec(ρ) once: one
/// amplitude-op each.
fn density_channel_costs(c: &Criterion) -> Vec<(String, Json)> {
    let channels = [
        ("pauli", Channel1::pauli(0.001, 0.002, 0.003)),
        ("amplitude_damping", Channel1::amplitude_damping(0.002)),
        ("phase_damping", Channel1::phase_damping(0.003)),
    ];
    let mut out = Vec::new();
    for (name, ch) in channels {
        let ch = ch.expect("valid channel");
        for n in [2usize, 4, 6] {
            let id = format!("density_channel/{name}/{n}");
            if !c.selects(&id) {
                continue;
            }
            let mut rho = DensityMatrix::zero_state(n);
            rho.apply_gate(&Gate::h(0));
            let mut scratch = Vec::new();
            let t = time_per_call(
                || {
                    rho.apply_channel1_with(0, &ch, &mut scratch);
                    black_box(rho.trace());
                },
                2000,
                7,
            );
            out.push(cost(&id, t, 4f64.powi(n as i32)));
        }
    }
    out
}

/// Gates plus noise channels one emulator run of `circuit` applies on
/// `model`, each over all 4ⁿ amplitudes of vec(ρ).
fn emulator_amp_ops(circuit: &Circuit, model: &DeviceModel) -> f64 {
    let ops: usize = circuit
        .gates()
        .iter()
        .map(|g| {
            let pauli = model
                .gate_errors(g)
                .iter()
                .filter(|(_, spec)| spec.total() > 0.0)
                .count();
            let damping: usize = g.qubits[..g.arity()]
                .iter()
                .map(|&q| {
                    usize::from(model.amp_damping(q) > 0.0)
                        + usize::from(model.phase_damping(q) > 0.0)
                })
                .sum();
            1 + pauli + damping
        })
        .sum();
    ops as f64 * 4f64.powi(circuit.n_qubits() as i32)
}

/// The served job: one exact emulator run of the §4.2 block on Santiago,
/// readout included.
fn hardware_emulator_costs(c: &Criterion) -> Vec<(String, Json)> {
    let id = "hardware_emulator/santiago_block";
    if !c.selects(id) {
        return Vec::new();
    }
    let circuit = block_circuit();
    let model = presets::santiago();
    let emu = HardwareEmulator::new(model.clone());
    let t = time_per_call(
        || {
            black_box(emu.expect_all_z(&circuit).expect("emulation succeeds"));
        },
        200,
        7,
    );
    vec![cost(id, t, emulator_amp_ops(&circuit, &model))]
}

/// The checkout's commit, when it is a git repository.
fn commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model, when `/proc/cpuinfo` names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Times the density-matrix channels and the served emulator run, and
/// writes them to `results/BENCH_sim.json` when every case ran (no name
/// filter, or one all of them match).
fn bench_emulator_costs(c: &mut Criterion) {
    let mut cases = density_channel_costs(c);
    cases.extend(hardware_emulator_costs(c));
    // Three channels on three register sizes, and the emulator run.
    if cases.len() < 10 {
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = Json::obj([
        ("bench", Json::Str("sim_kernels".into())),
        ("commit", Json::Str(commit(&root))),
        (
            "config",
            Json::obj([
                ("cpu", Json::Str(cpu_model())),
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                (
                    "density_channel",
                    Json::Str(
                        "one channel on qubit 0 of an n-qubit rho after H(0), \
                         pauli(0.001, 0.002, 0.003), amplitude damping 0.002, \
                         phase damping 0.003; median of 7 passes of 2000 calls"
                            .into(),
                    ),
                ),
                (
                    "hardware_emulator",
                    Json::Str(
                        "expect_all_z of the 146-gate section 4.2 block (4 qubits) on \
                         santiago, readout included; median of 7 passes of 200 runs"
                            .into(),
                    ),
                ),
                (
                    "amp_op",
                    Json::Str(
                        "one gate or one noise channel over all 4^n amplitudes of vec(rho)".into(),
                    ),
                ),
            ]),
        ),
        ("cases", Json::Obj(cases.into_iter().collect())),
    ]);
    let results = root.join("results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_sim.json"), doc.to_json_pretty())
        .expect("write results/BENCH_sim.json");
}

fn bench_trajectory_emulator(c: &mut Criterion) {
    let circuit = random_circuit(4, 2);
    let traj = qnat_noise::TrajectoryEmulator::new(presets::yorktown(), 16)
        .expect("trajectory emulator builds");
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("trajectory_emulator_4q_2layers_16traj", |b| {
        b.iter(|| {
            traj.expect_all_z(&circuit, &mut rng)
                .expect("emulation succeeds")
        })
    });
}

fn bench_sampling(c: &mut Criterion) {
    let circuit = random_circuit(4, 2);
    let mut psi = StateVector::zero_state(4);
    psi.run(&circuit);
    let probs = psi.probabilities();
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("shot_sampling_8192", |b| {
        b.iter(|| sampled_expect_all_z(&probs, 4, 8192, &mut rng))
    });
}

criterion_group!(
    benches,
    bench_statevector,
    bench_gate_kernels,
    bench_emulator_costs,
    bench_trajectory_emulator,
    bench_sampling
);
criterion_main!(benches);
