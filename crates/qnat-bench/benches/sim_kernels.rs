//! Criterion benches for the simulator kernels: statevector gate
//! application, the raw `apply_mat2`/`apply_mat4` kernels per register
//! size (with ns per amplitude-op), density-matrix channel application
//! and shot sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qnat_noise::presets;
use qnat_sim::channel::Channel1;
use qnat_sim::circuit::Circuit;
use qnat_sim::density::DensityMatrix;
use qnat_sim::gate::Gate;
use qnat_sim::measure::sampled_expect_all_z;
use qnat_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_channel");
    for &n in &[2usize, 4, 6] {
        let ch = Channel1::depolarizing(0.01).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rho = DensityMatrix::zero_state(n);
            rho.apply_gate(&Gate::h(0));
            b.iter(|| {
                rho.apply_channel1(0, &ch);
                rho.trace()
            })
        });
    }
    group.finish();
}

fn bench_hardware_emulator(c: &mut Criterion) {
    let circuit = random_circuit(4, 2);
    let emu = qnat_noise::HardwareEmulator::new(presets::yorktown());
    c.bench_function("hardware_emulator_4q_2layers", |b| {
        b.iter(|| emu.expect_all_z(&circuit).expect("emulation succeeds"))
    });
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
    bench_density,
    bench_hardware_emulator,
    bench_sampling
);
criterion_main!(benches);
