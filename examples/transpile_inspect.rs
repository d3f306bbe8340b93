//! Transpiler tour: lower a QNN block to the IBMQ basis, route it onto a
//! real coupling map, compare optimization levels, and sample error-gate
//! insertion — everything that happens to a circuit before it "runs on
//! hardware".
//!
//! ```sh
//! cargo run --release --example transpile_inspect
//! ```

use quantumnat::compiler::transpile::{transpile, TranspileOptions};
use quantumnat::compiler::unitary::equiv_up_to_phase;
use quantumnat::noise::inject::{expected_overhead, insert_error_gates};
use quantumnat::noise::presets;
use quantumnat::sim::circuit::Circuit;
use quantumnat::sim::gate::Gate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A QuantumNAT block: RY encoder + one U3 layer + one CU3 ring.
    let mut block = Circuit::new(4);
    for q in 0..4 {
        block.push(Gate::ry(q, 0.3 + 0.2 * q as f64));
    }
    for q in 0..4 {
        block.push(Gate::u3(q, 0.5, -0.2, 0.8));
    }
    for q in 0..4 {
        block.push(Gate::cu3(q, (q + 1) % 4, 0.4, 0.1, -0.3));
    }
    println!(
        "logical block: {} gates, depth {}, {} two-qubit",
        block.len(),
        block.depth(),
        block.count_two_qubit()
    );

    let device = presets::santiago();
    println!("\ntarget: {device}");
    println!("coupling map: {:?}", device.coupling());

    for level in 0..=3u8 {
        let t = transpile(&block, &device, TranspileOptions::level(level)).expect("transpiles");
        println!(
            "opt level {level}: {} basis gates, depth {}, {} CX, window {:?}, layout {:?}",
            t.circuit.len(),
            t.circuit.depth(),
            t.circuit.count_kind(quantumnat::sim::GateKind::Cx),
            t.window,
            t.layout
        );
    }

    // The lowering is exact (up to global phase) — verify level 2.
    let t2 = transpile(&block, &device, TranspileOptions::level(2)).expect("transpiles");
    // Re-embed the logical circuit into the window register for comparison.
    let mut reference = Circuit::new(t2.circuit.n_qubits());
    for g in block.gates() {
        let mut wg = *g;
        for k in 0..g.arity() {
            wg.qubits[k] = t2.layout[g.qubits[k]];
        }
        reference.push(wg);
    }
    // Equivalence only holds when routing did not permute qubits mid-way;
    // check the cheap invariant instead when it did.
    if t2.layout == (0..4).collect::<Vec<_>>() {
        println!(
            "unitary equivalence vs logical: {}",
            equiv_up_to_phase(&reference, &t2.circuit, 1e-8)
        );
    }

    // Error-gate insertion on the compiled circuit.
    let noisy_dev = presets::yorktown();
    let t = transpile(&block, &noisy_dev, TranspileOptions::level(2)).expect("transpiles");
    let mut rng = StdRng::seed_from_u64(0);
    println!(
        "\nexpected insertion overhead on {}: {:.2}%",
        noisy_dev.name(),
        expected_overhead(&t.circuit, &t.device_view, 1.0) * 100.0
    );
    let (injected, stats) = insert_error_gates(&t.circuit, &t.device_view, 1.0, &mut rng);
    println!(
        "one sampled injection: {} → {} gates ({} error gates inserted)",
        t.circuit.len(),
        injected.len(),
        stats.inserted_gates
    );
}
