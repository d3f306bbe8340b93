//! Error-gate insertion (the paper's noise-injection mechanism, §3.2).
//!
//! For each gate of a (basis-compiled) circuit, a Pauli error gate is
//! sampled from the device's error distribution `E` — scaled by the noise
//! factor `T` — and inserted *after* the gate; two-qubit gates may receive
//! error gates on one or both of their qubits. A fresh set of error gates is
//! sampled for every training step.

use crate::device::DeviceModel;
use crate::error_spec::PauliError;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use rand::Rng;

/// Statistics of one injection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionStats {
    /// Gates in the original circuit.
    pub original_gates: usize,
    /// Pauli error gates inserted.
    pub inserted_gates: usize,
}

impl InjectionStats {
    /// Fractional circuit-size overhead of the insertion (paper reports
    /// typically < 2%).
    pub fn overhead(&self) -> f64 {
        if self.original_gates == 0 {
            0.0
        } else {
            self.inserted_gates as f64 / self.original_gates as f64
        }
    }
}

fn error_gate(e: PauliError, q: usize) -> Option<Gate> {
    match e {
        PauliError::None => None,
        PauliError::X => Some(Gate::x(q)),
        PauliError::Y => Some(Gate::y(q)),
        PauliError::Z => Some(Gate::z(q)),
    }
}

/// The Pauli error gates sampled for one circuit: `(gate index, error
/// gate)` pairs in circuit order, each error gate applied right after the
/// gate at its index. Sampling reads only gate kinds and qubits, so a plan
/// drawn on a symbolic template applies to every binding of it.
#[derive(Debug, Clone, Default)]
pub struct ErrorPlan {
    entries: Vec<(usize, Gate)>,
}

impl ErrorPlan {
    /// Number of error gates in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no error gate was drawn.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(gate index, error gate)` pairs, in circuit order.
    pub fn entries(&self) -> &[(usize, Gate)] {
        &self.entries
    }
}

/// Samples Pauli error gates for `circuit` from `model`, error
/// probabilities scaled by `noise_factor`: one draw per error event of
/// every gate, in circuit order.
pub fn sample_error_plan<R: Rng>(
    circuit: &Circuit,
    model: &DeviceModel,
    noise_factor: f64,
    rng: &mut R,
) -> ErrorPlan {
    let mut entries = Vec::new();
    for (i, g) in circuit.gates().iter().enumerate() {
        for (q, spec) in model.gate_errors(g) {
            if let Some(eg) = error_gate(spec.scaled(noise_factor).sample(rng), q) {
                entries.push((i, eg));
            }
        }
    }
    ErrorPlan { entries }
}

/// Returns `circuit` with the plan's error gates inserted after their
/// gates.
///
/// # Panics
///
/// Panics if the plan addresses a gate index past the end of `circuit`.
pub fn splice(circuit: &Circuit, plan: &ErrorPlan) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    out.gates_mut().reserve(circuit.len() + plan.len());
    let mut pending = plan.entries.iter().peekable();
    for (i, g) in circuit.gates().iter().enumerate() {
        out.push(*g);
        while let Some((_, eg)) = pending.next_if(|(at, _)| *at == i) {
            out.push(*eg);
        }
    }
    assert!(
        pending.next().is_none(),
        "error plan addresses a gate past the circuit's end"
    );
    out
}

/// Samples Pauli error gates for `circuit` from `model` (error probabilities
/// scaled by `noise_factor`) and returns the noise-injected circuit together
/// with insertion statistics: [`sample_error_plan`] then [`splice`].
///
/// # Examples
///
/// ```
/// use qnat_noise::{presets, inject::insert_error_gates};
/// use qnat_sim::{circuit::Circuit, gate::Gate};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::sx(0));
/// c.push(Gate::cx(0, 1));
/// let model = presets::yorktown();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let (noisy, stats) = insert_error_gates(&c, &model, 1.0, &mut rng);
/// assert!(noisy.len() >= c.len());
/// assert!(stats.inserted_gates <= 3); // at most one error per gate qubit
/// ```
pub fn insert_error_gates<R: Rng>(
    circuit: &Circuit,
    model: &DeviceModel,
    noise_factor: f64,
    rng: &mut R,
) -> (Circuit, InjectionStats) {
    let plan = sample_error_plan(circuit, model, noise_factor, rng);
    let stats = InjectionStats {
        original_gates: circuit.len(),
        inserted_gates: plan.len(),
    };
    (splice(circuit, &plan), stats)
}

/// Expected insertion overhead of a circuit under a model (analytic, no
/// sampling): the mean number of error gates per original gate.
pub fn expected_overhead(circuit: &Circuit, model: &DeviceModel, noise_factor: f64) -> f64 {
    if circuit.is_empty() {
        return 0.0;
    }
    let expected: f64 = circuit
        .gates()
        .iter()
        .flat_map(|g| model.gate_errors(g))
        .map(|(_, spec)| spec.scaled(noise_factor).total())
        .sum();
    expected / circuit.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::sx(q));
            c.push(Gate::rz(q, 0.3));
            c.push(Gate::x(q));
        }
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c
    }

    #[test]
    fn zero_noise_factor_inserts_nothing() {
        let c = sample_circuit();
        let model = presets::yorktown();
        let mut rng = StdRng::seed_from_u64(1);
        let (noisy, stats) = insert_error_gates(&c, &model, 0.0, &mut rng);
        assert_eq!(noisy.len(), c.len());
        assert_eq!(stats.inserted_gates, 0);
    }

    #[test]
    #[should_panic(expected = "past the circuit's end")]
    fn splice_rejects_a_plan_for_a_longer_circuit() {
        let c = sample_circuit();
        let mut rng = StdRng::seed_from_u64(4);
        // Every error probability saturates, so the last gate gets one.
        let plan = sample_error_plan(&c, &presets::yorktown(), 1e6, &mut rng);
        let mut shorter = Circuit::new(c.n_qubits());
        shorter.push(c.gates()[0]);
        splice(&shorter, &plan);
    }

    #[test]
    fn insertion_rate_tracks_expectation() {
        let c = sample_circuit();
        let model = presets::yorktown();
        let expect = expected_overhead(&c, &model, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let mut total = 0usize;
        for _ in 0..trials {
            let (_, stats) = insert_error_gates(&c, &model, 1.0, &mut rng);
            total += stats.inserted_gates;
        }
        let measured = total as f64 / (trials * c.len()) as f64;
        assert!(
            (measured - expect).abs() < 0.2 * expect + 1e-4,
            "measured {measured} vs expected {expect}"
        );
    }

    #[test]
    fn overhead_is_small_for_realistic_models() {
        // Paper: insertion overhead typically < 2%.
        let c = sample_circuit();
        for model in presets::all_devices() {
            let o = expected_overhead(&c, &model, 1.0);
            assert!(o < 0.05, "{}: overhead {o}", model.name());
        }
    }

    #[test]
    fn noise_factor_scales_overhead_linearly() {
        let c = sample_circuit();
        let model = presets::belem();
        let o1 = expected_overhead(&c, &model, 0.5);
        let o2 = expected_overhead(&c, &model, 1.5);
        assert!((o2 / o1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn original_gate_order_preserved() {
        let c = sample_circuit();
        let model = presets::melbourne();
        let mut rng = StdRng::seed_from_u64(3);
        let (noisy, _) = insert_error_gates(&c, &model, 1.5, &mut rng);
        // The subsequence of non-Pauli-error gates equals the original.
        let mut orig_iter = c.gates().iter();
        let mut matched = 0;
        for g in noisy.gates() {
            if let Some(o) = orig_iter.clone().next() {
                if g == o {
                    orig_iter.next();
                    matched += 1;
                }
            }
        }
        assert_eq!(matched, c.len());
    }
}
