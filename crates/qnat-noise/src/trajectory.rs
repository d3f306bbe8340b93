//! Monte-Carlo trajectory hardware emulator.
//!
//! Exact density-matrix emulation scales as 4ⁿ and is impractical beyond
//! ~7 qubits; the 10-qubit Melbourne experiments instead use quantum
//! trajectories: each run samples one Kraus outcome per channel on a
//! statevector (2ⁿ), and averaging over trajectories converges to the
//! density-matrix result. The noise placement is identical to
//! [`crate::emulator::HardwareEmulator`]: Pauli gate-error channels plus
//! amplitude/phase damping after every physical gate, each channel looked
//! up in the same per-device table, built with the emulator; readout
//! confusion at measurement. Like the density-matrix emulator, every entry
//! point returns typed [`BackendError`]s instead of panicking.

use crate::backend::BackendError;
use crate::device::DeviceModel;
use crate::emulator::NoiseTable;
use qnat_sim::circuit::Circuit;
use qnat_sim::statevector::StateVector;
use rand::Rng;

/// A trajectory-sampling emulator bound to a device model.
#[derive(Debug, Clone)]
pub struct TrajectoryEmulator {
    model: DeviceModel,
    noise: NoiseTable,
    /// Trajectories averaged per evaluation.
    pub n_trajectories: usize,
}

impl TrajectoryEmulator {
    /// Creates an emulator averaging `n_trajectories` runs.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidConfig`] if `n_trajectories == 0`.
    pub fn new(model: DeviceModel, n_trajectories: usize) -> Result<Self, BackendError> {
        if n_trajectories == 0 {
            return Err(BackendError::InvalidConfig {
                reason: "need at least one trajectory".into(),
            });
        }
        Ok(TrajectoryEmulator {
            noise: NoiseTable::new(&model),
            model,
            n_trajectories,
        })
    }

    /// The underlying device model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn check_size(&self, circuit: &Circuit) -> Result<(), BackendError> {
        if circuit.n_qubits() > self.model.n_qubits() {
            return Err(BackendError::QubitCount {
                needed: circuit.n_qubits(),
                available: self.model.n_qubits(),
                backend: self.model.name().to_string(),
            });
        }
        Ok(())
    }

    /// Runs one noisy trajectory and returns the final pure state.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QubitCount`] or
    /// [`BackendError::InvalidChannel`].
    pub fn run_one<R: Rng>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<StateVector, BackendError> {
        self.check_size(circuit)?;
        let mut psi = StateVector::zero_state(circuit.n_qubits());
        for g in circuit.gates() {
            psi.apply(g);
            self.noise
                .after(g, |q, ch| psi.apply_channel1_sampled(q, ch, rng))?;
        }
        Ok(psi)
    }

    /// Noisy Z expectations averaged over trajectories, readout error
    /// included.
    ///
    /// # Errors
    ///
    /// Propagates [`TrajectoryEmulator::run_one`] errors.
    pub fn expect_all_z<R: Rng>(
        &self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        let n = circuit.n_qubits();
        let mut acc = vec![0.0f64; n];
        for _ in 0..self.n_trajectories {
            let psi = self.run_one(circuit, rng)?;
            for (q, a) in acc.iter_mut().enumerate() {
                let z = psi.expect_z(q);
                *a += self.model.readout_error(q).apply_to_expectation(z);
            }
        }
        Ok(acc
            .into_iter()
            .map(|a| a / self.n_trajectories as f64)
            .collect())
    }

    /// Shot-sampled noisy Z expectations: shots are distributed over the
    /// trajectories.
    ///
    /// # Errors
    ///
    /// Propagates [`TrajectoryEmulator::run_one`] errors; returns
    /// [`BackendError::ShotBudget`] for `shots == 0`.
    pub fn sampled_expect_all_z<R: Rng>(
        &self,
        circuit: &Circuit,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, BackendError> {
        if shots == 0 {
            return Err(BackendError::ShotBudget { requested: 0 });
        }
        let n = circuit.n_qubits();
        let per_traj = (shots / self.n_trajectories).max(1);
        let mut acc = vec![0.0f64; n];
        let mut total = 0usize;
        for _ in 0..self.n_trajectories {
            let psi = self.run_one(circuit, rng)?;
            let mut probs = psi.probabilities();
            for q in 0..n {
                self.model
                    .readout_error(q)
                    .apply_to_distribution(&mut probs, q);
            }
            let z = qnat_sim::measure::sampled_expect_all_z(&probs, n, per_traj, rng);
            for (a, v) in acc.iter_mut().zip(&z) {
                *a += v * per_traj as f64;
            }
            total += per_traj;
        }
        Ok(acc.into_iter().map(|a| a / total as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::HardwareEmulator;
    use crate::presets;
    use qnat_sim::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.8));
        c.push(Gate::sx(1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::x(0));
        c
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        let c = test_circuit();
        let model = presets::yorktown().scaled(10.0); // exaggerate noise
        let exact = HardwareEmulator::new(model.clone())
            .expect_all_z(&c)
            .unwrap();
        let traj = TrajectoryEmulator::new(model, 4000).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let approx = traj.expect_all_z(&c, &mut rng).unwrap();
        for q in 0..2 {
            assert!(
                (approx[q] - exact[q]).abs() < 0.05,
                "q{q}: trajectory {} vs exact {}",
                approx[q],
                exact[q]
            );
        }
    }

    #[test]
    fn noise_free_trajectory_is_deterministic() {
        let c = test_circuit();
        let traj = TrajectoryEmulator::new(presets::noise_free(2), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let z = traj.expect_all_z(&c, &mut rng).unwrap();
        let psi = qnat_sim::statevector::simulate(&c);
        for q in 0..2 {
            assert!((z[q] - psi.expect_z(q)).abs() < 1e-10);
        }
    }

    #[test]
    fn shot_sampling_close_to_exact() {
        let c = test_circuit();
        let model = presets::santiago();
        let traj = TrajectoryEmulator::new(model, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let exact = traj.expect_all_z(&c, &mut rng).unwrap();
        let sampled = traj.sampled_expect_all_z(&c, 64 * 2048, &mut rng).unwrap();
        for q in 0..2 {
            // Both estimators carry trajectory variance (σ ≈ 0.01); allow
            // a generous 6σ band to keep the test deterministic-in-practice.
            assert!(
                (exact[q] - sampled[q]).abs() < 0.08,
                "q{q}: {} vs {}",
                exact[q],
                sampled[q]
            );
        }
    }

    #[test]
    fn zero_trajectories_is_typed_error() {
        let err = TrajectoryEmulator::new(presets::santiago(), 0).unwrap_err();
        assert!(matches!(err, BackendError::InvalidConfig { .. }));
    }

    #[test]
    fn oversized_circuit_is_typed_error() {
        let traj = TrajectoryEmulator::new(presets::santiago(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = traj.expect_all_z(&Circuit::new(9), &mut rng).unwrap_err();
        assert!(matches!(err, BackendError::QubitCount { needed: 9, .. }));
    }
}
