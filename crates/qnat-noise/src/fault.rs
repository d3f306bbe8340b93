//! Fault injection for deployment-pipeline robustness testing.
//!
//! [`FaultyBackend`] decorates any [`QuantumBackend`] with the failure
//! modes real cloud QPUs exhibit: transient job rejections, queue
//! timeouts, shot-budget truncation, and calibration drift (readout and
//! gate error rates wandering away from the calibration point as jobs
//! accumulate). Faults are *seed-deterministic per job index*: whether
//! job `k` fails depends only on `(spec.seed, k)`, never on how many
//! retries earlier jobs needed, so fault sweeps and regression tests are
//! exactly reproducible.
//!
//! Drift follows one of three [`DriftModel`]s — the linear creep of the
//! original fault layer, a seed-deterministic random walk around the
//! calibration point, or sessionized drift that snaps back at every
//! recalibration — all clamped into physical `[0, 1]` error rates by the
//! device model downstream.

use crate::backend::{BackendError, Measurements, QuantumBackend};
use crate::seed::derive;
use qnat_sim::circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the calibration-drift scales evolve with the job index.
///
/// All three models are pure functions of `(spec.seed, job)` — a backend
/// replaying the same job range sees bitwise the same drift trajectory —
/// and all produce non-negative scales that the device model clamps into
/// valid `[0, 1]` error probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftModel {
    /// Monotone creep: job `k` runs at scale `1 + k·rate` (the original
    /// model — error grows without bound until the clamp saturates).
    Linear,
    /// Random walk around the calibration point: job `k` runs at scale
    /// `1 + rate·W_k` where `W_k` sums `k` seed-deterministic steps drawn
    /// uniformly from `[−1, 1]`. Models parameter wander between
    /// calibrations more faithfully than monotone creep: error can
    /// improve as well as degrade, and the excursion grows like `√k`.
    RandomWalk,
    /// Sessionized drift: error creeps linearly *within* a calibration
    /// session of `interval` jobs, then snaps back at the recalibration
    /// boundary. Each session also carries a seed-deterministic baseline
    /// offset (a calibration is only as good as its fit), so consecutive
    /// sessions start from slightly different error floors — the pattern
    /// IBMQ devices show across daily calibration cycles.
    StepRecalibration {
        /// Jobs per calibration session (clamped to ≥ 1).
        interval: u64,
    },
}

/// Configurable fault rates and drift slopes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a job fails transiently (retry may succeed).
    pub transient_failure_rate: f64,
    /// Probability a job times out in the queue (retry may succeed).
    pub timeout_rate: f64,
    /// Probability a finite-shot job comes back with a truncated budget.
    pub shot_truncation_rate: f64,
    /// Fraction of the requested shots delivered when truncated.
    pub shot_truncation_factor: f64,
    /// Readout drift rate: how fast the readout error scale moves per job
    /// index, interpreted by [`FaultSpec::drift`] (slope for
    /// [`DriftModel::Linear`] and [`DriftModel::StepRecalibration`], step
    /// amplitude for [`DriftModel::RandomWalk`]). Drifted error
    /// probabilities are clamped into `[0, 1]` by the device model, so
    /// arbitrarily long runs saturate instead of producing invalid
    /// channels.
    pub readout_drift_per_job: f64,
    /// Gate drift rate (same interpretation and clamping).
    pub gate_drift_per_job: f64,
    /// Couples the *transient-failure* rate to the drift trajectory: at
    /// drift scale `s = max(gate, readout)`, the effective transient rate
    /// becomes `rate · (1 + coupling·(s − 1))`, clamped to `[0, 1]`. This
    /// models hardware whose readiness checks flake more as calibration
    /// decays — the observable signal a calibration tracker learns drift
    /// from. `0.0` (the default) keeps the legacy fixed rate, bitwise:
    /// the fault roll consumes the same RNG draw either way.
    pub failure_drift_coupling: f64,
    /// Trajectory the drift scales follow over the job index.
    pub drift: DriftModel,
    /// Seed of the per-job fault schedule.
    pub seed: u64,
    /// Seed of the drift trajectory, separate from the fault-roll `seed`:
    /// a batch pool decorrelates fault rolls by perturbing `seed` per job
    /// while leaving `drift_seed` alone, so every per-job backend samples
    /// the *same* fleet-wide calibration trajectory (positioned via
    /// [`FaultyBackend::starting_at`]). Constructors default it to `seed`.
    pub drift_seed: u64,
}

impl FaultSpec {
    /// A fault-free specification (the decorator becomes transparent).
    pub fn none() -> FaultSpec {
        FaultSpec {
            transient_failure_rate: 0.0,
            timeout_rate: 0.0,
            shot_truncation_rate: 0.0,
            shot_truncation_factor: 0.25,
            readout_drift_per_job: 0.0,
            gate_drift_per_job: 0.0,
            failure_drift_coupling: 0.0,
            drift: DriftModel::Linear,
            seed: 0,
            drift_seed: 0,
        }
    }

    /// Only transient failures, at the given rate.
    pub fn transient(rate: f64, seed: u64) -> FaultSpec {
        FaultSpec {
            transient_failure_rate: rate,
            seed,
            drift_seed: seed,
            ..FaultSpec::none()
        }
    }

    /// `true` when any drift slope is non-zero.
    pub fn has_drift(&self) -> bool {
        self.readout_drift_per_job != 0.0 || self.gate_drift_per_job != 0.0
    }

    /// The effective transient-failure rate at drift scales
    /// `(gate, readout)` — the [`failure_drift_coupling`] law a
    /// [`FaultyBackend`] applies, exposed pure so calibration baselines
    /// and benches can compute the ground truth a tracker is chasing.
    ///
    /// [`failure_drift_coupling`]: FaultSpec::failure_drift_coupling
    pub fn effective_transient_rate(&self, gate_scale: f64, readout_scale: f64) -> f64 {
        let mut rate = self.transient_failure_rate;
        if self.has_drift() && self.failure_drift_coupling != 0.0 {
            let s = gate_scale.max(readout_scale);
            rate *= 1.0 + self.failure_drift_coupling * (s - 1.0);
        }
        rate.clamp(0.0, 1.0)
    }
}

/// A 53-bit uniform draw in `[0, 1)` from `(seed, salt, index)` — the
/// deterministic source behind drift trajectories.
fn unit_draw(seed: u64, salt: u64, index: u64) -> f64 {
    let h = derive(seed ^ salt, index);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const WALK_GATE_SALT: u64 = 0xd21f_7a7e_ca11_b0a7;
const WALK_READOUT_SALT: u64 = 0x5ead_0077_0dd5_ee1d;
const SESSION_GATE_SALT: u64 = 0xca1b_0b5e_5510_0a7e;
const SESSION_READOUT_SALT: u64 = 0xf1ee_7b0a_7d15_ea5e;

/// One random-walk step in `[−1, 1]` for drift index `job`.
fn walk_step(seed: u64, salt: u64, job: u64) -> f64 {
    2.0 * unit_draw(seed, salt, job) - 1.0
}

/// An incremental evaluator of a [`FaultSpec`]'s drift trajectory: the
/// `(gate, readout)` error-rate scales a device following `spec` exhibits
/// at any drift index, bitwise identical to what a [`FaultyBackend`]
/// walking the same indices applies.
///
/// This is the scoring half of the fault layer, split out so a fleet
/// router can ask "how noisy is this device *right now*?" without
/// executing anything. Evaluation stays pure in `(spec, job)`: the only
/// internal state is the random-walk prefix sum, which is replayed from
/// scratch whenever `job` moves backwards.
#[derive(Debug, Clone)]
pub struct DriftCursor {
    spec: FaultSpec,
    /// Next walk index to accumulate (random-walk model only): the walk
    /// position currently holds Σ steps with index `< next`.
    next: u64,
    walk_gate: f64,
    walk_readout: f64,
}

impl DriftCursor {
    /// A cursor positioned at drift index 0.
    pub fn new(spec: FaultSpec) -> DriftCursor {
        DriftCursor {
            spec,
            next: 0,
            walk_gate: 0.0,
            walk_readout: 0.0,
        }
    }

    /// The underlying fault specification.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// `(gate, readout)` drift scales at drift index `job` — non-negative
    /// and pure in `(spec, job)`. Sequential forward queries advance the
    /// random walk in O(Δjob); a backwards query rewinds by replaying the
    /// walk from index 0, keeping results bitwise independent of the
    /// query order.
    pub fn scales_at(&mut self, job: u64) -> (f64, f64) {
        let gr = self.spec.gate_drift_per_job;
        let rr = self.spec.readout_drift_per_job;
        match self.spec.drift {
            DriftModel::Linear => {
                let k = job as f64;
                ((1.0 + k * gr).max(0.0), (1.0 + k * rr).max(0.0))
            }
            DriftModel::RandomWalk => {
                if job < self.next {
                    self.next = 0;
                    self.walk_gate = 0.0;
                    self.walk_readout = 0.0;
                }
                while self.next < job {
                    self.walk_gate += walk_step(self.spec.drift_seed, WALK_GATE_SALT, self.next);
                    self.walk_readout +=
                        walk_step(self.spec.drift_seed, WALK_READOUT_SALT, self.next);
                    self.next += 1;
                }
                (
                    (1.0 + gr * self.walk_gate).max(0.0),
                    (1.0 + rr * self.walk_readout).max(0.0),
                )
            }
            DriftModel::StepRecalibration { interval } => {
                let interval = interval.max(1);
                let session = job / interval;
                let phase = (job % interval) as f64;
                // Per-session baseline miscalibration: up to half a
                // session of pre-paid drift, redrawn at each
                // recalibration.
                let half = interval as f64 * 0.5;
                let base_g = unit_draw(self.spec.drift_seed, SESSION_GATE_SALT, session) * half;
                let base_r = unit_draw(self.spec.drift_seed, SESSION_READOUT_SALT, session) * half;
                (
                    (1.0 + gr * (phase + base_g)).max(0.0),
                    (1.0 + rr * (phase + base_r)).max(0.0),
                )
            }
        }
    }
}

/// A backend decorator injecting seed-deterministic faults.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    spec: FaultSpec,
    job_index: u64,
    /// Batch-global index of this backend's first job — lets per-job
    /// backends built by a pool continue one fleet-wide drift trajectory.
    drift_offset: u64,
    /// Incremental drift evaluator, kept in step with the executed jobs.
    cursor: DriftCursor,
}

impl<B: QuantumBackend> FaultyBackend<B> {
    /// Wraps `inner` with the fault schedule of `spec`.
    pub fn new(inner: B, spec: FaultSpec) -> Self {
        FaultyBackend {
            inner,
            spec,
            job_index: 0,
            drift_offset: 0,
            cursor: DriftCursor::new(spec),
        }
    }

    /// Like [`FaultyBackend::new`], but with the drift trajectory
    /// fast-forwarded to position `first_job`: the backend's first job
    /// runs at the drift scale job `first_job` of a fresh backend would
    /// see. Fault *rolls* still follow the local job index — this only
    /// positions drift, so a batch pool can give every per-job backend
    /// its slice of one fleet-wide calibration trajectory.
    pub fn starting_at(inner: B, spec: FaultSpec, first_job: u64) -> Self {
        let mut b = FaultyBackend::new(inner, spec);
        b.drift_offset = first_job;
        b
    }

    /// Number of jobs submitted so far (attempts count: every `execute`
    /// call is one job).
    pub fn jobs_submitted(&self) -> u64 {
        self.job_index
    }

    /// The fault specification.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Read access to the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The RNG deciding job `k`'s faults — a pure function of
    /// `(spec.seed, k)`.
    fn fault_rng(&self, job: u64) -> StdRng {
        StdRng::seed_from_u64(derive(self.spec.seed, job))
    }
}

impl<B: QuantumBackend> QuantumBackend for FaultyBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        self.inner.validate(circuit)
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        let job = self.job_index;
        self.job_index += 1;
        let mut rng = self.fault_rng(job);
        let mut transient_rate = self.spec.transient_failure_rate;
        if self.spec.has_drift() {
            let drift_job = self.drift_offset + job;
            let (gate_scale, readout_scale) = self.cursor.scales_at(drift_job);
            self.inner.apply_drift(gate_scale, readout_scale);
            if self.spec.failure_drift_coupling != 0.0 {
                let s = gate_scale.max(readout_scale);
                transient_rate *= 1.0 + self.spec.failure_drift_coupling * (s - 1.0);
            }
        }
        // Fault rolls happen in a fixed order so the schedule is stable
        // under spec-rate changes of later faults.
        if rng.gen_bool(transient_rate.clamp(0.0, 1.0)) {
            return Err(BackendError::TransientFailure {
                job,
                reason: "injected transient fault".into(),
            });
        }
        if rng.gen_bool(self.spec.timeout_rate.clamp(0.0, 1.0)) {
            return Err(BackendError::QueueTimeout {
                job,
                waited_ms: rng.gen_range(10_000..120_000),
            });
        }
        let effective_shots = match shots {
            Some(s) if rng.gen_bool(self.spec.shot_truncation_rate.clamp(0.0, 1.0)) => {
                Some(((s as f64 * self.spec.shot_truncation_factor) as usize).max(1))
            }
            other => other,
        };
        self.inner.execute(circuit, effective_shots)
    }

    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        self.inner.apply_drift(gate_scale, readout_scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimulatorBackend;
    use qnat_sim::gate::Gate;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        c
    }

    fn run_schedule(spec: FaultSpec, jobs: usize) -> Vec<bool> {
        let mut b = FaultyBackend::new(SimulatorBackend::new(1), spec);
        (0..jobs)
            .map(|_| b.execute(&bell(), None).is_ok())
            .collect()
    }

    #[test]
    fn fault_free_spec_is_transparent() {
        let mut plain = SimulatorBackend::new(1);
        let mut wrapped = FaultyBackend::new(SimulatorBackend::new(1), FaultSpec::none());
        let a = plain.execute(&bell(), Some(512)).unwrap();
        let b = wrapped.execute(&bell(), Some(512)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let spec = FaultSpec::transient(0.4, 9);
        assert_eq!(run_schedule(spec, 50), run_schedule(spec, 50));
        let other = FaultSpec::transient(0.4, 10);
        assert_ne!(run_schedule(spec, 50), run_schedule(other, 50));
    }

    #[test]
    fn failure_frequency_tracks_rate() {
        let ok = run_schedule(FaultSpec::transient(0.3, 5), 1000);
        let failures = ok.iter().filter(|&&x| !x).count();
        assert!((200..400).contains(&failures), "{failures} failures");
    }

    #[test]
    fn injected_faults_are_retryable() {
        let mut b = FaultyBackend::new(
            SimulatorBackend::new(1),
            FaultSpec {
                timeout_rate: 1.0,
                ..FaultSpec::none()
            },
        );
        let err = b.execute(&bell(), None).unwrap_err();
        assert!(matches!(err, BackendError::QueueTimeout { job: 0, .. }));
        assert!(err.is_retryable());
    }

    #[test]
    fn shot_truncation_reduces_budget() {
        let mut b = FaultyBackend::new(
            SimulatorBackend::new(1),
            FaultSpec {
                shot_truncation_rate: 1.0,
                shot_truncation_factor: 0.25,
                ..FaultSpec::none()
            },
        );
        let m = b.execute(&bell(), Some(8192)).unwrap();
        assert_eq!(m.shots_used, Some(2048));
        // Exact jobs cannot be truncated.
        let m = b.execute(&bell(), None).unwrap();
        assert_eq!(m.shots_used, None);
    }

    #[test]
    fn validation_errors_pass_through_inner() {
        let mut b = FaultyBackend::new(SimulatorBackend::new(1), FaultSpec::none());
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, f64::INFINITY));
        assert!(matches!(
            b.execute(&c, None).unwrap_err(),
            BackendError::NonFiniteParameter { .. }
        ));
    }

    #[test]
    fn heavy_drift_saturates_instead_of_failing() {
        // Regression: drifted Pauli probabilities used to renormalize to a
        // sum one ulp above 1.0, so long runs (scale ≫ 1) hit non-retryable
        // InvalidChannel errors mid-run. They must clamp into [0, 1] and
        // keep serving physical expectations instead.
        use crate::backend::EmulatorBackend;
        use crate::presets;
        let model = presets::yorktown().subdevice(&[0, 1]).unwrap();
        let mut b = FaultyBackend::new(
            EmulatorBackend::new(&model, 3).unwrap(),
            FaultSpec {
                gate_drift_per_job: 2.0,
                readout_drift_per_job: 2.0,
                seed: 4,
                ..FaultSpec::none()
            },
        );
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        for job in 0..400 {
            let m = b
                .execute(&c, None)
                .unwrap_or_else(|e| panic!("job {job} failed under heavy drift: {e}"));
            assert!(
                m.expectations
                    .iter()
                    .all(|z| z.is_finite() && z.abs() <= 1.0 + 1e-9),
                "job {job} produced unphysical expectations: {:?}",
                m.expectations
            );
        }
        // The drifted model itself stays a valid probability distribution.
        let drifted = model.drifted(1e6, 1e6);
        for q in 0..drifted.n_qubits() {
            let e = drifted.single_qubit_error(q);
            assert!(e.validate().is_ok(), "qubit {q}: {e:?}");
            assert!(e.total() <= 1.0, "qubit {q} total {}", e.total());
        }
    }

    fn drift_spec(drift: DriftModel, rate: f64, seed: u64) -> FaultSpec {
        FaultSpec {
            gate_drift_per_job: rate,
            readout_drift_per_job: rate,
            drift,
            seed,
            drift_seed: seed,
            ..FaultSpec::none()
        }
    }

    /// The `(gate, readout)` drift-scale trajectory a fresh backend walks
    /// through over `jobs` executions.
    fn drift_trajectory(spec: FaultSpec, jobs: u64) -> Vec<(f64, f64)> {
        let mut cursor = DriftCursor::new(spec);
        (0..jobs).map(|j| cursor.scales_at(j)).collect()
    }

    #[test]
    fn random_walk_is_seed_deterministic_varied_and_non_negative() {
        let spec = drift_spec(DriftModel::RandomWalk, 0.4, 17);
        let a = drift_trajectory(spec, 200);
        let b = drift_trajectory(spec, 200);
        assert_eq!(a, b, "same seed → bitwise same walk");
        let other = drift_trajectory(drift_spec(DriftModel::RandomWalk, 0.4, 18), 200);
        assert_ne!(a, other, "different seed → different walk");
        assert!(a.iter().all(|&(g, r)| g >= 0.0 && r >= 0.0));
        // A real walk moves both ways: some scales above 1, some below.
        assert!(
            a.iter().any(|&(g, _)| g > 1.0) && a.iter().any(|&(g, _)| g < 1.0),
            "{a:?}"
        );
    }

    #[test]
    fn step_recalibration_snaps_back_at_session_boundaries() {
        let spec = drift_spec(DriftModel::StepRecalibration { interval: 20 }, 0.1, 3);
        let t = drift_trajectory(spec, 60);
        for session in 0..3u64 {
            let start = (session * 20) as usize;
            // Within a session drift creeps up monotonically...
            for k in start..start + 19 {
                assert!(t[k + 1].0 > t[k].0, "job {k}: {:?} !< {:?}", t[k], t[k + 1]);
            }
        }
        // ...and every recalibration drops the error back near its floor:
        // the session-start scale is below the previous session's peak by
        // more than the baseline spread (half an interval of drift).
        for session in 1..3u64 {
            let boundary = (session * 20) as usize;
            assert!(
                t[boundary].0 < t[boundary - 1].0 - 0.1 * 9.0,
                "session {session} did not recalibrate: {:?} vs {:?}",
                t[boundary],
                t[boundary - 1]
            );
        }
    }

    #[test]
    fn starting_at_continues_the_fleet_trajectory_bitwise() {
        for drift in [
            DriftModel::Linear,
            DriftModel::RandomWalk,
            DriftModel::StepRecalibration { interval: 7 },
        ] {
            let spec = drift_spec(drift, 0.25, 9);
            let full = drift_trajectory(spec, 50);
            // A backend fast-forwarded to job 30 must see bitwise the same
            // scales as jobs 30.. of the fresh backend.
            let mut resumed = FaultyBackend::starting_at(SimulatorBackend::new(1), spec, 30);
            for (k, expected) in full.iter().enumerate().skip(30) {
                let scales = resumed.cursor.scales_at(k as u64);
                assert_eq!(scales, *expected, "{drift:?} job {k}");
            }
        }
    }

    #[test]
    fn cursor_matches_executed_backend_bitwise() {
        // The cursor IS the drift the backend applies: a probe backend
        // recording apply_drift calls must see exactly the cursor's
        // trajectory, for every model.
        #[derive(Debug)]
        struct Probe {
            inner: SimulatorBackend,
            applied: Vec<(f64, f64)>,
        }
        impl QuantumBackend for Probe {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn n_qubits(&self) -> usize {
                self.inner.n_qubits()
            }
            fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
                self.inner.validate(circuit)
            }
            fn execute(
                &mut self,
                circuit: &Circuit,
                shots: Option<usize>,
            ) -> Result<Measurements, BackendError> {
                self.inner.execute(circuit, shots)
            }
            fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
                self.applied.push((gate_scale, readout_scale));
            }
        }
        for drift in [
            DriftModel::Linear,
            DriftModel::RandomWalk,
            DriftModel::StepRecalibration { interval: 5 },
        ] {
            let spec = drift_spec(drift, 0.3, 21);
            let probe = Probe {
                inner: SimulatorBackend::new(1),
                applied: Vec::new(),
            };
            let mut b = FaultyBackend::new(probe, spec);
            for _ in 0..40 {
                let _ = b.execute(&bell(), None);
            }
            assert_eq!(b.inner().applied, drift_trajectory(spec, 40), "{drift:?}");
        }
    }

    #[test]
    fn cursor_rewinds_deterministically_on_backwards_queries() {
        let spec = drift_spec(DriftModel::RandomWalk, 0.4, 17);
        let forward = drift_trajectory(spec, 100);
        let mut cursor = DriftCursor::new(spec);
        // Jump around: ahead, back, ahead again — every answer must match
        // the in-order trajectory bitwise.
        for &j in &[80u64, 3, 42, 42, 7, 99, 0, 55] {
            assert_eq!(cursor.scales_at(j), forward[j as usize], "job {j}");
        }
    }

    #[test]
    fn random_walk_drift_keeps_emulator_physical() {
        use crate::backend::EmulatorBackend;
        use crate::presets;
        let model = presets::yorktown().subdevice(&[0, 1]).unwrap();
        let mut b = FaultyBackend::new(
            EmulatorBackend::new(&model, 3).unwrap(),
            drift_spec(DriftModel::RandomWalk, 1.5, 11),
        );
        for job in 0..200 {
            let m = b
                .execute(&bell(), None)
                .unwrap_or_else(|e| panic!("job {job} failed under walk drift: {e}"));
            assert!(
                m.expectations
                    .iter()
                    .all(|z| z.is_finite() && z.abs() <= 1.0 + 1e-9),
                "job {job}: {:?}",
                m.expectations
            );
        }
    }

    #[test]
    fn drift_degrades_emulator_over_jobs() {
        use crate::backend::EmulatorBackend;
        use crate::presets;
        let model = presets::santiago().subdevice(&[0, 1]).unwrap();
        let mut b = FaultyBackend::new(
            EmulatorBackend::new(&model, 0).unwrap(),
            FaultSpec {
                gate_drift_per_job: 0.5,
                readout_drift_per_job: 0.5,
                seed: 2,
                ..FaultSpec::none()
            },
        );
        let mut c = Circuit::new(2);
        c.push(Gate::x(0));
        for _ in 0..10 {
            c.push(Gate::sx(0));
            c.push(Gate::sx(0));
        }
        let early = b.execute(&c, None).unwrap().expectations[0];
        for _ in 0..8 {
            let _ = b.execute(&c, None);
        }
        let late = b.execute(&c, None).unwrap().expectations[0];
        assert!(
            late.abs() < early.abs(),
            "drift contracts |Z| over jobs: {late} vs {early}"
        );
    }
}
