//! Error-mitigation sweeps: one logical job, k correlated folded runs.
//!
//! A [`MitigatedJob`] is a genuinely new traffic shape for the serving
//! engine: instead of one circuit → one simulation, one request fans out
//! into one folded simulation **per noise scale** (1×/3×/5×, …) on the
//! bulk lane, and the k results are aggregated — readout-confusion
//! inversion per run, then zero-noise extrapolation per qubit — into a
//! single mitigated [`Measurements`] the caller (or the wire) sees as
//! one result.
//!
//! ## Replay discipline
//!
//! The whole sweep replays bitwise from its `sweep_seed`. Sub-job `k`
//! (the k-th scale, in the order given) is pinned through
//! [`ServeEngine::submit_routed`] with
//!
//! ```text
//! global = k,   seed = splitmix64(sweep_seed ^ splitmix64(k))
//! ```
//!
//! — the exact per-job seed schedule every other layer of this repo uses
//! (`BatchExecutor::job_seed`, `ServeEngine::job_seed`, the fleet
//! router), so a sweep re-submitted with the same `sweep_seed` runs
//! bit-for-bit identically regardless of which engine, ticket numbers or
//! worker interleavings serve it. Pinned by `tests/mitigate_replay.rs`.
//!
//! ## Aggregation order
//!
//! Readout inversion runs **per scale, before extrapolation**: gate
//! folding amplifies *gate* noise but leaves readout error at 1× (the
//! measurement still happens once), so readout must be unfolded from
//! each scale's expectations first or the extrapolation would treat the
//! constant readout bias as gate noise and mis-extrapolate it. After
//! inversion the per-qubit expectations are extrapolated to scale 0 and
//! clamped to the physical `[-1, 1]` (the 1-qubit simplex projection;
//! see `qnat_core::mitigate` for the bias this introduces).

use crate::engine::{JobOutcome, Lane, ServeEngine, SubmitError, Ticket, WaitError};
use qnat_compiler::folding::{fold_circuit, FoldError, FoldStrategy};
use qnat_core::batch::BatchJob;
use qnat_core::executor::ExecutionReport;
use qnat_core::mitigate::{
    extrapolate_expectation, unconfuse_expectations, MitigateError, ZneMethod,
};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_noise::seed::derive;
use qnat_sim::circuit::Circuit;
use qnat_sim::measure::Confusion;
use std::cmp::Reverse;
use std::error::Error;
use std::fmt;

/// One logical mitigated job: a circuit to run at several folded noise
/// scales, with the post-processing recipe for collapsing the sweep
/// into a single zero-noise estimate.
#[derive(Debug, Clone)]
pub struct MitigatedJob {
    /// The unfolded circuit.
    pub circuit: Circuit,
    /// Per-sub-run shot budget (`None` = exact expectations).
    pub shots: Option<usize>,
    /// Odd noise scales to run, e.g. `[1, 3, 5]`. At least two distinct
    /// scales are required — extrapolation through one point is not a
    /// fit.
    pub scales: Vec<usize>,
    /// Where the folding pass inserts the identity pairs.
    pub strategy: FoldStrategy,
    /// How the per-scale expectations extrapolate to scale 0.
    pub method: ZneMethod,
    /// Per-qubit readout confusion matrices to invert out of each
    /// sub-run before extrapolation (`None` = skip readout inversion).
    /// Length must equal the circuit's qubit count.
    pub readout: Option<Vec<Confusion>>,
}

impl MitigatedJob {
    /// A ZNE-only job at scales 1/3/5 with per-gate folding and linear
    /// extrapolation — the default sweep shape of the acceptance bench.
    pub fn zne(circuit: Circuit, shots: Option<usize>) -> Self {
        MitigatedJob {
            circuit,
            shots,
            scales: vec![1, 3, 5],
            strategy: FoldStrategy::PerGate,
            method: ZneMethod::Linear,
            readout: None,
        }
    }

    /// Adds per-qubit readout inversion to the recipe.
    pub fn with_readout(mut self, confusions: Vec<Confusion>) -> Self {
        self.readout = Some(confusions);
        self
    }
}

/// A mitigated submission the engine refused before any aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigatedSubmitError {
    /// Fewer than two scales: nothing to extrapolate through.
    TooFewScales {
        /// How many scales arrived.
        got: usize,
    },
    /// A scale repeats; coincident x-values make every fit degenerate.
    DuplicateScale {
        /// The repeated scale.
        scale: usize,
    },
    /// A scale the folding construction cannot reach (even or zero).
    Fold(FoldError),
    /// `readout` is present but its length differs from the circuit's
    /// qubit count.
    ReadoutShape {
        /// The circuit's qubit count.
        expected: usize,
        /// Confusion matrices provided.
        got: usize,
    },
    /// The engine refused a sub-job (queue full / shed / stopping).
    /// Sub-jobs already accepted before the refusal still run to
    /// completion and are dropped — the sweep is all-or-nothing from the
    /// caller's perspective.
    Submit(SubmitError),
}

impl fmt::Display for MitigatedSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigatedSubmitError::TooFewScales { got } => {
                write!(
                    f,
                    "need at least two noise scales to extrapolate, got {got}"
                )
            }
            MitigatedSubmitError::DuplicateScale { scale } => {
                write!(f, "noise scale {scale} appears more than once")
            }
            MitigatedSubmitError::Fold(e) => write!(f, "{e}"),
            MitigatedSubmitError::ReadoutShape { expected, got } => write!(
                f,
                "readout confusion count {got} does not match the circuit's {expected} qubits"
            ),
            MitigatedSubmitError::Submit(e) => write!(f, "sub-job refused: {e}"),
        }
    }
}

impl Error for MitigatedSubmitError {}

impl From<FoldError> for MitigatedSubmitError {
    fn from(e: FoldError) -> Self {
        MitigatedSubmitError::Fold(e)
    }
}

impl From<SubmitError> for MitigatedSubmitError {
    fn from(e: SubmitError) -> Self {
        MitigatedSubmitError::Submit(e)
    }
}

/// Why a completed sweep failed to produce a mitigated result.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationError {
    /// A sub-run at `scale` failed in the backend; the sweep cannot be
    /// aggregated without it.
    SubRun {
        /// The noise scale whose run failed.
        scale: usize,
        /// The backend's typed failure.
        error: BackendError,
    },
    /// The mitigation math rejected the aggregate (degenerate fit,
    /// singular confusion, ragged shapes).
    Math(MitigateError),
}

impl fmt::Display for MitigationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigationError::SubRun { scale, error } => {
                write!(f, "sub-run at noise scale {scale} failed: {error}")
            }
            MitigationError::Math(e) => write!(f, "mitigation math failed: {e}"),
        }
    }
}

impl Error for MitigationError {}

impl From<MitigateError> for MitigationError {
    fn from(e: MitigateError) -> Self {
        MitigationError::Math(e)
    }
}

/// The per-job executor seed of sub-job `k` in a sweep seeded with
/// `sweep_seed` — the repo-wide `splitmix64(seed ^ splitmix64(job))`
/// schedule, re-exported so tests and the wire can pin it.
pub fn sub_seed(sweep_seed: u64, k: u64) -> u64 {
    derive(sweep_seed, k)
}

/// An in-flight mitigated sweep: the fan-out's tickets plus everything
/// needed to aggregate them.
#[derive(Debug, Clone)]
pub struct MitigatedSweep {
    /// One engine ticket per scale, in `scales` order.
    pub tickets: Vec<Ticket>,
    /// The scales, mirroring `tickets`.
    pub scales: Vec<usize>,
    /// The sweep's replay seed.
    pub sweep_seed: u64,
    method: ZneMethod,
    readout: Option<Vec<Confusion>>,
}

/// One sub-run's full outcome, kept for observability next to the
/// aggregate.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The noise scale this run was folded to.
    pub scale: usize,
    /// The engine ticket that served it.
    pub ticket: Ticket,
    /// The sub-run's raw (unmitigated) outcome.
    pub outcome: JobOutcome,
}

/// A completed sweep: the single aggregated result plus the per-scale
/// raw outcomes it was built from.
#[derive(Debug, Clone)]
pub struct MitigatedOutcome {
    /// The zero-noise estimate (per-qubit expectations clamped to
    /// `[-1, 1]`; `shots_used` totalled over the sub-runs), or the typed
    /// reason the sweep could not be aggregated.
    pub mitigated: Result<Measurements, MitigationError>,
    /// The unmitigated expectations at the **smallest** submitted scale
    /// (the raw baseline a caller compares against), when that run
    /// succeeded.
    pub raw: Option<Vec<f64>>,
    /// Every sub-run, in `scales` order.
    pub runs: Vec<ScaleRun>,
    /// The sub-run execution reports merged in scale order.
    pub report: ExecutionReport,
}

/// Validates and fans a [`MitigatedJob`] out: one folded circuit per
/// scale, each submitted to the **bulk lane** via
/// [`ServeEngine::submit_routed`] with the sweep's pinned
/// `(global, seed)` schedule (see the module docs). The sub-runs are
/// submitted longest first (most folded gates; ties in scale order), so
/// the deepest run never waits for a worker behind the shallow ones; the
/// returned tickets are still in `scales` order.
///
/// # Errors
///
/// Typed [`MitigatedSubmitError`] on an invalid sweep shape or an engine
/// refusal; validation (including every fold) completes before the first
/// submission, so shape errors never leave orphan sub-jobs.
pub fn submit_mitigated(
    engine: &ServeEngine,
    job: &MitigatedJob,
    sweep_seed: u64,
) -> Result<MitigatedSweep, MitigatedSubmitError> {
    if job.scales.len() < 2 {
        return Err(MitigatedSubmitError::TooFewScales {
            got: job.scales.len(),
        });
    }
    for (i, &s) in job.scales.iter().enumerate() {
        if job.scales[..i].contains(&s) {
            return Err(MitigatedSubmitError::DuplicateScale { scale: s });
        }
    }
    if let Some(r) = &job.readout {
        if r.len() != job.circuit.n_qubits() {
            return Err(MitigatedSubmitError::ReadoutShape {
                expected: job.circuit.n_qubits(),
                got: r.len(),
            });
        }
    }
    // Fold everything before submitting anything: an invalid scale must
    // not leave earlier sub-jobs running.
    let folded: Vec<Circuit> = job
        .scales
        .iter()
        .map(|&s| fold_circuit(&job.circuit, s, job.strategy))
        .collect::<Result<_, _>>()?;
    // Longest first: the deepest fold starts while the shallow ones fill
    // the other workers, instead of queueing behind them. Each sub-run
    // keeps its scale-order `(global, seed)` pin, so the order changes
    // only which ticket numbers the runs get.
    let mut runs: Vec<(usize, Circuit)> = folded.into_iter().enumerate().collect();
    runs.sort_by_key(|(_, circuit)| Reverse(circuit.len()));
    let mut tickets = vec![0; runs.len()];
    for (k, circuit) in runs {
        let sub = BatchJob {
            circuit,
            shots: job.shots,
        };
        tickets[k] =
            engine.submit_routed(sub, Lane::Bulk, k as u64, sub_seed(sweep_seed, k as u64))?;
    }
    Ok(MitigatedSweep {
        tickets,
        scales: job.scales.clone(),
        sweep_seed,
        method: job.method,
        readout: job.readout.clone(),
    })
}

/// Pure aggregation of a completed sweep's per-scale outcomes (exposed
/// for tests and the bench): readout inversion per scale, then
/// per-qubit extrapolation to zero noise, clamped to `[-1, 1]`.
///
/// # Errors
///
/// [`MitigationError::SubRun`] on the first failed sub-run (in scale
/// order), [`MitigationError::Math`] when the mitigation math rejects
/// the aggregate.
pub fn aggregate_sweep(
    scales: &[usize],
    results: &[Result<Measurements, BackendError>],
    readout: Option<&[Confusion]>,
    method: ZneMethod,
) -> Result<Measurements, MitigationError> {
    debug_assert_eq!(scales.len(), results.len());
    let mut per_scale: Vec<Vec<f64>> = Vec::with_capacity(results.len());
    let mut shots_total: Option<usize> = Some(0);
    for (&scale, result) in scales.iter().zip(results) {
        let m = result.as_ref().map_err(|e| MitigationError::SubRun {
            scale,
            error: e.clone(),
        })?;
        let zs = match readout {
            Some(confusions) => unconfuse_expectations(&m.expectations, confusions)?,
            None => m.expectations.clone(),
        };
        per_scale.push(zs);
        shots_total = match (shots_total, m.shots_used) {
            (Some(acc), Some(s)) => Some(acc + s),
            _ => None,
        };
    }
    let xs: Vec<f64> = scales.iter().map(|&s| s as f64).collect();
    let n_q = per_scale.first().map_or(0, Vec::len);
    let mut expectations = Vec::with_capacity(n_q);
    for q in 0..n_q {
        let ys: Vec<f64> = per_scale.iter().map(|row| row[q]).collect();
        let z = extrapolate_expectation(&xs, &ys, method)?;
        expectations.push(z.clamp(-1.0, 1.0));
    }
    Ok(Measurements {
        expectations,
        shots_used: shots_total,
    })
}

impl MitigatedSweep {
    /// Index of the smallest scale — the sweep's raw baseline.
    fn baseline_index(&self) -> Option<usize> {
        self.scales
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
    }

    /// Aggregates already-collected sub-run outcomes into the final
    /// [`MitigatedOutcome`].
    fn finish(&self, outcomes: Vec<JobOutcome>) -> MitigatedOutcome {
        let results: Vec<Result<Measurements, BackendError>> =
            outcomes.iter().map(|o| o.result.clone()).collect();
        let mitigated =
            aggregate_sweep(&self.scales, &results, self.readout.as_deref(), self.method);
        let raw = self
            .baseline_index()
            .and_then(|i| results[i].as_ref().ok().map(|m| m.expectations.clone()));
        let mut report = ExecutionReport::default();
        for o in &outcomes {
            report.merge(&o.report);
        }
        let runs = self
            .scales
            .iter()
            .zip(&self.tickets)
            .zip(outcomes)
            .map(|((&scale, &ticket), outcome)| ScaleRun {
                scale,
                ticket,
                outcome,
            })
            .collect();
        MitigatedOutcome {
            mitigated,
            raw,
            runs,
            report,
        }
    }

    /// Blocks until every sub-run completes and aggregates the sweep.
    /// Returns `None` if the engine discarded a ticket (dropped
    /// mid-flight).
    pub fn wait(&self, engine: &ServeEngine) -> Option<MitigatedOutcome> {
        let mut outcomes = Vec::with_capacity(self.tickets.len());
        for &t in &self.tickets {
            outcomes.push(engine.wait(t)?);
        }
        Some(self.finish(outcomes))
    }

    /// Like [`MitigatedSweep::wait`], bounded by a total budget of
    /// `ms` milliseconds across the whole sweep.
    ///
    /// # Errors
    ///
    /// [`WaitError::Timeout`] when the budget expires first (reporting
    /// total milliseconds waited), [`WaitError::Unknown`] if a ticket
    /// was discarded.
    pub fn wait_timeout(
        &self,
        engine: &ServeEngine,
        ms: u64,
    ) -> Result<MitigatedOutcome, WaitError> {
        let started = std::time::Instant::now();
        let mut outcomes = Vec::with_capacity(self.tickets.len());
        for &t in &self.tickets {
            // Sub-waits share one budget: later tickets get whatever the
            // earlier ones left (usually everything — the engine runs
            // them concurrently, so the first wait absorbs the latency).
            let waited = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            match engine.wait_timeout(t, ms.saturating_sub(waited)) {
                Ok(o) => outcomes.push(o),
                Err(WaitError::Timeout { .. }) => {
                    return Err(WaitError::Timeout {
                        waited_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.finish(outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use qnat_core::executor::{ResilientExecutor, RetryPolicy};
    use qnat_noise::backend::SimulatorBackend;
    use qnat_noise::seed::splitmix64;
    use qnat_sim::gate::Gate;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.6));
        c.push(Gate::cx(0, 1));
        c.push(Gate::rz(1, -0.3));
        c
    }

    fn engine(seed: u64) -> ServeEngine {
        ServeEngine::new(
            ServeConfig {
                workers: 2,
                seed,
                ..ServeConfig::default()
            },
            |_job, seed| {
                Ok(ResilientExecutor::new(
                    Box::new(SimulatorBackend::new(seed)),
                    RetryPolicy::default(),
                ))
            },
        )
    }

    #[test]
    fn sweep_shape_is_validated_before_submission() {
        let engine = engine(9);
        let mut job = MitigatedJob::zne(test_circuit(), None);
        job.scales = vec![1];
        assert_eq!(
            submit_mitigated(&engine, &job, 7).unwrap_err(),
            MitigatedSubmitError::TooFewScales { got: 1 }
        );
        job.scales = vec![1, 3, 3];
        assert_eq!(
            submit_mitigated(&engine, &job, 7).unwrap_err(),
            MitigatedSubmitError::DuplicateScale { scale: 3 }
        );
        job.scales = vec![1, 4];
        assert_eq!(
            submit_mitigated(&engine, &job, 7).unwrap_err(),
            MitigatedSubmitError::Fold(FoldError::EvenScale { scale: 4 })
        );
        job.scales = vec![1, 3];
        job.readout = Some(vec![[[1.0, 0.0], [0.0, 1.0]]]);
        assert_eq!(
            submit_mitigated(&engine, &job, 7).unwrap_err(),
            MitigatedSubmitError::ReadoutShape {
                expected: 2,
                got: 1
            }
        );
        // Nothing was ever enqueued.
        assert_eq!(engine.stats().submitted, 0);
        engine.drain();
    }

    #[test]
    fn noise_free_sweep_mitigates_to_the_ideal_expectations() {
        let engine = engine(21);
        let job = MitigatedJob::zne(test_circuit(), None);
        let sweep = submit_mitigated(&engine, &job, 0xA11CE).expect("submit");
        assert_eq!(sweep.tickets.len(), 3);
        let outcome = sweep.wait(&engine).expect("tickets live");
        let mitigated = outcome.mitigated.expect("aggregation succeeds");
        let raw = outcome.raw.expect("scale-1 run succeeded");
        // On a noise-free backend every folded run is identical, so the
        // extrapolation is flat and the mitigated result equals raw.
        for (m, r) in mitigated.expectations.iter().zip(&raw) {
            assert!((m - r).abs() < 1e-12);
        }
        engine.drain();
    }

    #[test]
    fn sweep_fans_out_longest_first_and_replays_the_scale_order_fan_out() {
        let job = MitigatedJob::zne(test_circuit(), Some(128)).with_readout(vec![
            [
                [0.97, 0.03],
                [0.05, 0.95]
            ];
            2
        ]);
        let sweep_seed = 0x5EED;
        // On a paused engine nothing runs, so the tickets show the order
        // the sub-runs were queued in.
        let paused = engine(3);
        paused.pause();
        let sweep = submit_mitigated(&paused, &job, sweep_seed).expect("submit");
        assert_eq!(sweep.scales, [1, 3, 5]);
        let t = &sweep.tickets;
        assert!(t[2] < t[1] && t[1] < t[0], "scale 5 is queued first: {t:?}");
        paused.resume();
        let longest_first = sweep.wait(&paused).expect("tickets live");
        paused.drain();

        // The same sub-runs queued in scale order.
        let plain = engine(3);
        let mut tickets = Vec::new();
        for (k, &scale) in job.scales.iter().enumerate() {
            let circuit = fold_circuit(&job.circuit, scale, job.strategy).expect("fold");
            let sub = BatchJob {
                circuit,
                shots: job.shots,
            };
            let k = k as u64;
            tickets.push(
                plain
                    .submit_routed(sub, Lane::Bulk, k, sub_seed(sweep_seed, k))
                    .expect("submit"),
            );
        }
        let scale_order = MitigatedSweep {
            tickets,
            scales: job.scales.clone(),
            sweep_seed,
            method: job.method,
            readout: job.readout.clone(),
        }
        .wait(&plain)
        .expect("tickets live");
        plain.drain();

        let bits = |o: &MitigatedOutcome| {
            let m = o.mitigated.as_ref().expect("aggregation succeeds");
            let mut bits: Vec<u64> = m.expectations.iter().map(|v| v.to_bits()).collect();
            for run in &o.runs {
                let r = run.outcome.result.as_ref().expect("sub-run succeeds");
                bits.push(run.scale as u64);
                bits.extend(r.expectations.iter().map(|v| v.to_bits()));
            }
            bits
        };
        assert_eq!(bits(&longest_first), bits(&scale_order));
    }

    #[test]
    fn aggregate_rejects_failed_subrun_with_scale_attribution() {
        let results = vec![
            Ok(Measurements {
                expectations: vec![0.5],
                shots_used: None,
            }),
            Err(BackendError::TransientFailure {
                job: 1,
                reason: "injected".into(),
            }),
        ];
        let err = aggregate_sweep(&[1, 3], &results, None, ZneMethod::Linear).unwrap_err();
        assert!(matches!(err, MitigationError::SubRun { scale: 3, .. }));
    }

    #[test]
    fn aggregate_surfaces_singular_confusion() {
        let m = Measurements {
            expectations: vec![0.2],
            shots_used: None,
        };
        let results = vec![Ok(m.clone()), Ok(m)];
        let coin: Confusion = [[0.5, 0.5], [0.5, 0.5]];
        let err = aggregate_sweep(&[1, 3], &results, Some(&[coin]), ZneMethod::Linear).unwrap_err();
        assert!(matches!(
            err,
            MitigationError::Math(MitigateError::SingularConfusion { .. })
        ));
    }

    #[test]
    fn sub_seed_schedule_is_the_repo_standard() {
        let sweep_seed = 0xDEAD_BEEF;
        for k in 0..5u64 {
            assert_eq!(
                sub_seed(sweep_seed, k),
                splitmix64(sweep_seed ^ splitmix64(k))
            );
        }
    }
}
