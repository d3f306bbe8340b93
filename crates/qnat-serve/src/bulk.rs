//! Bulk-lane hyper-parameter grids: the §4.2 sweep served as background
//! traffic.
//!
//! [`qnat_core::sweep::select_hyperparameters`] *trains* one model per
//! `(T, levels)` candidate — an offline job. At serving time the useful
//! remnant of that grid is the inference-side half: evaluating a deployed
//! model under each candidate's quantization level. The noise factor `T`
//! is a training-time knob (it shapes the gate-insertion noise the model
//! is trained against, not the deployed pipeline), so candidates sharing
//! a quantization level produce identical served outputs — the sweep
//! caches per level and reports every grid point.
//!
//! Every inference here runs on [`Lane::Bulk`], so a grid sweep never
//! starves interactive traffic on the same engines.

use crate::engine::Lane;
use crate::qnn::ServingQnn;
use qnat_core::forward::QuantizeSpec;
use qnat_core::infer::{infer, InferError, InferenceBackend, InferenceOptions};
use qnat_core::sweep::{SweepConfig, SweepPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One grid candidate's served evaluation.
#[derive(Debug, Clone)]
pub struct BulkSweepRecord {
    /// The candidate.
    pub point: SweepPoint,
    /// Class logits per sample under the candidate's quantization level.
    pub logits: Vec<Vec<f64>>,
    /// Accuracy against the provided labels, if any.
    pub accuracy: Option<f64>,
}

/// Serves the full `t_factors × levels` grid of `sweep` through the
/// deployment's bulk lane, evaluating `features` once per distinct
/// quantization level (see the module docs) and reporting every grid
/// point in grid order. The deployment's lane selection is restored
/// afterwards.
///
/// # Errors
///
/// Returns [`InferError`] if any served inference fails past every retry,
/// fallback and admission decision.
///
/// # Panics
///
/// Panics if the sweep grid is empty.
pub fn bulk_grid_sweep(
    serving: &ServingQnn<'_>,
    sweep: &SweepConfig,
    features: &[Vec<f64>],
    labels: Option<&[usize]>,
    base: &InferenceOptions,
) -> Result<Vec<BulkSweepRecord>, InferError> {
    let grid = sweep.grid();
    assert!(!grid.is_empty(), "empty sweep grid");
    let previous = serving.lane();
    serving.set_lane(Lane::Bulk);
    let outcome = run_grid(serving, &grid, sweep.seed, features, labels, base);
    serving.set_lane(previous);
    outcome
}

fn run_grid(
    serving: &ServingQnn<'_>,
    grid: &[SweepPoint],
    seed: u64,
    features: &[Vec<f64>],
    labels: Option<&[usize]>,
    base: &InferenceOptions,
) -> Result<Vec<BulkSweepRecord>, InferError> {
    let mut by_level: HashMap<usize, Vec<Vec<f64>>> = HashMap::new();
    let mut records = Vec::with_capacity(grid.len());
    for &point in grid {
        let logits = match by_level.get(&point.levels) {
            Some(cached) => cached.clone(),
            None => {
                let opts = InferenceOptions {
                    quantize: Some(QuantizeSpec::levels(point.levels)),
                    ..base.clone()
                };
                // The serving backend never samples from this RNG (jobs
                // are ticket-seeded); it only satisfies infer's API.
                let mut rng = StdRng::seed_from_u64(seed);
                let result = infer(
                    serving.qnn(),
                    features,
                    &InferenceBackend::Deployed(serving),
                    &opts,
                    &mut rng,
                )?;
                by_level.insert(point.levels, result.logits.clone());
                result.logits
            }
        };
        let accuracy = labels.map(|l| qnat_core::metrics::accuracy(&logits, l));
        records.push(BulkSweepRecord {
            point,
            logits,
            accuracy,
        });
    }
    Ok(records)
}
