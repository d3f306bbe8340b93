//! Hyper-parameter selection (paper §4.2).
//!
//! "For each benchmark, we experiment with noise factor
//! `T = {0.1, 0.5, 1, 1.5}` and quantization level among `{3, 4, 5, 6}`
//! and select one out of 16 combinations with the lowest loss on the
//! validation set." This module runs that grid: each candidate trains a
//! fresh model with the full QuantumNAT pipeline, and the winner is the
//! candidate with the lowest noise-free validation loss.
//!
//! Candidates are independent, so the grid fans out across
//! [`SweepConfig::workers`] threads. Every candidate trains from the same
//! fixed seed and records land in grid order with ties broken toward the
//! earlier grid point, so the outcome is identical for any worker count —
//! the same worker-invariance contract the batch layer keeps even with
//! the fleet health layer enabled (see the epoch-driven breaker design in
//! [`crate::health`]).

use crate::forward::{PipelineOptions, QuantizeSpec};
use crate::model::{NoiseSource, Qnn, QnnConfig};
use crate::train::{train, AdamConfig, TrainOptions};
use qnat_data::dataset::Dataset;
use qnat_noise::device::DeviceModel;

/// One candidate of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Noise factor `T`.
    pub t_factor: f64,
    /// Quantization levels.
    pub levels: usize,
}

/// Result of one sweep candidate.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// The candidate.
    pub point: SweepPoint,
    /// Validation loss (selection criterion, lower is better).
    pub valid_loss: f64,
    /// Validation accuracy (reported, not used for selection).
    pub valid_acc: f64,
}

/// Grid + training settings for a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Noise factors to try (paper: `{0.1, 0.5, 1, 1.5}`).
    pub t_factors: Vec<f64>,
    /// Quantization levels to try (paper: `{3, 4, 5, 6}`).
    pub levels: Vec<usize>,
    /// Optimizer/schedule per candidate.
    pub adam: AdamConfig,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Quantization penalty weight λ.
    pub quant_penalty: f64,
    /// Seed shared by all candidates (fair comparison).
    pub seed: u64,
    /// Threads to spread grid candidates across (clamped to ≥ 1). The
    /// selected point and all records are independent of this.
    pub workers: usize,
}

impl SweepConfig {
    /// The full candidate grid `t_factors × levels`, in grid order
    /// (`t` outer, `levels` inner) — the order records land in and ties
    /// break toward. Also the unit of work the `qnat-serve` bulk lane
    /// schedules.
    pub fn grid(&self) -> Vec<SweepPoint> {
        self.t_factors
            .iter()
            .flat_map(|&t| {
                self.levels.iter().map(move |&levels| SweepPoint {
                    t_factor: t,
                    levels,
                })
            })
            .collect()
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            t_factors: vec![0.1, 0.5, 1.0, 1.5],
            levels: vec![3, 4, 5, 6],
            adam: AdamConfig::fast(40),
            batch_size: 32,
            quant_penalty: 0.05,
            seed: 7,
            workers: 1,
        }
    }
}

/// The outcome of a sweep: the winning trained model and all records.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The model trained at the winning candidate.
    pub best_model: Qnn,
    /// The winning candidate.
    pub best: SweepPoint,
    /// Every candidate's record, in grid order.
    pub records: Vec<SweepRecord>,
}

/// Runs the §4.2 grid: trains one full-pipeline model per `(T, levels)`
/// candidate against `device` and selects by validation loss.
///
/// # Errors
///
/// Returns [`crate::infer::InferError`] if a candidate's validation pass
/// fails.
///
/// # Panics
///
/// Panics if the grid is empty or the architecture does not fit the
/// device.
pub fn select_hyperparameters(
    config: QnnConfig,
    dataset: &Dataset,
    device: &DeviceModel,
    sweep: &SweepConfig,
) -> Result<SweepOutcome, crate::infer::InferError> {
    assert!(
        !sweep.t_factors.is_empty() && !sweep.levels.is_empty(),
        "empty sweep grid"
    );
    let points = sweep.grid();
    let n = points.len();
    let workers = sweep.workers.max(1).min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let run_candidate =
        |point: SweepPoint| -> Result<(SweepRecord, Qnn), crate::infer::InferError> {
            // Same seed for every candidate (fair comparison) — and a pure
            // function of the grid point, so pooled execution cannot change
            // any candidate's training run.
            let mut qnn = Qnn::for_device(config, device, sweep.seed).expect("config fits device");
            let pipeline = PipelineOptions {
                noise: NoiseSource::GateInsertion {
                    model: device,
                    factor: point.t_factor,
                },
                readout: Some(device),
                normalize: true,
                quantize: Some(QuantizeSpec::levels(point.levels)),
                quant_penalty: sweep.quant_penalty,
                process_last: false,
            };
            let report = train(
                &mut qnn,
                dataset,
                &TrainOptions {
                    adam: sweep.adam,
                    batch_size: sweep.batch_size,
                    pipeline,
                    seed: sweep.seed,
                },
            )?;
            Ok((
                SweepRecord {
                    point,
                    valid_loss: report.valid_loss,
                    valid_acc: report.valid_acc,
                },
                qnn,
            ))
        };
    type Finished = Vec<(usize, Result<(SweepRecord, Qnn), crate::infer::InferError>)>;
    let mut finished: Finished = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, run_candidate(points[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    // Grid order: records deterministic, ties broken toward the earlier
    // point regardless of which worker finished first.
    finished.sort_by_key(|(i, _)| *i);
    let mut records = Vec::with_capacity(n);
    let mut best: Option<(f64, SweepPoint, Qnn)> = None;
    for (_, candidate) in finished {
        let (record, qnn) = candidate?;
        let better = match &best {
            Some((loss, _, _)) => record.valid_loss < *loss,
            None => true,
        };
        if better {
            best = Some((record.valid_loss, record.point, qnn));
        }
        records.push(record);
    }
    let Some((_, best_point, best_model)) = best else {
        unreachable!("non-empty grid");
    };
    Ok(SweepOutcome {
        best_model,
        best: best_point,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_data::dataset::{build, Task, TaskConfig};
    use qnat_noise::presets;

    #[test]
    fn sweep_selects_lowest_validation_loss() {
        let dataset = build(Task::Mnist2, &TaskConfig::small(1));
        let device = presets::yorktown();
        let sweep = SweepConfig {
            t_factors: vec![0.1, 1.0],
            levels: vec![4, 6],
            adam: AdamConfig::fast(6),
            ..SweepConfig::default()
        };
        let outcome =
            select_hyperparameters(QnnConfig::standard(16, 2, 2, 2), &dataset, &device, &sweep)
                .unwrap();
        assert_eq!(outcome.records.len(), 4);
        let min_loss = outcome
            .records
            .iter()
            .map(|r| r.valid_loss)
            .fold(f64::INFINITY, f64::min);
        let winner = outcome
            .records
            .iter()
            .find(|r| r.point == outcome.best)
            .expect("winner recorded");
        assert!((winner.valid_loss - min_loss).abs() < 1e-12);
        assert!(outcome.best_model.n_params() > 0);
    }

    #[test]
    fn sweep_outcome_is_worker_count_invariant() {
        let dataset = build(Task::Mnist2, &TaskConfig::small(2));
        let device = presets::santiago();
        let run = |workers: usize| {
            let sweep = SweepConfig {
                t_factors: vec![0.5, 1.0],
                levels: vec![4],
                adam: AdamConfig::fast(3),
                workers,
                ..SweepConfig::default()
            };
            select_hyperparameters(QnnConfig::standard(16, 2, 1, 2), &dataset, &device, &sweep)
                .unwrap()
        };
        let serial = run(1);
        let pooled = run(3);
        assert_eq!(serial.best, pooled.best);
        assert_eq!(serial.records.len(), pooled.records.len());
        for (a, b) in serial.records.iter().zip(&pooled.records) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.valid_loss.to_bits(), b.valid_loss.to_bits());
            assert_eq!(a.valid_acc.to_bits(), b.valid_acc.to_bits());
        }
        for (a, b) in serial
            .best_model
            .parameters()
            .iter()
            .zip(pooled.best_model.parameters())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty sweep grid")]
    fn empty_grid_panics() {
        let dataset = build(Task::Mnist2, &TaskConfig::small(1));
        let sweep = SweepConfig {
            t_factors: vec![],
            ..SweepConfig::default()
        };
        let _ = select_hyperparameters(
            QnnConfig::standard(16, 2, 1, 1),
            &dataset,
            &presets::santiago(),
            &sweep,
        );
    }
}
