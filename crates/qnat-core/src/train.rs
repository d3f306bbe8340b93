//! Training: Adam with linear warmup + cosine decay, weight decay, and the
//! noise-aware training loop (paper §4.1: Adam, warmup to 5e-3 over the
//! first 30 epochs then cosine decay, weight decay 1e-4).

use crate::forward::{train_forward, PipelineOptions};
use crate::infer::{infer, InferenceBackend, InferenceOptions};
use crate::model::Qnn;
use qnat_data::dataset::{batch_indices, Dataset, Sample};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Adam hyper-parameters and schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Peak learning rate (after warmup).
    pub lr_max: f64,
    /// Warmup epochs (linear 0 → `lr_max`).
    pub warmup_epochs: usize,
    /// Total epochs (cosine decay to 0 after warmup).
    pub total_epochs: usize,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical epsilon.
    pub eps: f64,
    /// Decoupled weight decay λ.
    pub weight_decay: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr_max: 5e-3,
            warmup_epochs: 30,
            total_epochs: 200,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
        }
    }
}

impl AdamConfig {
    /// The learning rate at a given epoch: linear warmup then cosine decay.
    pub fn lr_at(&self, epoch: usize) -> f64 {
        if self.total_epochs == 0 {
            return self.lr_max;
        }
        if epoch < self.warmup_epochs {
            self.lr_max * (epoch + 1) as f64 / self.warmup_epochs as f64
        } else {
            let t = (epoch - self.warmup_epochs) as f64
                / (self.total_epochs - self.warmup_epochs).max(1) as f64;
            self.lr_max * 0.5 * (1.0 + (std::f64::consts::PI * t.min(1.0)).cos())
        }
    }

    /// A short schedule for tests and fast experiments.
    pub fn fast(total_epochs: usize) -> Self {
        AdamConfig {
            warmup_epochs: (total_epochs / 5).max(1),
            total_epochs,
            ..AdamConfig::default()
        }
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `n` parameters.
    pub fn new(config: AdamConfig, n: usize) -> Adam {
        Adam {
            config,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one update in place (decoupled weight decay, AdamW-style).
    ///
    /// A step with any non-finite gradient is *skipped entirely* — the
    /// moments, step counter and parameters are left untouched — and
    /// `false` is returned, so one corrupted batch (e.g. a backend fault
    /// leaking NaN through the loss) cannot poison the optimizer state.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the optimizer state.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) -> bool {
        assert_eq!(params.len(), self.m.len(), "parameter count");
        assert_eq!(grads.len(), self.m.len(), "gradient count");
        if grads.iter().any(|g| !g.is_finite()) {
            return false;
        }
        self.t += 1;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * grads[i];
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * grads[i] * grads[i];
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= lr
                * (mhat / (vhat.sqrt() + self.config.eps) + self.config.weight_decay * params[i]);
        }
        true
    }
}

/// Training-loop options.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions<'a> {
    /// Optimizer/schedule settings.
    pub adam: AdamConfig,
    /// Mini-batch size (paper: 256 image / 4 vowel; reduced sets use less).
    pub batch_size: usize,
    /// The QuantumNAT pipeline configuration.
    pub pipeline: PipelineOptions<'a>,
    /// RNG seed for shuffling and noise sampling.
    pub seed: u64,
}

impl Default for TrainOptions<'_> {
    fn default() -> Self {
        TrainOptions {
            adam: AdamConfig::fast(30),
            batch_size: 32,
            pipeline: PipelineOptions::default(),
            seed: 3,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Training accuracy.
    pub train_acc: f64,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch records.
    pub history: Vec<EpochRecord>,
    /// Final noise-free validation accuracy.
    pub valid_acc: f64,
    /// Final noise-free validation loss (used for hyper-parameter
    /// selection as in §4.2).
    pub valid_loss: f64,
    /// Optimizer steps skipped because a gradient was non-finite.
    pub skipped_steps: usize,
}

fn features_labels(samples: &[Sample], idx: &[usize]) -> (Vec<Vec<f64>>, Vec<usize>) {
    (
        idx.iter().map(|&i| samples[i].features.clone()).collect(),
        idx.iter().map(|&i| samples[i].label).collect(),
    )
}

/// Trains `qnn` on a dataset with the given pipeline.
///
/// Batches whose gradients come back non-finite are skipped (and counted
/// in [`TrainReport::skipped_steps`]) instead of corrupting the model.
///
/// # Errors
///
/// Returns [`crate::infer::InferError`] if the final validation pass
/// fails (e.g. an empty validation set).
pub fn train(
    qnn: &mut Qnn,
    dataset: &Dataset,
    options: &TrainOptions<'_>,
) -> Result<TrainReport, crate::infer::InferError> {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut adam = Adam::new(options.adam, qnn.n_params());
    let mut history = Vec::with_capacity(options.adam.total_epochs);
    let mut skipped_steps = 0usize;
    for epoch in 0..options.adam.total_epochs {
        let lr = options.adam.lr_at(epoch);
        let mut loss_acc = 0.0;
        let mut correct = 0usize;
        let mut seen = 0usize;
        for batch in batch_indices(dataset.train.len(), options.batch_size, &mut rng) {
            let (features, labels) = features_labels(&dataset.train, &batch);
            let step = train_forward(qnn, &features, &labels, &options.pipeline, &mut rng);
            let mut params = qnn.parameters().to_vec();
            if adam.step(&mut params, &step.grads, lr) {
                qnn.set_parameters(&params);
            } else {
                skipped_steps += 1;
            }
            loss_acc += step.loss * labels.len() as f64;
            for (i, &y) in labels.iter().enumerate() {
                let row: Vec<f64> = (0..qnn.config().n_classes)
                    .map(|c| step.probs.get2(i, c))
                    .collect();
                if crate::head::predict(&row) == y {
                    correct += 1;
                }
            }
            seen += labels.len();
        }
        history.push(EpochRecord {
            epoch,
            train_loss: loss_acc / seen.max(1) as f64,
            train_acc: correct as f64 / seen.max(1) as f64,
        });
    }
    // Validation (noise-free pipeline with the same normalization/quant
    // settings).
    let (vf, vl): (Vec<Vec<f64>>, Vec<usize>) = (
        dataset.valid.iter().map(|s| s.features.clone()).collect(),
        dataset.valid.iter().map(|s| s.label).collect(),
    );
    let infer_opts = InferenceOptions {
        normalize: if options.pipeline.normalize {
            crate::infer::NormMode::BatchStats
        } else {
            crate::infer::NormMode::Off
        },
        quantize: options.pipeline.quantize,
        process_last: options.pipeline.process_last,
    };
    let result = infer(
        qnn,
        &vf,
        &InferenceBackend::NoiseFree,
        &infer_opts,
        &mut rng,
    )?;
    let valid_acc = result.accuracy(&vl);
    // Cross-entropy on validation.
    let mut valid_loss = 0.0;
    for (row, &y) in result.logits.iter().zip(&vl) {
        let probs = crate::head::softmax(row);
        valid_loss -= probs[y].max(1e-12).ln();
    }
    valid_loss /= vl.len().max(1) as f64;
    Ok(TrainReport {
        history,
        valid_acc,
        valid_loss,
        skipped_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QnnConfig;
    use qnat_data::dataset::{build, Task, TaskConfig};

    #[test]
    fn lr_schedule_shape() {
        let cfg = AdamConfig {
            lr_max: 1.0,
            warmup_epochs: 10,
            total_epochs: 100,
            ..AdamConfig::default()
        };
        assert!(cfg.lr_at(0) > 0.0);
        assert!(cfg.lr_at(4) < cfg.lr_at(9));
        assert!((cfg.lr_at(9) - 1.0).abs() < 1e-12);
        assert!(cfg.lr_at(50) < 1.0);
        assert!(cfg.lr_at(99) < cfg.lr_at(50));
        assert!(cfg.lr_at(99) >= 0.0);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (p − 3)² with constant gradient feed.
        let mut adam = Adam::new(
            AdamConfig {
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![0.0f64];
        for _ in 0..2000 {
            let g = vec![2.0 * (p[0] - 3.0)];
            adam.step(&mut p, &g, 0.01);
        }
        assert!((p[0] - 3.0).abs() < 0.01, "p = {}", p[0]);
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut adam = Adam::new(
            AdamConfig {
                weight_decay: 0.1,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![1.0f64];
        for _ in 0..100 {
            adam.step(&mut p, &[0.0], 0.1);
        }
        assert!(p[0] < 1.0);
    }

    #[test]
    fn short_training_reduces_loss() {
        // Seeds/schedule are tuned for the in-tree xoshiro-based StdRng
        // stream (the vendored `rand`); the upstream ChaCha stream produced
        // different synthetic data and init.
        let ds = build(Task::Mnist2, &TaskConfig::small(9));
        let mut qnn = Qnn::new(QnnConfig::standard(16, 2, 2, 2), 1);
        let options = TrainOptions {
            adam: AdamConfig {
                lr_max: 2e-2,
                warmup_epochs: 3,
                total_epochs: 60,
                ..AdamConfig::default()
            },
            batch_size: 32,
            pipeline: PipelineOptions::baseline(),
            seed: 3,
        };
        let report = train(&mut qnn, &ds, &options).unwrap();
        let first = report.history.first().unwrap().train_loss;
        let last = report.history.last().unwrap().train_loss;
        assert!(
            last < first,
            "training loss should decrease: {first} → {last}"
        );
        assert!(report.valid_acc > 0.75, "valid acc {}", report.valid_acc);
        assert_eq!(report.skipped_steps, 0, "clean run skips nothing");
    }

    #[test]
    fn non_finite_gradients_skip_the_step() {
        let mut adam = Adam::new(AdamConfig::default(), 2);
        let mut p = vec![1.0f64, -1.0];
        assert!(adam.step(&mut p, &[0.1, 0.2], 0.01));
        let after_good = p.clone();
        let t_after_good = adam.t;
        assert!(!adam.step(&mut p, &[f64::NAN, 0.2], 0.01));
        assert!(!adam.step(&mut p, &[0.1, f64::INFINITY], 0.01));
        assert_eq!(p, after_good, "skipped steps leave parameters untouched");
        assert_eq!(adam.t, t_after_good, "skipped steps do not advance time");
        assert!(p.iter().all(|v| v.is_finite()));
        // The optimizer recovers on the next clean batch.
        assert!(adam.step(&mut p, &[0.1, 0.2], 0.01));
    }
}
