//! Differentiable training forward pass.
//!
//! Builds the full QuantumNAT pipeline on the autodiff tape for one batch:
//! quantum blocks (with noise injection and readout-error emulation),
//! post-measurement normalization, straight-through quantization with the
//! quadratic centroid penalty `‖y − Q(y)‖²` (Fig. 6), the fixed
//! classification head and softmax cross-entropy.
//!
//! Each quantum block runs in two phases. First every sample's random
//! draws (angle noise, error-gate plan) are made serially, in sample
//! order, from the caller's RNG — exactly the order a one-sample-at-a-time
//! loop consumes them. Then the batch is differentiated on all cores, each
//! worker writing a contiguous chunk of samples into preallocated slots.
//! Differentiation draws nothing and every sample lands in its own slot,
//! so the step is bitwise identical for any worker count.

use crate::head::head_matrix;
use crate::model::{NoiseSource, PreparedSample, Qnn};
use crate::normalize::NORM_EPS;
use qnat_autodiff::tape::{quantize_value, Tape, Var};
use qnat_autodiff::tensor::Tensor;
use qnat_noise::device::DeviceModel;
use rand::Rng;

/// Post-measurement quantization settings (paper §3.3; Fig. 6 uses 5 levels
/// on `[-2, 2]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizeSpec {
    /// Number of uniform levels (paper sweeps {3, 4, 5, 6}).
    pub levels: usize,
    /// Lower clip threshold.
    pub p_min: f64,
    /// Upper clip threshold.
    pub p_max: f64,
}

impl QuantizeSpec {
    /// The paper's default range `[-2, 2]` with the given level count.
    pub fn levels(levels: usize) -> QuantizeSpec {
        QuantizeSpec {
            levels,
            p_min: -2.0,
            p_max: 2.0,
        }
    }
}

/// Pipeline configuration shared by training and evaluation.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions<'a> {
    /// Noise source injected into quantum blocks during training.
    pub noise: NoiseSource<'a>,
    /// Device whose readout error is emulated on measurement outcomes
    /// (training-time readout injection, §3.2).
    pub readout: Option<&'a DeviceModel>,
    /// Enable post-measurement normalization between blocks.
    pub normalize: bool,
    /// Enable post-measurement quantization between blocks.
    pub quantize: Option<QuantizeSpec>,
    /// Weight λ of the quantization penalty loss.
    pub quant_penalty: f64,
    /// Also normalize/quantize the *last* block's outcomes (used for
    /// fully-quantum single-block models, Appendix A.3.3). The paper's
    /// multi-block default leaves the last block raw (§4.2).
    pub process_last: bool,
}

impl Default for PipelineOptions<'_> {
    fn default() -> Self {
        PipelineOptions {
            noise: NoiseSource::None,
            readout: None,
            normalize: true,
            quantize: Some(QuantizeSpec::levels(5)),
            quant_penalty: 0.1,
            process_last: false,
        }
    }
}

impl<'a> PipelineOptions<'a> {
    /// The noise-free baseline: no normalization, no injection, no
    /// quantization.
    pub fn baseline() -> Self {
        PipelineOptions {
            noise: NoiseSource::None,
            readout: None,
            normalize: false,
            quantize: None,
            quant_penalty: 0.0,
            process_last: false,
        }
    }
}

/// Output of one training forward/backward pass.
#[derive(Debug, Clone)]
pub struct TrainStep {
    /// Total loss (cross-entropy + λ·penalty).
    pub loss: f64,
    /// Cross-entropy part.
    pub ce_loss: f64,
    /// Quantization penalty part (before λ).
    pub penalty: f64,
    /// Softmax probabilities `[batch, classes]`.
    pub probs: Tensor,
    /// Gradient w.r.t. the QNN's global parameter vector.
    pub grads: Vec<f64>,
}

/// Applies normalization on the tape: `(x − μ) / √(Var + ε)` per column.
fn tape_normalize(tape: &mut Tape, x: Var) -> Var {
    let b = tape.value(x).shape()[0];
    let mu = tape.mean_axis0(x);
    let mub = tape.broadcast0(mu, b);
    let centered = tape.sub(x, mub);
    let var = tape.var_axis0(x);
    let var_eps = tape.add_scalar(var, NORM_EPS);
    let sd = tape.sqrt(var_eps);
    let sdb = tape.broadcast0(sd, b);
    tape.div(centered, sdb)
}

/// Differentiates a block's prepared samples on up to `workers` scoped
/// threads (the calling thread takes the first chunk) and returns the
/// `[batch, n_qubits]` outputs with one input and one parameter Jacobian
/// per sample. Worker `w` takes the `w`-th contiguous chunk and writes
/// sample `i` into preallocated slot `i`, so the result does not depend
/// on `workers`.
fn differentiate_batch(
    qnn: &Qnn,
    block: usize,
    prepared: &[PreparedSample],
    readout: Option<&DeviceModel>,
    workers: usize,
) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
    let batch = prepared.len();
    let n_q = qnn.config().n_qubits;
    let n_in = qnn.blocks()[block].encoder.n_features();
    let n_p = qnn.block_params(block).len();
    let mut outputs = vec![0.0; batch * n_q];
    let mut jx: Vec<Tensor> = (0..batch).map(|_| Tensor::zeros(vec![n_q, n_in])).collect();
    let mut jp: Vec<Tensor> = (0..batch).map(|_| Tensor::zeros(vec![n_q, n_p])).collect();

    let chunk = batch.div_ceil(workers.clamp(1, batch));
    let run = |(prepared, outputs, jx, jp): Chunk<'_>| {
        let slots = outputs.chunks_exact_mut(n_q).zip(jx).zip(jp);
        for (sample, ((out, jx), jp)) in prepared.iter().zip(slots) {
            qnn.differentiate(block, sample, readout, out, jx.data_mut(), jp.data_mut());
        }
    };
    let mut chunks = prepared
        .chunks(chunk)
        .zip(outputs.chunks_mut(chunk * n_q))
        .zip(jx.chunks_mut(chunk))
        .zip(jp.chunks_mut(chunk))
        .map(|(((p, o), x), w)| (p, o, x, w));
    let first = chunks.next();
    std::thread::scope(|s| {
        let run = &run;
        let workers: Vec<_> = chunks.map(|c| s.spawn(move || run(c))).collect();
        if let Some(c) = first {
            run(c);
        }
        // Join explicitly: the scope's own wait returns as soon as each
        // closure finishes, before its thread has handed its malloc arena
        // back, so the next block's worker would start another arena.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    (Tensor::new(outputs, vec![batch, n_q]), jx, jp)
}

/// One worker's share of a batch: prepared samples and their output,
/// input-Jacobian and parameter-Jacobian slots.
type Chunk<'a> = (
    &'a [PreparedSample],
    &'a mut [f64],
    &'a mut [Tensor],
    &'a mut [Tensor],
);

/// Runs the full differentiable pipeline on one batch and returns loss,
/// probabilities and parameter gradients.
///
/// Block differentiation runs on `std::thread::available_parallelism()`
/// threads; the result is bitwise identical to a serial run (see the
/// module docs).
///
/// # Panics
///
/// Panics if feature/label shapes disagree with the model.
pub fn train_forward<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    labels: &[usize],
    opts: &PipelineOptions<'_>,
    rng: &mut R,
) -> TrainStep {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    train_forward_on(qnn, features, labels, opts, rng, workers)
}

/// [`train_forward`] with an explicit differentiation worker count.
fn train_forward_on<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    labels: &[usize],
    opts: &PipelineOptions<'_>,
    rng: &mut R,
    workers: usize,
) -> TrainStep {
    assert_eq!(features.len(), labels.len(), "batch size mismatch");
    assert!(!features.is_empty(), "empty batch");
    let batch = features.len();
    let n_q = qnn.config().n_qubits;
    let n_blocks = qnn.config().n_blocks;

    let mut tape = Tape::new();
    let mut x = tape.input(Tensor::from_rows(features));
    let mut param_vars: Vec<Var> = Vec::with_capacity(n_blocks);
    let mut penalty: Option<Var> = None;

    for bi in 0..n_blocks {
        let pv = tape.input(Tensor::vector(qnn.block_params(bi).to_vec()));
        param_vars.push(pv);
        // Phase 1: every sample's random draws, in sample order.
        let inputs = tape.value(x);
        let n_in = inputs.shape()[1];
        let prepared: Vec<PreparedSample> = inputs
            .data()
            .chunks_exact(n_in)
            .map(|row| qnn.prepare(bi, row, &opts.noise, rng))
            .collect();
        // Phase 2: outputs and Jacobians, on all cores.
        let (out, jx, jp) = differentiate_batch(qnn, bi, &prepared, opts.readout, workers);
        x = tape.quantum(x, pv, out, jx, jp);

        let last = bi + 1 == n_blocks;
        if last && !opts.process_last {
            break;
        }
        // Normalization and quantization are applied to intermediate
        // blocks only (§4.2).
        if opts.normalize {
            x = tape_normalize(&mut tape, x);
        }
        if let NoiseSource::OutcomePerturb { mu, sigma } = opts.noise {
            let noise_rows: Vec<Vec<f64>> = (0..batch)
                .map(|_| {
                    (0..n_q)
                        .map(|_| {
                            let u1: f64 = rng.gen_range(1e-12..1.0f64);
                            let u2: f64 = rng.gen();
                            mu + sigma
                                * (-2.0 * u1.ln()).sqrt()
                                * (2.0 * std::f64::consts::PI * u2).cos()
                        })
                        .collect()
                })
                .collect();
            let nt = tape.input(Tensor::from_rows(&noise_rows));
            x = tape.add(x, nt);
        }
        if let Some(spec) = opts.quantize {
            // Penalty ‖y − Q(y)‖² with Q(y) treated as a constant target,
            // pulling outcomes toward the nearest centroid.
            let y_val = tape.value(x).clone();
            let q_const: Vec<f64> = y_val
                .data()
                .iter()
                .map(|&v| quantize_value(v, spec.levels, spec.p_min, spec.p_max))
                .collect();
            let qc = tape.input(Tensor::new(q_const, y_val.shape().to_vec()));
            let diff = tape.sub(x, qc);
            let sq = tape.mul(diff, diff);
            let pen_b = tape.mean(sq);
            penalty = Some(match penalty {
                Some(p) => tape.add(p, pen_b),
                None => pen_b,
            });
            x = tape.quantize_ste(x, spec.levels, spec.p_min, spec.p_max);
        }
    }

    let head = head_matrix(n_q, qnn.config().n_classes);
    let logits = tape.matmul_const(x, head);
    let ce = tape.softmax_cross_entropy(logits, labels);
    let loss = match penalty {
        Some(p) if opts.quant_penalty != 0.0 => {
            let scaled = tape.scale(p, opts.quant_penalty);
            tape.add(ce, scaled)
        }
        _ => ce,
    };

    let grads_all = tape.backward(loss);
    let mut grads = vec![0.0; qnn.n_params()];
    for (bi, &pv) in param_vars.iter().enumerate() {
        let g = grads_all.get(pv, &tape);
        let off = qnn.block_offset(bi);
        grads[off..off + g.len()].copy_from_slice(g.data());
    }
    let pen_val = penalty.map(|p| tape.value(p).item()).unwrap_or(0.0);
    TrainStep {
        loss: tape.value(loss).item(),
        ce_loss: tape.value(ce).item(),
        penalty: pen_val,
        probs: tape
            .aux(ce)
            .expect("cross-entropy stores probabilities")
            .clone(),
        grads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch() -> (Vec<Vec<f64>>, Vec<usize>) {
        let features: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..16)
                    .map(|k| ((i * 16 + k) as f64 * 0.37).sin().abs())
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        (features, labels)
    }

    #[test]
    fn forward_produces_finite_loss_and_grads() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 1);
        let (features, labels) = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let step = train_forward(
            &qnn,
            &features,
            &labels,
            &PipelineOptions::default(),
            &mut rng,
        );
        assert!(step.loss.is_finite());
        assert!(step.ce_loss > 0.0);
        assert_eq!(step.grads.len(), qnn.n_params());
        assert!(step.grads.iter().any(|g| g.abs() > 1e-9), "dead gradients");
        assert_eq!(step.probs.shape(), &[8, 4]);
    }

    #[test]
    fn gradients_match_finite_difference_baseline_pipeline() {
        // Deterministic pipeline (no noise, no quantization) so finite
        // differences are exact.
        let mut qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 1), 2);
        let (features, labels) = toy_batch();
        let opts = PipelineOptions {
            noise: NoiseSource::None,
            readout: None,
            normalize: true,
            quantize: None,
            quant_penalty: 0.0,
            process_last: false,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let step = train_forward(&qnn, &features, &labels, &opts, &mut rng);
        let base = qnn.parameters().to_vec();
        let eps = 1e-5;
        for j in [0usize, 3, 11, base.len() - 1] {
            let mut pp = base.clone();
            pp[j] += eps;
            qnn.set_parameters(&pp);
            let lp = train_forward(&qnn, &features, &labels, &opts, &mut rng).loss;
            let mut pm = base.clone();
            pm[j] -= eps;
            qnn.set_parameters(&pm);
            let lm = train_forward(&qnn, &features, &labels, &opts, &mut rng).loss;
            qnn.set_parameters(&base);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (step.grads[j] - fd).abs() < 1e-4,
                "param {j}: autodiff {} vs fd {fd}",
                step.grads[j]
            );
        }
    }

    #[test]
    fn quantization_penalty_reported() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 1), 3);
        let (features, labels) = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let opts = PipelineOptions {
            quantize: Some(QuantizeSpec::levels(5)),
            quant_penalty: 0.5,
            ..PipelineOptions::default()
        };
        let step = train_forward(&qnn, &features, &labels, &opts, &mut rng);
        assert!(step.penalty >= 0.0);
        assert!((step.loss - (step.ce_loss + 0.5 * step.penalty)).abs() < 1e-10);
    }

    #[test]
    fn worker_count_does_not_change_the_step() {
        let device = qnat_noise::presets::santiago();
        let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 5).unwrap();
        let opts = PipelineOptions {
            noise: NoiseSource::GateInsertion {
                model: &device,
                factor: 1.5,
            },
            readout: Some(&device),
            ..PipelineOptions::default()
        };
        let (features, labels) = toy_batch();
        for n in [1, 5, 8] {
            let (features, labels) = (&features[..n], &labels[..n]);
            let mut rng = StdRng::seed_from_u64(9);
            let serial = train_forward_on(&qnn, features, labels, &opts, &mut rng, 1);
            let after = rng.gen::<u64>();
            for workers in [2, 3, 4, 7, 64] {
                let mut rng = StdRng::seed_from_u64(9);
                let step = train_forward_on(&qnn, features, labels, &opts, &mut rng, workers);
                assert_eq!(
                    step.loss.to_bits(),
                    serial.loss.to_bits(),
                    "batch {n}, {workers} workers"
                );
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&step.grads),
                    bits(&serial.grads),
                    "batch {n}, {workers} workers"
                );
                assert_eq!(bits(step.probs.data()), bits(serial.probs.data()));
                assert_eq!(
                    rng.gen::<u64>(),
                    after,
                    "batch {n}, {workers} workers: RNG state"
                );
            }
        }
    }

    #[test]
    fn single_block_model_skips_norm_and_quant() {
        // Fully-quantum model (Appendix A.3.3): one block — pipeline has no
        // intermediate processing, so penalty must be zero.
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 4);
        let (features, labels) = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let step = train_forward(
            &qnn,
            &features,
            &labels,
            &PipelineOptions::default(),
            &mut rng,
        );
        assert_eq!(step.penalty, 0.0);
    }
}
