//! Differentiable training forward pass.
//!
//! Builds the full QuantumNAT pipeline on the autodiff tape for one batch:
//! quantum blocks (with noise injection and readout-error emulation),
//! post-measurement normalization, straight-through quantization with the
//! quadratic centroid penalty `‖y − Q(y)‖²` (Fig. 6), the fixed
//! classification head and softmax cross-entropy.
//!
//! Each quantum block runs in three parts:
//!
//! 1. Every sample's random draws (angle noise, error-gate plan from the
//!    block's compiled [`qnat_noise::inject::ErrorSampler`]) are made
//!    serially, in sample order, from the caller's RNG — exactly the
//!    order a one-sample-at-a-time loop consumes them.
//! 2. The batch runs forward through the block's template in one shared
//!    walk ([`qnat_sim::adjoint::batch_forward`]), in contiguous chunks
//!    of samples forked onto the process's block workers (the
//!    caller runs the first chunk, and any chunk no worker has started).
//!    Each chunk keeps its samples and final states for the tape's
//!    quantum node. This part (`block_forward`) is also the forward of
//!    inference's simulated backends and of `Qnn::eval_block` without
//!    gradients.
//! 3. On the backward pass the node's vector-Jacobian product runs one
//!    adjoint sweep per chunk ([`qnat_sim::adjoint::batch_vjp`]), seeded
//!    by the upstream gradient times each qubit's readout slope γ: one
//!    co-state per sample instead of one per observable, and no
//!    Jacobian. Block 0 stops the sweep where the encoder prefix begins,
//!    since its inputs are the features.
//!
//! A sample's arithmetic does not depend on which samples share its
//! chunk, each sample lands in its own slot, and per-sample parameter
//! gradients are summed in sample order, so the step is bitwise
//! identical for any worker count.

use crate::head::head_matrix;
use crate::model::{Block, BlockNoise, NoiseSource, PreparedSample, Qnn};
use crate::normalize::NORM_EPS;
use crate::pool;
use qnat_autodiff::tape::{quantize_value, Tape, Var};
use qnat_autodiff::tensor::Tensor;
use qnat_noise::device::DeviceModel;
use qnat_sim::adjoint::{batch_forward, batch_vjp, expect_z, BatchSample};
use qnat_sim::math::C64;
use rand::Rng;
use std::sync::Arc;

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

/// One worker's contiguous share of a block's batch: its prepared
/// samples and, once run forward, their final states.
struct Chunk {
    samples: Vec<PreparedSample>,
    /// Final states over the block's routing window, `[len, 2ⁿ]`.
    states: Vec<C64>,
}

/// A block run forward on a batch of prepared samples.
pub(crate) struct BlockForward {
    /// The batch in sample order, one chunk per worker.
    chunks: Vec<Chunk>,
    /// Each logical qubit's `⟨Z⟩` after readout, `[batch, n_qubits]`.
    pub(crate) outputs: Vec<f64>,
}

/// The forward run of training, inference and `eval_block`: prepared
/// samples through block `block` in one shared walk
/// ([`qnat_sim::adjoint::batch_forward`]), split into up to `workers`
/// contiguous chunks forked onto the block workers, then each
/// logical qubit's `⟨Z⟩` through `noise`'s readout map. A sample's
/// outputs do not depend on the batch or the chunking.
pub(crate) fn block_forward(
    qnn: &Qnn,
    block: usize,
    samples: Vec<PreparedSample>,
    noise: &BlockNoise,
    workers: usize,
) -> BlockForward {
    let batch = samples.len();
    let chunk = batch.div_ceil(workers.clamp(1, batch.max(1))).max(1);
    let mut samples = samples.into_iter();
    let jobs = (0..batch.div_ceil(chunk)).map(|_| {
        let samples: Vec<PreparedSample> = samples.by_ref().take(chunk).collect();
        let blocks = qnn.shared_blocks();
        move || {
            let b = &blocks[block];
            let template = &b.lowered.circuit;
            let dim = 1usize << template.n_qubits();
            let mut states = vec![C64::ZERO; samples.len() * dim];
            let batch: Vec<BatchSample<'_>> =
                samples.iter().map(PreparedSample::batch_sample).collect();
            batch_forward(template, &batch, &mut states);
            let outputs: Vec<f64> = states
                .chunks_exact(dim)
                .flat_map(|state| b.obs.iter().map(move |&q| expect_z(state, q)))
                .collect();
            (Chunk { samples, states }, outputs)
        }
    });
    let (chunks, outputs): (Vec<Chunk>, Vec<Vec<f64>>) = pool::fork(jobs).into_iter().unzip();
    let mut outputs = outputs.concat();
    for out in outputs.chunks_exact_mut(qnn.blocks()[block].obs.len()) {
        noise.apply_readout(out);
    }
    BlockForward { chunks, outputs }
}

/// One block run forward on a batch, kept for its vector-Jacobian
/// product.
struct BlockRun {
    blocks: Arc<[Block]>,
    block: usize,
    chunks: Vec<Arc<Chunk>>,
    /// Readout slope γ per logical qubit.
    slopes: Arc<[f64]>,
}

impl BlockRun {
    /// The vector-Jacobian product for the upstream gradient `upstream`
    /// `[batch, n_qubits]`: the gradient of the block's inputs (`None`
    /// for block 0, whose inputs are the features) and of its trainable
    /// parameters.
    fn vjp(&self, upstream: &Tensor) -> (Option<Tensor>, Tensor) {
        let b = &self.blocks[self.block];
        let n_q = b.obs.len();
        let (n_in, n_p) = (b.encoder.n_features(), b.n_train);
        let need_inputs = self.block > 0;
        let from = if need_inputs {
            0
        } else {
            b.first_trainable_slot()
        };
        let mut up = upstream.data().chunks_exact(n_q);
        let jobs = self.chunks.iter().map(|chunk| {
            let up: Vec<f64> = up
                .by_ref()
                .take(chunk.samples.len())
                .flatten()
                .copied()
                .collect();
            let (blocks, block) = (Arc::clone(&self.blocks), self.block);
            let (chunk, slopes) = (Arc::clone(chunk), Arc::clone(&self.slopes));
            move || chunk_vjp(&blocks[block], &chunk, &up, &slopes, from, need_inputs)
        });
        let rows = pool::fork(jobs);
        // Per-sample parameter gradients, summed in sample order.
        let width = n_in + n_p;
        let rows = || rows.iter().flat_map(|rows| rows.chunks_exact(width));
        let mut gp = vec![0.0; n_p];
        for row in rows() {
            for (acc, &v) in gp.iter_mut().zip(&row[n_in..]) {
                *acc += v;
            }
        }
        let gx = need_inputs.then(|| {
            let gx = rows().flat_map(|row| &row[..n_in]).copied().collect();
            Tensor::new(gx, vec![upstream.shape()[0], n_in])
        });
        (gx, Tensor::vector(gp))
    }
}

/// One chunk's share of a block's vector-Jacobian product: per sample,
/// the input gradient (left zero unless `need_inputs`), then the
/// parameter gradient. `up` is the chunk's upstream gradient
/// `[len, n_qubits]`; the sweep stops at slot `from`.
fn chunk_vjp(
    b: &Block,
    chunk: &Chunk,
    up: &[f64],
    slopes: &[f64],
    from: usize,
    need_inputs: bool,
) -> Vec<f64> {
    let template = &b.lowered.circuit;
    let n_win = template.n_qubits();
    let n_slots = template.n_params();
    let (len, n_q) = (chunk.samples.len(), b.obs.len());
    let (n_in, n_p) = (b.encoder.n_features(), b.n_train);
    let mut seeds = vec![0.0; len * n_win];
    for (w, up) in seeds.chunks_exact_mut(n_win).zip(up.chunks_exact(n_q)) {
        for ((&q, &u), &gamma) in b.obs.iter().zip(up).zip(slopes) {
            w[q] = u * gamma;
        }
    }
    let mut compiled = vec![0.0; len * n_slots];
    let samples: Vec<BatchSample<'_>> = chunk
        .samples
        .iter()
        .map(PreparedSample::batch_sample)
        .collect();
    batch_vjp(
        template,
        &samples,
        &chunk.states,
        &seeds,
        1,
        from,
        &mut compiled,
    );
    let scale = b.encoder.scale();
    let width = n_in + n_p;
    let mut rows = vec![0.0; len * width];
    for (row, compiled) in rows
        .chunks_exact_mut(width)
        .zip(compiled.chunks_exact(n_slots.max(1)))
    {
        let logical = b.lowered.chain_gradient(compiled);
        let (enc, train) = logical.split_at(b.n_enc);
        let (gx, gp) = row.split_at_mut(n_in);
        gp.copy_from_slice(train);
        if need_inputs {
            for (dst, &c) in gx.iter_mut().zip(enc) {
                *dst = c * scale;
            }
        }
    }
    rows
}

/// Runs the full differentiable pipeline on one batch and returns loss,
/// probabilities and parameter gradients.
///
/// Blocks run forward and backward on
/// `std::thread::available_parallelism()` threads; the result is bitwise
/// identical for any thread count (see the module docs).
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
    train_forward_on(qnn, features, labels, opts, rng, pool::threads())
}

/// [`train_forward`] with an explicit worker count.
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
        // Every sample's random draws, in sample order.
        let noise = qnn.block_noise(bi, &opts.noise, opts.readout);
        let inputs = tape.value(x);
        let n_in = inputs.shape()[1];
        let prepared: Vec<PreparedSample> = inputs
            .data()
            .chunks_exact(n_in)
            .map(|row| qnn.prepare(bi, row, &noise, rng))
            .collect();
        // The shared forward walk, on all cores; the VJP runs on the
        // backward pass.
        let fwd = block_forward(qnn, bi, prepared, &noise, workers);
        let out = Tensor::new(fwd.outputs, vec![batch, n_q]);
        let run = BlockRun {
            blocks: qnn.shared_blocks(),
            block: bi,
            chunks: fwd.chunks.into_iter().map(Arc::new).collect(),
            slopes: noise.readout_slopes(n_q).into(),
        };
        x = tape.quantum(x, pv, out, Box::new(move |g| run.vjp(g)));

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
