//! Oracle for the batch `train_forward`: the shared-walk step with its
//! vector-Jacobian products must reproduce the serial per-sample loop,
//! which evaluates each sample's block with `eval_block` — drawing its
//! noise and computing its Jacobians — before moving to the next sample,
//! and contracts those Jacobians with the upstream gradient on the
//! backward pass.
//!
//! The serial reference below is that loop, kept as the definition of
//! the step. Every listed configuration must agree on loss,
//! cross-entropy, penalty and probabilities bit for bit, and leave the
//! caller's RNG in the same state. Gradients agree to 1e-12 relative to
//! the largest entry: a VJP sums `Σ_q g_q·∂⟨Z_q⟩/∂θ` inside the adjoint
//! sweep, while the reference sums the same terms after it, so the two
//! round differently.
//!
//! `eval_block` without gradients runs the forward that the batch step
//! and inference share, as a batch of one; for each noise source and
//! readout setting its outputs must equal the gradient path's bit for
//! bit, drawing the same randomness.

use qnat_autodiff::tape::{quantize_value, Tape, Var};
use qnat_autodiff::tensor::Tensor;
use qnat_core::forward::{train_forward, PipelineOptions, QuantizeSpec, TrainStep};
use qnat_core::head::head_matrix;
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::normalize::NORM_EPS;
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The serial step: one `eval_block` per sample, in sample order.
fn serial_train_forward<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    labels: &[usize],
    opts: &PipelineOptions<'_>,
    rng: &mut R,
) -> TrainStep {
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
        let inputs_t = tape.value(x).clone();
        let n_in = inputs_t.shape()[1];
        let mut out_rows = Vec::with_capacity(batch);
        let mut jx = Vec::with_capacity(batch);
        let mut jp = Vec::with_capacity(batch);
        for i in 0..batch {
            let row: Vec<f64> = (0..n_in).map(|k| inputs_t.get2(i, k)).collect();
            let ev = qnn.eval_block(bi, &row, &opts.noise, opts.readout, true, rng);
            out_rows.push(ev.outputs);
            jx.push(ev.jac_inputs);
            jp.push(ev.jac_params);
        }
        let n_p = qnn.block_params(bi).len();
        // The reference VJP: contract each sample's Jacobians with its
        // upstream gradient row.
        let vjp = move |g: &Tensor| {
            let mut gx = vec![0.0; batch * n_in];
            let mut gp = vec![0.0; n_p];
            for i in 0..batch {
                for q in 0..n_q {
                    let go = g.get2(i, q);
                    for k in 0..n_in {
                        gx[i * n_in + k] += go * jx[i][q][k];
                    }
                    for j in 0..n_p {
                        gp[j] += go * jp[i][q][j];
                    }
                }
            }
            (Some(Tensor::new(gx, vec![batch, n_in])), Tensor::vector(gp))
        };
        x = tape.quantum(x, pv, Tensor::from_rows(&out_rows), Box::new(vjp));

        let last = bi + 1 == n_blocks;
        if last && !opts.process_last {
            break;
        }
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_matches(got: &TrainStep, want: &TrainStep, what: &str) {
    assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{what}: loss");
    assert_eq!(
        got.ce_loss.to_bits(),
        want.ce_loss.to_bits(),
        "{what}: ce_loss"
    );
    assert_eq!(
        got.penalty.to_bits(),
        want.penalty.to_bits(),
        "{what}: penalty"
    );
    assert_eq!(got.probs.shape(), want.probs.shape(), "{what}: probs shape");
    assert_eq!(
        bits(got.probs.data()),
        bits(want.probs.data()),
        "{what}: probs"
    );
    assert_eq!(got.grads.len(), want.grads.len(), "{what}: grads length");
    let scale = want.grads.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    for (k, (g, w)) in got.grads.iter().zip(&want.grads).enumerate() {
        assert!(
            (g - w).abs() <= 1e-12 * scale,
            "{what}: grad {k}: {g} vs {w} (max |g| {scale})"
        );
    }
}

/// Runs every block on every row through `eval_block` with and without
/// gradients, from two RNGs with the same seed: outputs and the final
/// RNG state must agree bit for bit. Later blocks read a row's first
/// inputs.
fn assert_forward_paths_agree(
    qnn: &Qnn,
    opts: &PipelineOptions<'_>,
    rows: &[Vec<f64>],
    seed: u64,
    what: &str,
) {
    let mut plain = StdRng::seed_from_u64(seed);
    let mut grads = StdRng::seed_from_u64(seed);
    for bi in 0..qnn.blocks().len() {
        let n_in = qnn.blocks()[bi].encoder.n_features();
        for row in rows {
            let row = &row[..n_in];
            let a = qnn.eval_block(bi, row, &opts.noise, opts.readout, false, &mut plain);
            let b = qnn.eval_block(bi, row, &opts.noise, opts.readout, true, &mut grads);
            assert_eq!(
                bits(&a.outputs),
                bits(&b.outputs),
                "{what}: block {bi} eval_block outputs"
            );
        }
    }
    assert_eq!(
        plain.next_u64(),
        grads.next_u64(),
        "{what}: RNG state after eval_block"
    );
}

fn batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let features = (0..n)
        .map(|i| {
            (0..16)
                .map(|k| ((i * 16 + k) as f64 * 0.61).sin().abs())
                .collect()
        })
        .collect();
    let labels = (0..n).map(|i| (i * 7) % 4).collect();
    (features, labels)
}

#[test]
fn batch_step_matches_the_serial_step() {
    let device = presets::santiago();
    let sources = [
        ("none", NoiseSource::None),
        (
            "gates T=0.5",
            NoiseSource::GateInsertion {
                model: &device,
                factor: 0.5,
            },
        ),
        (
            "gates T=1.5",
            NoiseSource::GateInsertion {
                model: &device,
                factor: 1.5,
            },
        ),
        ("angles", NoiseSource::AnglePerturb { sigma: 0.2 }),
        (
            "outcomes",
            NoiseSource::OutcomePerturb {
                mu: 0.05,
                sigma: 0.3,
            },
        ),
    ];
    let mut configs = 0;
    for n_blocks in [1, 2] {
        let qnn = Qnn::for_device(QnnConfig::standard(16, 4, n_blocks, 2), &device, 17)
            .expect("santiago fits the standard model");
        for (name, noise) in sources {
            for readout in [None, Some(&device)] {
                for process_last in [false, true] {
                    for n in [1, 3, 48] {
                        let (features, labels) = batch(n);
                        let opts = PipelineOptions {
                            noise,
                            readout,
                            normalize: true,
                            quantize: Some(QuantizeSpec::levels(5)),
                            quant_penalty: 0.1,
                            process_last,
                        };
                        let seed = (configs as u64) * 7919 + 3;
                        let mut serial_rng = StdRng::seed_from_u64(seed);
                        let mut batch_rng = StdRng::seed_from_u64(seed);
                        let want =
                            serial_train_forward(&qnn, &features, &labels, &opts, &mut serial_rng);
                        let got = train_forward(&qnn, &features, &labels, &opts, &mut batch_rng);
                        let what = format!(
                            "{name}, blocks {n_blocks}, readout {}, process_last {process_last}, batch {n}",
                            readout.is_some()
                        );
                        assert_matches(&got, &want, &what);
                        assert_eq!(
                            batch_rng.next_u64(),
                            serial_rng.next_u64(),
                            "{what}: RNG state after the step"
                        );
                        if n == 3 && !process_last {
                            assert_forward_paths_agree(&qnn, &opts, &features, seed, &what);
                        }
                        configs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(configs, 2 * 5 * 2 * 2 * 3);
}
