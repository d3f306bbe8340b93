//! `train`: closed-loop, in-process noise-injected training — the cost
//! the paper's method pays.
//!
//! The full QuantumNAT arm on MNIST-4: 2 blocks × 2 U3+CU3 layers routed
//! for Santiago, error-gate insertion at T = 0.5 plus readout injection,
//! normalization, 6-level quantization with λ = 0.05, batch 48,
//! `train_forward` + `Adam::step`. It never touches the emulator, the
//! engine or the transport.

use crate::schedule::{rng, sub_seed, Stream};
use crate::stats::{mean, median, Speed, Windowed};
use crate::trace::{durations_us, Span, Tracer};
use crate::{timed_setups, yardstick, Metrics, Outcome};
use qnat_autodiff::tape::quantize_value;
use qnat_core::forward::{train_forward, PipelineOptions, QuantizeSpec};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::normalize::normalize_batch;
use qnat_core::train::{Adam, AdamConfig};
use qnat_data::dataset::{batch_indices, build, Dataset, Task, TaskConfig};
use qnat_json::Json;
use qnat_noise::device::DeviceModel;
use qnat_noise::inject::insert_error_gates;
use qnat_noise::presets;
use qnat_sim::adjoint::adjoint_gradients;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BLOCKS: usize = 2;
const LAYERS: usize = 2;
const BATCH: usize = 48;
/// Eight full batches per epoch, so every step does the same work.
const N_TRAIN: usize = 8 * BATCH;
const NOISE_FACTOR: f64 = 0.5;
const QUANT_LEVELS: usize = 6;
const QUANT_PENALTY: f64 = 0.05;
const LR: f64 = 1e-2;
/// The traced run decomposes every `REPLAY_EVERY`-th step into its
/// layer calls.
const REPLAY_EVERY: u64 = 4;
/// Samples per block whose `eval_block` is further split into bind,
/// injection, adjoint and chain-rule calls.
const PIECES_PER_BLOCK: usize = 4;

struct Model {
    data: Dataset,
    qnn: Qnn,
    adam: Adam,
}

fn setup(seed: u64) -> Model {
    let data = build(
        Task::Mnist4,
        &TaskConfig {
            n_train: N_TRAIN,
            n_valid: 0,
            n_test: 0,
            seed: sub_seed(seed, Stream::Data),
        },
    );
    let qnn = Qnn::for_device(
        QnnConfig::standard(16, 4, BLOCKS, LAYERS),
        &presets::santiago(),
        sub_seed(seed, Stream::Init),
    )
    .expect("santiago fits the standard model");
    let adam = Adam::new(AdamConfig::default(), qnn.n_params());
    Model { data, qnn, adam }
}

fn pipeline(device: &DeviceModel) -> PipelineOptions<'_> {
    PipelineOptions {
        noise: NoiseSource::GateInsertion {
            model: device,
            factor: NOISE_FACTOR,
        },
        readout: Some(device),
        normalize: true,
        quantize: Some(QuantizeSpec::levels(QUANT_LEVELS)),
        quant_penalty: QUANT_PENALTY,
        process_last: false,
    }
}

/// What one training pass measured.
struct Pass {
    /// `(seconds into the pass, ms)` per step.
    steps: Vec<(f64, f64)>,
    /// `(seconds into the pass, 0, ms)` per yardstick unit, timed on the
    /// training thread after each step.
    units: Vec<(f64, usize, f64)>,
    epoch_loss: Vec<f64>,
    failed: u64,
    violations: Vec<String>,
    injected: Vec<f64>,
    spans: Vec<Span>,
}

/// Trains `model` for `seconds` (whole epochs), timing each step.
fn pass(mut model: Model, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Pass {
    let device = presets::santiago();
    let opts = pipeline(&device);
    let mut batch_rng = rng(seed, Stream::Batches);
    let mut noise_rng = rng(seed, Stream::Noise);
    let mut replay_rng = rng(seed, Stream::Replay);
    let mut out = Pass {
        steps: Vec::new(),
        units: Vec::new(),
        epoch_loss: Vec::new(),
        failed: 0,
        violations: Vec::new(),
        injected: Vec::new(),
        spans: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let mut loss_sum = 0.0;
        for idx in batch_indices(N_TRAIN, BATCH, &mut batch_rng) {
            let features: Vec<Vec<f64>> = idx
                .iter()
                .map(|&i| model.data.train[i].features.clone())
                .collect();
            let labels: Vec<usize> = idx.iter().map(|&i| model.data.train[i].label).collect();
            let t0 = Instant::now();
            let step = train_forward(&model.qnn, &features, &labels, &opts, &mut noise_rng);
            let t1 = Instant::now();
            let mut params = model.qnn.parameters().to_vec();
            let applied = model.adam.step(&mut params, &step.grads, LR);
            model.qnn.set_parameters(&params);
            let t2 = Instant::now();
            out.units
                .push(((t2 - start).as_secs_f64(), 0, yardstick::unit_ms()));

            let step_no = out.steps.len() as u64;
            out.steps
                .push(((t0 - start).as_secs_f64(), (t2 - t0).as_secs_f64() * 1e3));
            loss_sum += step.loss * labels.len() as f64;
            let finite = step.loss.is_finite() && step.grads.iter().all(|g| g.is_finite());
            if !finite || !applied {
                out.failed += 1;
                if out.violations.len() < 5 {
                    out.violations.push(format!(
                        "step {step_no}: loss {} finite grads {finite} applied {applied}",
                        step.loss
                    ));
                }
            }
            if let Some(tracer) = tracer {
                tracer.record("core.train_forward", step_no, "train.step", t0, t1);
                tracer.record("core.adam", step_no, "train.step", t1, t2);
                if step_no.is_multiple_of(REPLAY_EVERY) {
                    replay(
                        &model.qnn,
                        &features,
                        &opts,
                        &mut replay_rng,
                        tracer,
                        step_no,
                        &mut out.injected,
                    );
                }
            }
        }
        out.epoch_loss.push(loss_sum / N_TRAIN as f64);
    }
    if let Some(tracer) = tracer {
        out.spans = tracer.take();
    }
    match (out.epoch_loss.first(), out.epoch_loss.last()) {
        (Some(first), Some(last)) if out.epoch_loss.len() >= 2 && last < first => {}
        _ => out.violations.push(format!(
            "mean loss did not fall from the first epoch to the last: {:?}",
            (
                out.epoch_loss.first(),
                out.epoch_loss.last(),
                out.epoch_loss.len()
            )
        )),
    }
    out
}

/// Re-runs one step's quantum blocks call by call, so the traced run
/// can time the layers `train_forward` calls internally: every
/// `eval_block` of the batch, and for a few samples per block its bind,
/// injection, adjoint and chain-rule calls. Block 1 is fed block 0's
/// normalized and quantized outputs, as in the pipeline.
fn replay(
    qnn: &Qnn,
    features: &[Vec<f64>],
    opts: &PipelineOptions<'_>,
    rng: &mut StdRng,
    tracer: &Tracer,
    step: u64,
    injected: &mut Vec<f64>,
) {
    let NoiseSource::GateInsertion { model, factor } = opts.noise else {
        unreachable!("the train workload injects gate errors");
    };
    let mut inputs = features.to_vec();
    for (bi, block) in qnn.blocks().iter().enumerate() {
        let mut outputs = Vec::with_capacity(inputs.len());
        for (i, row) in inputs.iter().enumerate() {
            let ev = tracer.time("core.eval_block", step, "core.train_forward", || {
                qnn.eval_block(bi, row, &opts.noise, opts.readout, true, rng)
            });
            outputs.push(ev.outputs);
            if i >= PIECES_PER_BLOCK {
                continue;
            }
            let mut params = block.encoder.angles(row);
            params.extend_from_slice(qnn.block_params(bi));
            let bound = tracer.time("compiler.bind", step, "core.eval_block", || {
                block.lowered.bind(&params)
            });
            let (run, stats) = tracer.time("noise.inject", step, "core.eval_block", || {
                insert_error_gates(&bound, model, factor, rng)
            });
            injected.push(stats.inserted_gates as f64);
            let grad = tracer.time("sim.adjoint", step, "core.eval_block", || {
                adjoint_gradients(&run, &block.obs)
            });
            for g in &grad.gradients {
                black_box(tracer.time("compiler.chain", step, "core.eval_block", || {
                    block.lowered.chain_gradient(g)
                }));
            }
        }
        if bi + 1 == qnn.blocks().len() {
            break;
        }
        normalize_batch(&mut outputs);
        let spec = QuantizeSpec::levels(QUANT_LEVELS);
        for v in outputs.iter_mut().flatten() {
            *v = quantize_value(*v, spec.levels, spec.p_min, spec.p_max);
        }
        inputs = outputs;
    }
}

fn config() -> Json {
    Json::obj([
        (
            "dataset",
            Json::Str(format!("mnist-4, {N_TRAIN} training samples")),
        ),
        (
            "model",
            Json::Str(format!(
                "{BLOCKS} blocks x {LAYERS} U3+CU3 layers, routed for santiago"
            )),
        ),
        (
            "noise",
            Json::Str(format!(
                "gate insertion T={NOISE_FACTOR} + readout injection"
            )),
        ),
        (
            "post",
            Json::Str(format!(
                "normalize + {QUANT_LEVELS}-level quantize, lambda={QUANT_PENALTY}"
            )),
        ),
        (
            "optimizer",
            Json::Str(format!("adam lr={LR}, batch {BATCH}")),
        ),
        ("loop", Json::Str("closed, one thread, whole epochs".into())),
    ])
}

/// The pass's steps in windows, each with the yardstick's slowdown.
fn windowed(p: &Pass) -> Windowed {
    Windowed::of(&p.steps, &Speed::of(&p.units))
}

/// Whole-run and quiet-window step figures, with the loss trajectory.
fn step_summary(p: &Pass) -> Json {
    let windowed = windowed(p);
    let (all, quiet) = windowed.all_and_quiet();
    Json::obj([
        ("epochs", Json::Num(p.epoch_loss.len() as f64)),
        (
            "first_epoch_loss",
            Json::Num(p.epoch_loss.first().copied().unwrap_or(f64::NAN)),
        ),
        (
            "last_epoch_loss",
            Json::Num(p.epoch_loss.last().copied().unwrap_or(f64::NAN)),
        ),
        ("sent", Json::Num(p.steps.len() as f64)),
        (
            "succeeded",
            Json::Num((p.steps.len() as u64 - p.failed) as f64),
        ),
        ("failed", Json::Num(p.failed as f64)),
        ("refused", Json::Num(0.0)),
        (
            "train_samples_per_s",
            Json::Num(quiet.per_busy_s * BATCH as f64),
        ),
        ("train_step_p50_ms", Json::Num(quiet.p50_ms)),
        ("train_step_p90_ms", Json::Num(quiet.p90_ms)),
        ("train_step_tail_ms", Json::Num(quiet.tail_ms())),
        ("all_windows", all.to_json()),
        ("quiet_windows", quiet.to_json()),
        ("window_p50_ms", windowed.p50s()),
        ("window_slowdown", windowed.slowdowns()),
    ])
}

/// Runs the workload: end-to-end metrics untraced, or per-layer metrics
/// from a traced pass next to an untraced one of equal length.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut metrics = Metrics::new();
    if !traced {
        let (setup_time, model) = timed_setups(|| setup(seed));
        let p = pass(model, seed, seconds, None);
        let attempted = p.steps.len() as u64;
        let (_, quiet) = windowed(&p).all_and_quiet();
        metrics.insert("setup_s", setup_time.scaled_s);
        metrics.insert(
            "ok_share",
            (attempted - p.failed) as f64 / attempted.max(1) as f64,
        );
        metrics.insert("throughput_per_s", quiet.per_busy_s * BATCH as f64);
        metrics.insert("p50_ms", quiet.p50_ms);
        return Outcome {
            attempted,
            failed: p.failed,
            detail: Json::obj([
                ("untraced", step_summary(&p)),
                ("setup_raw_s", Json::Num(setup_time.raw_s)),
            ]),
            violations: p.violations,
            metrics,
            config: config(),
            spans: Vec::new(),
        };
    }

    let plain = pass(setup(seed), seed, seconds / 2.0, None);
    let tracer = Tracer::default();
    let traced = pass(setup(seed), seed, seconds / 2.0, Some(&tracer));
    let spans = &traced.spans;

    // The tape's share of a replayed step: train_forward minus the
    // eval_block calls it makes.
    let mut evals_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.eval_block") {
        *evals_us.entry(s.req).or_default() += s.us();
    }
    let tape_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.train_forward")
        .filter_map(|f| evals_us.get(&f.req).map(|evals| (f.us() - evals) / 1e3))
        .collect();
    let med = |name: &str| median(&durations_us(spans, name)).unwrap_or(f64::NAN);
    metrics.insert("core.eval_block_us", med("core.eval_block"));
    metrics.insert(
        "core.tape_ms_per_step",
        median(&tape_ms).unwrap_or(f64::NAN),
    );
    metrics.insert("core.adam_us", med("core.adam"));
    metrics.insert("noise.inject_us", med("noise.inject"));
    metrics.insert(
        "noise.injected_gates",
        mean(&traced.injected).unwrap_or(f64::NAN),
    );
    metrics.insert("compiler.bind_us", med("compiler.bind"));
    metrics.insert("compiler.chain_us", med("compiler.chain"));
    metrics.insert("sim.adjoint_us", med("sim.adjoint"));
    let quiet_p50 = |p: &Pass| windowed(p).all_and_quiet().1.p50_ms;
    metrics.insert("trace.overhead_ms", quiet_p50(&traced) - quiet_p50(&plain));

    let detail = Json::obj([
        ("untraced", step_summary(&plain)),
        ("traced", step_summary(&traced)),
    ]);
    let mut violations = plain.violations;
    violations.extend(traced.violations);
    Outcome {
        attempted: (plain.steps.len() + traced.steps.len()) as u64,
        failed: plain.failed + traced.failed,
        violations,
        metrics,
        config: config(),
        detail,
        spans: traced.spans,
    }
}
