//! Training steps from several threads at once, as a pooled
//! hyper-parameter grid runs them: each thread's blocks fork onto the
//! same parked workers, and a caller takes back any of its chunks no
//! worker has started. Every concurrent step must equal the same step
//! run alone, bit for bit — loss, probabilities, gradients and the
//! caller's RNG state.

use qnat_core::forward::{train_forward, PipelineOptions, QuantizeSpec, TrainStep};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_noise::presets;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Barrier;

const THREADS: usize = 4;
const STEPS: usize = 6;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A step's result as bits, with the RNG's next draw after it.
fn fingerprint(step: &TrainStep, rng: &mut StdRng) -> (Vec<u64>, u64) {
    let mut out = bits(&[step.loss, step.ce_loss, step.penalty]);
    out.extend(bits(step.probs.data()));
    out.extend(bits(&step.grads));
    (out, rng.next_u64())
}

#[test]
fn concurrent_steps_equal_lone_steps() {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 21).unwrap();
    let features: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..16)
                .map(|k| ((i * 16 + k) as f64 * 0.61).sin().abs())
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
    let configs = [
        PipelineOptions {
            noise: NoiseSource::GateInsertion {
                model: &device,
                factor: 1.5,
            },
            readout: Some(&device),
            quantize: Some(QuantizeSpec::levels(6)),
            quant_penalty: 0.05,
            ..PipelineOptions::default()
        },
        PipelineOptions {
            noise: NoiseSource::AnglePerturb { sigma: 0.2 },
            ..PipelineOptions::default()
        },
    ];
    let run = |opts: &PipelineOptions<'_>, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let step = train_forward(&qnn, &features, &labels, opts, &mut rng);
        fingerprint(&step, &mut rng)
    };
    let lone: Vec<Vec<_>> = configs
        .iter()
        .map(|opts| (0..STEPS as u64).map(|s| run(opts, s)).collect())
        .collect();
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (start, lone, configs, run) = (&start, &lone, &configs, &run);
            scope.spawn(move || {
                start.wait();
                for s in 0..STEPS {
                    // Threads walk the configurations out of phase, so
                    // both configurations' chunks share the queue.
                    let c = (s + t) % configs.len();
                    assert_eq!(
                        run(&configs[c], s as u64),
                        lone[c][s],
                        "thread {t}, config {c}, step {s}"
                    );
                }
            });
        }
    });
}
