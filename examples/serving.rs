//! Serving a QNN as a long-lived front end: deploy once onto persistent
//! per-block engines, then keep answering — interactive inferences, raw
//! circuit tickets polled or streamed, and a background hyper-parameter
//! grid on the bulk lane — while a fault-injecting primary backend fails
//! and trips the per-block admission breakers.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Used by `scripts/ci.sh` as the serve smoke gate: exits nonzero unless
//! the engines complete a nonzero number of jobs across all three traffic
//! patterns.

use quantumnat::core::batch::BatchJob;
use quantumnat::core::executor::RetryPolicy;
use quantumnat::core::health::BreakerPolicy;
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions};
use quantumnat::core::model::{Qnn, QnnConfig};
use quantumnat::core::sweep::SweepConfig;
use quantumnat::noise::fault::{DriftModel, FaultSpec};
use quantumnat::noise::presets;
use quantumnat::serve::{
    bulk_grid_sweep, DeployServing, Lane, OpenAction, Poll, ServeAdmission, ServingOptions,
};
use quantumnat::sim::circuit::Circuit;
use quantumnat::sim::gate::Gate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 7).expect("fits device");

    // A primary in trouble: 60% transient failures plus fleet-wide
    // calibration drift. The admission breaker's job is to notice and
    // route straight to the noise-model fallback.
    let faults = FaultSpec {
        drift: DriftModel::RandomWalk,
        readout_drift_per_job: 0.02,
        gate_drift_per_job: 0.01,
        drift_seed: 0xD21F,
        ..FaultSpec::transient(0.6, 41)
    };
    let serving = qnn
        .deploy_serving(
            &device,
            2,
            RetryPolicy::default(),
            Some(faults),
            &ServingOptions {
                workers: 4,
                seed: 11,
                admission: Some(ServeAdmission {
                    policy: BreakerPolicy::default(),
                    on_open: OpenAction::Fallback,
                }),
                ..ServingOptions::default()
            },
        )
        .expect("deployable");

    // 1. Interactive traffic: whole inferences through the serving
    //    backend, exactly like the batch backend but against live engines.
    let batch: Vec<Vec<f64>> = (0..16)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.017).sin())
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0);
    let result = infer(
        &qnn,
        &batch,
        &InferenceBackend::Deployed(&serving),
        &InferenceOptions::default(),
        &mut rng,
    )
    .expect("fallback keeps the service alive");
    println!(
        "interactive: {} samples served, report: {}",
        batch.len(),
        result.report.expect("serving carries a report")
    );

    // 2. Raw tickets against block 0's engine: subscribe to the result
    //    stream, submit a burst on the bulk lane, poll one ticket while
    //    the stream drains the rest.
    let engine = serving.engine(0);
    let stream = engine.subscribe();
    let tickets: Vec<_> = (0..8)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.push(Gate::ry(0, 0.2 * k as f64 + 0.05));
            c.push(Gate::cx(0, 1));
            engine
                .submit(BatchJob::exact(c), Lane::Bulk)
                .expect("blocking lane accepts the burst")
        })
        .collect();
    let polled = loop {
        match engine.poll(tickets[0]) {
            Poll::Ready(outcome) => break outcome,
            Poll::Queued | Poll::Running => std::thread::yield_now(),
            Poll::Unknown => unreachable!("ticket was just submitted"),
        }
    };
    println!(
        "burst: ticket {} polled ({} attempts), streaming the rest…",
        tickets[0], polled.report.attempts
    );
    // The subscription started after phase 1 drained, so the stream
    // carries exactly the burst's completions.
    for _ in 0..tickets.len() {
        let (ticket, result) = stream.recv().expect("engine is alive");
        println!(
            "  ticket {ticket}: {}",
            if result.is_ok() { "ok" } else { "failed" }
        );
    }

    // 3. Background traffic: the §4.2 quantization grid on the bulk lane.
    let sweep = SweepConfig::default();
    let records = bulk_grid_sweep(&serving, &sweep, &batch, None, &InferenceOptions::default())
        .expect("grid serves through the bulk lane");
    println!("bulk sweep: {} grid points served", records.len());

    // Breaker verdicts and the smoke-gate assertion.
    for key in serving.health_registry().keys() {
        let snap = serving
            .health_registry()
            .snapshot(&key)
            .expect("listed key");
        println!(
            "{key}: {:?}, trips {}, short-circuited {}",
            snap.state, snap.trips, snap.short_circuited
        );
    }
    let stats = serving.drain();
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    println!(
        "drained: {completed} jobs completed across {} block engines",
        stats.len()
    );
    assert!(completed > 0, "serve smoke: engines must complete jobs");
}
