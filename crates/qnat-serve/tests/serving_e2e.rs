//! End-to-end acceptance tests for the serving subsystem (ISSUE 4): the
//! batch-replay contract at the deployment level, admission control
//! through a served QNN, and the bulk-lane hyper-parameter grid.

use qnat_core::executor::RetryPolicy;
use qnat_core::health::BreakerPolicy;
use qnat_core::infer::{infer, Deployment, InferenceBackend, InferenceOptions};
use qnat_core::model::{Qnn, QnnConfig};
use qnat_core::sweep::SweepConfig;
use qnat_noise::fault::FaultSpec;
use qnat_noise::presets;
use qnat_serve::{
    bulk_grid_sweep, DeployServing, Lane, LaneConfig, OpenAction, Poll, ServeAdmission,
    ServingOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model() -> Qnn {
    let cfg = QnnConfig::standard(16, 4, 2, 2);
    Qnn::for_device(cfg, &presets::santiago(), 7).expect("santiago fits the standard model")
}

fn features(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.013).sin())
                .collect()
        })
        .collect()
}

/// ISSUE 4 acceptance: the *first* inference through a fresh serving
/// deployment is bitwise identical — logits, raw block outputs and the
/// merged execution report — to the same batch through a fresh
/// `deploy_batch` deployment with the same device, policy, faults and
/// seed. Tickets replay as job indices.
#[test]
fn first_serving_inference_bitwise_matches_fresh_batch_deployment() {
    let qnn = model();
    let batch = features(24);
    let spec = FaultSpec::transient(0.5, 99);
    let opts = InferenceOptions::default();

    let pooled = qnn
        .deploy_batch(
            &presets::santiago(),
            2,
            RetryPolicy::default(),
            Some(spec),
            4,
            11,
        )
        .expect("batch deploy");
    let mut rng = StdRng::seed_from_u64(0);
    let via_batch = infer(
        &qnn,
        &batch,
        &InferenceBackend::Deployed(&pooled),
        &opts,
        &mut rng,
    )
    .expect("batch inference");

    let serving = qnn
        .deploy_serving(
            &presets::santiago(),
            2,
            RetryPolicy::default(),
            Some(spec),
            &ServingOptions {
                workers: 4,
                seed: 11,
                ..ServingOptions::default()
            },
        )
        .expect("serving deploy");
    let mut rng = StdRng::seed_from_u64(0);
    let via_serve = infer(
        &qnn,
        &batch,
        &InferenceBackend::Deployed(&serving),
        &opts,
        &mut rng,
    )
    .expect("served inference");

    // Bitwise: f64 expectations compared by exact equality.
    assert_eq!(via_batch.block_outputs, via_serve.block_outputs);
    assert_eq!(via_batch.logits, via_serve.logits);
    assert_eq!(via_batch.report, via_serve.report);

    // Every block engine served exactly one ticket per sample.
    for stats in serving.drain() {
        assert_eq!(stats.submitted, batch.len() as u64);
        assert_eq!(stats.completed, batch.len() as u64);
        assert_eq!(
            stats.rejected_full + stats.shed_oldest + stats.shed_admission,
            0
        );
    }
}

/// Admission control at the deployment level: under a total primary
/// outage, per-block breakers trip on the first served workload and
/// `OpenAction::Fallback` routes the next workload's jobs straight to the
/// fallback — same logits as the admission-free deployment (the fallback
/// serves every job either way) at a strictly lower attempt bill.
///
/// Two sequential inferences are the point: enqueue-time admission reads
/// signals observed from *completed* jobs, so a breaker tripped by the
/// first workload pays off on the second.
#[test]
fn serving_admission_trips_per_block_breakers_and_cuts_attempts() {
    let qnn = model();
    let batch = features(32);
    let dead = FaultSpec::transient(1.0, 41);
    let opts = InferenceOptions::baseline();
    let run = |admission: Option<ServeAdmission>| {
        let serving = qnn
            .deploy_serving(
                &presets::santiago(),
                2,
                RetryPolicy::default(),
                Some(dead),
                &ServingOptions {
                    workers: 4,
                    seed: 3,
                    admission,
                    ..ServingOptions::default()
                },
            )
            .expect("serving deploy");
        let mut rng = StdRng::seed_from_u64(0);
        let first = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&serving),
            &opts,
            &mut rng,
        )
        .expect("served inference");
        let mut rng = StdRng::seed_from_u64(0);
        let second = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&serving),
            &opts,
            &mut rng,
        )
        .expect("served inference");
        ((first, second), serving)
    };

    let (off, off_serving) = run(None);
    let (on, on_serving) = run(Some(ServeAdmission {
        policy: BreakerPolicy {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_jobs: 8,
            probe_budget: 1,
            decision_interval: 4,
        },
        on_open: OpenAction::Fallback,
    }));

    // The deterministic fallback rescues every job in both runs — before
    // and after the breakers trip.
    assert_eq!(off.0.logits, on.0.logits);
    assert_eq!(off.1.logits, on.1.logits);

    // Without admission no breakers exist; with it, one per block, and
    // the total outage trips each of them.
    assert!(off_serving.health_registry().keys().is_empty());
    let n_blocks = qnn.blocks().len();
    let keys = on_serving.health_registry().keys();
    assert_eq!(keys.len(), n_blocks);
    for bi in 0..n_blocks {
        let key = on_serving.breaker_key(bi);
        let snap = on_serving
            .health_registry()
            .snapshot(&key)
            .expect("per-block breaker registered");
        assert!(snap.trips >= 1, "dead primary must trip {key}");
    }

    // Short circuits are visible in the merged report and pay for
    // themselves: strictly fewer primary attempts than the open-loop run.
    // The reports are cumulative, so the second inference's carries both.
    let off_report = off.1.report.expect("serving carries a report");
    let on_report = on.1.report.expect("serving carries a report");
    assert!(on_report.short_circuited_jobs > 0);
    assert!(
        on_report.attempts < off_report.attempts,
        "admission on: {} attempts, off: {}",
        on_report.attempts,
        off_report.attempts
    );
    drop(off_serving);
    on_serving.drain();
}

/// A block batch refused part-way through submission still waits out the
/// tickets it already submitted: their outcomes are handed over (not left
/// in the engine for good) and their reports reach the deployment's
/// cumulative report before the refusal is returned.
#[test]
fn refused_block_batch_collects_submitted_tickets() {
    let qnn = model();
    let rows = features(4);
    let serving = qnn
        .deploy_serving(
            &presets::santiago(),
            2,
            RetryPolicy::default(),
            None,
            &ServingOptions {
                workers: 1,
                interactive: LaneConfig::rejecting(2),
                ..ServingOptions::default()
            },
        )
        .expect("serving deploy");
    let engine = serving.engine(0);
    engine.pause();
    let result = std::thread::scope(|scope| {
        // Tickets 0 and 1 fill the paused lane and ticket 2 is refused;
        // resume only then, so the batch has to wait for the first two.
        scope.spawn(|| {
            while engine.stats().rejected_full == 0 {
                std::thread::yield_now();
            }
            engine.resume();
        });
        serving.run_block(0, &rows, &mut StdRng::seed_from_u64(0))
    });
    assert!(result.is_err(), "the third submission is refused");
    assert_eq!(engine.poll(0), Poll::Unknown, "ticket 0 was collected");
    assert_eq!(engine.poll(1), Poll::Unknown, "ticket 1 was collected");
    assert_eq!(serving.report().jobs, 2);
    serving.drain();
}

/// The §4.2 grid served as background traffic: records come back in grid
/// order, candidates sharing a quantization level reuse one served
/// evaluation bitwise, accuracies are reported, and the deployment's lane
/// selection is restored.
#[test]
fn bulk_grid_sweep_reports_grid_order_and_caches_levels() {
    let qnn = model();
    let batch = features(8);
    let labels: Vec<usize> = (0..8).map(|k| k % 2).collect();
    let serving = qnn
        .deploy_serving(
            &presets::santiago(),
            2,
            RetryPolicy::default(),
            Some(FaultSpec::transient(0.3, 5)),
            &ServingOptions {
                workers: 2,
                seed: 17,
                ..ServingOptions::default()
            },
        )
        .expect("serving deploy");

    let sweep = SweepConfig::default();
    let grid = sweep.grid();
    let records = bulk_grid_sweep(
        &serving,
        &sweep,
        &batch,
        Some(&labels),
        &InferenceOptions::default(),
    )
    .expect("bulk sweep");

    assert_eq!(records.len(), grid.len());
    for (record, point) in records.iter().zip(&grid) {
        assert_eq!(record.point.levels, point.levels);
        assert_eq!(record.point.t_factor, point.t_factor);
        assert_eq!(record.logits.len(), batch.len());
        let acc = record.accuracy.expect("labels provided");
        assert!((0.0..=1.0).contains(&acc));
    }

    // T is a training-time knob: same level ⇒ identical served logits.
    for a in &records {
        for b in &records {
            if a.point.levels == b.point.levels {
                assert_eq!(a.logits, b.logits);
            }
        }
    }

    // The sweep ran on the bulk lane and restored the previous selection.
    assert_eq!(serving.lane(), Lane::Interactive);
    let distinct_levels = {
        let mut ls = sweep.levels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    };
    for stats in serving.stats() {
        // One ticket per sample per distinct level, nothing rejected.
        assert_eq!(stats.submitted, (batch.len() * distinct_levels) as u64);
        assert_eq!(
            stats.rejected_full + stats.shed_oldest + stats.shed_admission,
            0
        );
    }
    serving.drain();
}
