//! Fleet health on a batched deployment: a dying primary backend trips the
//! per-block circuit breaker, later jobs short-circuit to the noise-model
//! fallback, and a per-job deadline budget caps the backoff any single job
//! may spend. Compare the execution reports with the health layer off and
//! on — same answers, a fraction of the retry bill.
//!
//! ```sh
//! cargo run --release --example fleet_health
//! ```

use quantumnat::core::executor::RetryPolicy;
use quantumnat::core::health::{BreakerPolicy, DeadlinePolicy, HealthPolicy};
use quantumnat::core::infer::{infer, InferenceBackend, InferenceOptions};
use quantumnat::core::model::{Qnn, QnnConfig};
use quantumnat::noise::fault::{DriftModel, FaultSpec};
use quantumnat::noise::presets;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 7).expect("fits device");
    let batch: Vec<Vec<f64>> = (0..32)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.017).sin())
                .collect()
        })
        .collect();

    // A primary in deep trouble: 95% transient failures plus a random-walk
    // calibration drift shared by the whole fleet (one trajectory, sampled
    // at each job's batch-global index).
    let faults = FaultSpec {
        drift: DriftModel::RandomWalk,
        readout_drift_per_job: 0.02,
        gate_drift_per_job: 0.01,
        drift_seed: 0xD21F,
        ..FaultSpec::transient(0.95, 41)
    };

    let policy = HealthPolicy {
        breaker: Some(BreakerPolicy::default()),
        deadline: Some(DeadlinePolicy::PerJob(200)),
    };

    for (label, health) in [("health off", None), ("health on ", Some(policy))] {
        let mut dep = qnn
            .deploy_batch(&device, 2, RetryPolicy::default(), Some(faults), 4, 11)
            .expect("deployable");
        if let Some(h) = health {
            dep = dep.with_health(h);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let result = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .expect("fallback keeps the batch alive");
        let report = result.report.expect("batch run carries a report");
        println!("{label}: {report}");
        let registry = dep.health_registry();
        for key in registry.keys() {
            let snap = registry.snapshot(&key).expect("listed key");
            println!(
                "  {key}: {:?}, trips {}, recoveries {}, short-circuited {}",
                snap.state, snap.trips, snap.recoveries, snap.short_circuited
            );
        }
    }
    println!();
    println!("The breaker remembers what each per-job executor would rediscover:");
    println!("after one epoch of failures the whole fleet routes around the dying");
    println!("primary, and the per-job deadline keeps any straggler's backoff");
    println!("spend bounded.");
}
