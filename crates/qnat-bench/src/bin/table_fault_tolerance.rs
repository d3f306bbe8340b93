//! **Fault-tolerance sweep** — Full-arm deployment behind the resilient
//! executor under increasing transient-failure rates.
//!
//! For each fault rate the primary (hardware emulator) backend randomly
//! rejects jobs; the executor retries with exponential backoff and, when a
//! job exhausts its attempts, answers from the Pauli noise-model
//! simulator instead (the paper's Table 11 shows the two agree closely,
//! which is what makes the fallback acceptable). The table reports the
//! delivered accuracy together with the execution-report counters, so the
//! cost of each failure regime is visible: retries, virtual backoff,
//! fallback jobs and whether the deployment degraded permanently.

use qnat_bench::harness::*;
use qnat_core::infer::{infer, InferenceBackend};
use qnat_core::{HealthPolicy, RetryPolicy};
use qnat_data::dataset::Task;
use qnat_noise::{presets, FaultSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fast = std::env::var("QNAT_FAST").is_ok();
    let cfg = RunConfig::default();
    let device = presets::santiago();
    let arch = ArchSpec::u3cu3(2, 2);
    let task = Task::Mnist4;

    let (qnn, ds, _) = train_arm(task, arch, &device, Arm::Full, &cfg);
    let feats: Vec<Vec<f64>> = ds.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = ds.test.iter().map(|s| s.label).collect();

    let rates: &[f64] = if fast {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
    };
    let mut rows = Vec::new();
    for &rate in rates {
        let faults = if rate > 0.0 {
            Some(FaultSpec {
                timeout_rate: rate / 10.0,
                shot_truncation_rate: rate / 5.0,
                shot_truncation_factor: 0.5,
                ..FaultSpec::transient(rate, 0xFA01 + (rate * 100.0) as u64)
            })
        } else {
            None
        };
        let dep = qnn
            .deploy_resilient(&device, 2, RetryPolicy::default(), faults, cfg.seed)
            .expect("deployable");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFA);
        let result = infer(
            &qnn,
            &feats,
            &InferenceBackend::Deployed(&dep),
            &arm_inference_options(Arm::Full, &cfg),
            &mut rng,
        )
        .expect("resilient inference survives injected faults");
        let acc = result.accuracy(&labels);
        let report = result.report.expect("resilient run carries a report");
        rows.push(vec![
            format!("{rate:.1}"),
            format!("{acc:.2}"),
            format!("{}", report.jobs),
            format!("{}", report.attempts),
            format!("{}", report.retries),
            format!("{}", report.fallback_jobs),
            format!("{}", report.total_backoff_ms),
            if report.degraded { "yes" } else { "no" }.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Fault tolerance: Full arm on {} ({}), transient-failure sweep",
            device.name(),
            arch.label()
        ),
        &[
            "fault rate",
            "accuracy",
            "jobs",
            "attempts",
            "retries",
            "fallbacks",
            "backoff ms",
            "degraded",
        ],
        &rows,
    );
    println!("\nRetry + backoff absorbs moderate transient rates with no accuracy");
    println!("loss; at total outage the executor degrades to the Pauli noise-model");
    println!("simulator, trading the Table-11 model-vs-real gap for availability.");

    // Fleet-health sweep: the same model through the pooled batch
    // deployment, with and without the shared circuit breaker. At high
    // fault rates every per-job executor rediscovers the dying primary
    // from scratch unless the breaker remembers for the fleet; the rows
    // show the attempt/backoff bill the breaker cuts at equal accuracy.
    let brates: &[f64] = if fast { &[1.0] } else { &[0.5, 0.9, 1.0] };
    let mut health_rows = Vec::new();
    for &rate in brates {
        for breaker in [false, true] {
            let faults = FaultSpec::transient(rate, 0xFA02 + (rate * 100.0) as u64);
            let mut dep = qnn
                .deploy_batch(
                    &device,
                    2,
                    RetryPolicy::default(),
                    Some(faults),
                    4,
                    cfg.seed,
                )
                .expect("deployable");
            if breaker {
                dep = dep.with_health(HealthPolicy::breaker_only());
            }
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFB);
            let result = infer(
                &qnn,
                &feats,
                &InferenceBackend::Deployed(&dep),
                &arm_inference_options(Arm::Full, &cfg),
                &mut rng,
            )
            .expect("batched inference survives injected faults");
            let acc = result.accuracy(&labels);
            let report = result.report.expect("batch run carries a report");
            let registry = dep.health_registry();
            let trips: u64 = registry
                .keys()
                .iter()
                .filter_map(|k| registry.snapshot(k))
                .map(|s| s.trips)
                .sum();
            health_rows.push(vec![
                format!("{rate:.1}"),
                if breaker { "on" } else { "off" }.to_string(),
                format!("{acc:.2}"),
                format!("{}", report.attempts),
                format!("{}", report.retries),
                format!("{}", report.short_circuited_jobs),
                format!("{}", report.total_backoff_ms),
                format!("{trips}"),
            ]);
        }
    }
    print_table(
        &format!(
            "Fleet health: batched deployment on {} (4 workers), breaker off vs on",
            device.name()
        ),
        &[
            "fault rate",
            "breaker",
            "accuracy",
            "attempts",
            "retries",
            "short-circuited",
            "backoff ms",
            "trips",
        ],
        &health_rows,
    );
    println!("\nBelow the trip threshold the breaker is free (identical rows). Once");
    println!("it trips, later jobs skip straight to the fallback: a fraction of the");
    println!("attempts and backoff, at the fallback's (Table-11-close) accuracy.");
}
