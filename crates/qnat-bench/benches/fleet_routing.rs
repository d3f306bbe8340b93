//! Fleet-routing throughput and rescue accounting (ISSUE 6 acceptance
//! bench).
//!
//! The robustness pitch of the fleet layer is that device-level failover
//! replaces executor-level fallback without giving up throughput: a
//! router over {flaky preferred device, clean spare} must complete 100%
//! of jobs and sustain ≥ 2× the jobs/sec of a sequential per-job loop
//! that patches over the same faults with an in-executor fallback.
//! Drives 64 jobs at a 50% transient-fault rate with real
//! (`ThreadSleeper`) backoff, measures submit→completion latency
//! percentiles, writes `results/BENCH_fleet.json`, and fails loudly if
//! the gate regresses.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qnat_bench::stats::latency_percentiles_ms;
use qnat_core::batch::{run_job, BatchJob};
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy, ThreadSleeper};
use qnat_fleet::{FleetConfig, FleetDevice, FleetRouter, FleetStats};
use qnat_json::Json;
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const FAULT_RATE: f64 = 0.5;
const SEED: u64 = 0xF1EE7;

fn jobs() -> Vec<BatchJob> {
    (0..BATCH)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.push(Gate::ry(0, 0.07 * k as f64 + 0.1));
            c.push(Gate::cx(0, 1));
            c.push(Gate::rz(1, 0.03 * k as f64));
            BatchJob::exact(c)
        })
        .collect()
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 3,
        max_backoff_ms: 12,
        ..RetryPolicy::default()
    }
}

/// The baseline: one fresh executor per job on the caller's thread, the
/// 50%-flaky primary patched by an in-executor clean fallback — the
/// pre-fleet way to guarantee completion.
fn sequential_factory(_job: u64, seed: u64) -> Result<ResilientExecutor, BackendError> {
    Ok(ResilientExecutor::with_fallback(
        Box::new(FaultyBackend::new(
            SimulatorBackend::new(seed),
            FaultSpec::transient(FAULT_RATE, seed),
        )),
        Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
        retry(),
    )
    .with_sleeper(Box::new(ThreadSleeper::default())))
}

fn run_sequential() -> Duration {
    let jobs = jobs();
    let start = Instant::now();
    for (k, job) in jobs.iter().enumerate() {
        let seed = splitmix64(SEED ^ splitmix64(k as u64));
        let (result, report) = run_job(&sequential_factory, k as u64, seed, job, false, None);
        assert!(result.is_ok(), "fallback absorbs exhausted retries");
        black_box(report);
    }
    start.elapsed()
}

/// The fleet under test: santiago flaky with NO in-executor fallback
/// (exhausted retries surface as terminal errors — rescue is the
/// router's job), lima clean and steady.
fn fleet() -> FleetRouter {
    let flaky = FleetDevice::new(presets::santiago(), |global, seed| {
        Ok(ResilientExecutor::new(
            Box::new(FaultyBackend::starting_at(
                SimulatorBackend::new(seed),
                FaultSpec::transient(FAULT_RATE, seed),
                global,
            )),
            retry(),
        )
        .with_sleeper(Box::new(ThreadSleeper::default())))
    });
    let clean = FleetDevice::new(presets::lima(), |_global, seed| {
        Ok(ResilientExecutor::new(
            Box::new(SimulatorBackend::new(seed)),
            RetryPolicy::default(),
        ))
    });
    FleetRouter::new(
        FleetConfig {
            seed: SEED,
            pilots: 4,
            engine_workers: 2,
            ..FleetConfig::default()
        },
        vec![flaky, clean],
    )
    .expect("two-device fleet builds")
}

struct FleetRun {
    elapsed: Duration,
    /// Submit→wait-return latency per fleet ticket, ticket order.
    latencies: Vec<Duration>,
    stats: FleetStats,
}

fn run_fleet() -> FleetRun {
    let router = fleet();
    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(BATCH);
    let tickets: Vec<_> = jobs()
        .into_iter()
        .map(|job| {
            let t = router.submit(job).expect("bounded queue accepts the batch");
            submitted_at.push(Instant::now());
            t
        })
        .collect();
    let mut latencies = vec![Duration::ZERO; BATCH];
    for (k, t) in tickets.into_iter().enumerate() {
        let outcome = router.wait(t).expect("every job delivered");
        latencies[k] = submitted_at[k].elapsed();
        assert!(outcome.result.is_ok(), "failover absorbs terminal errors");
    }
    let elapsed = start.elapsed();
    let stats = router.drain();
    assert_eq!(stats.completed, BATCH as u64, "100% completion");
    FleetRun {
        elapsed,
        latencies,
        stats,
    }
}

fn bench_fleet_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_routing");
    group.bench_function("sequential_fallback", |b| b.iter(run_sequential));
    group.bench_function("routed_fleet", |b| b.iter(|| run_fleet().elapsed));
    group.finish();
    if !c.selects("fleet_routing") {
        return;
    }

    // Acceptance gate: median of 3 to shrug off scheduler hiccups.
    let median_of_3 = |mut runs: Vec<Duration>| {
        runs.sort();
        runs[1]
    };
    let sequential = median_of_3((0..3).map(|_| run_sequential()).collect());
    let fleet_runs: Vec<FleetRun> = (0..3).map(|_| run_fleet()).collect();
    let routed = median_of_3(fleet_runs.iter().map(|r| r.elapsed).collect());
    let seq_rate = BATCH as f64 / sequential.as_secs_f64();
    let fleet_rate = BATCH as f64 / routed.as_secs_f64();
    let speedup = fleet_rate / seq_rate;

    let mut pooled: Vec<Duration> = fleet_runs
        .iter()
        .flat_map(|r| r.latencies.clone())
        .collect();
    let (p50, p90, p99) = latency_percentiles_ms(&mut pooled);
    let failovers: u64 = fleet_runs.iter().map(|r| r.stats.failovers).sum();
    let hedges: u64 = fleet_runs.iter().map(|r| r.stats.hedges).sum();
    let hedge_wins: u64 = fleet_runs.iter().map(|r| r.stats.hedge_wins).sum();
    println!(
        "fleet_routing: {BATCH} jobs, sequential {seq_rate:.1} jobs/s vs routed fleet \
         {fleet_rate:.1} jobs/s → {speedup:.2}x; latency p50 {p50:.1} ms, p90 {p90:.1} ms, \
         p99 {p99:.1} ms; failovers {failovers}, hedges {hedges} (wins {hedge_wins}) over 3 runs"
    );

    let doc = Json::obj([
        ("bench", Json::Str("fleet_routing".into())),
        ("jobs", Json::Num(BATCH as f64)),
        ("fault_rate", Json::Num(FAULT_RATE)),
        ("pilots", Json::Num(4.0)),
        ("engine_workers", Json::Num(2.0)),
        ("sequential_jobs_per_sec", Json::Num(seq_rate)),
        ("fleet_jobs_per_sec", Json::Num(fleet_rate)),
        ("speedup", Json::Num(speedup)),
        ("failovers_over_3_runs", Json::Num(failovers as f64)),
        ("hedges_over_3_runs", Json::Num(hedges as f64)),
        ("hedge_wins_over_3_runs", Json::Num(hedge_wins as f64)),
        (
            "latency_ms",
            Json::obj([
                ("p50", Json::Num(p50)),
                ("p90", Json::Num(p90)),
                ("p99", Json::Num(p99)),
            ]),
        ),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_fleet.json"), doc.to_json_pretty())
        .expect("write results/BENCH_fleet.json");

    assert!(
        speedup >= 2.0,
        "routed fleet must sustain ≥ 2x sequential jobs/sec: got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_fleet_routing);
criterion_main!(benches);
