//! Serving-engine throughput and latency (ISSUE 4 acceptance bench).
//!
//! A serving queue earns its keep the same way the batch pool does:
//! flaky-job wall-clock is dominated by retry backoff, and persistent
//! workers overlap those sleeps across queued tickets. This bench drives
//! 64 submissions with a 50% transient-fault rate and real
//! (`ThreadSleeper`) backoff through `ServeEngine`s of 1/2/4/8 workers,
//! measures per-ticket submit→completion latency percentiles off the
//! subscription stream, writes `results/BENCH_serve.json`, and fails
//! loudly unless the 4-worker engine sustains ≥ 2× the jobs/sec of a
//! sequential per-job `ResilientExecutor` loop over the same work.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_bench::stats::latency_percentiles_ms;
use qnat_core::batch::{run_job, BatchJob};
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy, ThreadSleeper};
use qnat_json::Json;
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_serve::{Lane, ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const FAULT_RATE: f64 = 0.5;
const SEED: u64 = 0xB47C;

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

/// The batch bench's standard fault model: flaky primary, clean fallback,
/// real wall-clock backoff with small intervals.
fn factory(_job: u64, seed: u64) -> Result<ResilientExecutor, BackendError> {
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 3,
        max_backoff_ms: 12,
        ..RetryPolicy::default()
    };
    Ok(ResilientExecutor::with_fallback(
        Box::new(FaultyBackend::new(
            SimulatorBackend::new(seed),
            FaultSpec::transient(FAULT_RATE, seed),
        )),
        Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
        policy,
    )
    .with_sleeper(Box::new(ThreadSleeper::default())))
}

/// The baseline a serving layer must beat: one fresh `ResilientExecutor`
/// per job, executed inline on the caller's thread, same per-job seeds.
fn run_sequential() -> Duration {
    let jobs = jobs();
    let start = Instant::now();
    for (k, job) in jobs.iter().enumerate() {
        let seed = splitmix64(SEED ^ splitmix64(k as u64));
        let (result, report) = run_job(&factory, k as u64, seed, job, false, None);
        assert!(result.is_ok(), "fallback absorbs exhausted retries");
        black_box(report);
    }
    start.elapsed()
}

struct ServeRun {
    elapsed: Duration,
    /// Submit→completion latency per ticket, ticket order.
    latencies: Vec<Duration>,
}

fn run_serve(workers: usize) -> ServeRun {
    let engine = ServeEngine::new(
        ServeConfig {
            workers,
            seed: SEED,
            ..ServeConfig::default()
        },
        factory,
    );
    let stream = engine.subscribe();
    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(BATCH);
    for job in jobs() {
        let t = engine
            .submit(job, Lane::Interactive)
            .expect("blocking lane accepts the batch");
        assert_eq!(t as usize, submitted_at.len(), "tickets are dense");
        submitted_at.push(Instant::now());
    }
    let mut latencies = vec![Duration::ZERO; BATCH];
    for _ in 0..BATCH {
        let (ticket, result) = stream.recv().expect("engine outlives the batch");
        latencies[ticket as usize] = submitted_at[ticket as usize].elapsed();
        assert!(result.is_ok(), "fallback absorbs exhausted retries");
    }
    let elapsed = start.elapsed();
    let stats = engine.drain();
    assert_eq!(stats.completed, BATCH as u64);
    ServeRun { elapsed, latencies }
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.bench_function("sequential", |b| b.iter(run_sequential));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_serve(workers).elapsed);
            },
        );
    }
    group.finish();
    if !c.selects("serve_throughput") {
        return;
    }

    // Acceptance gate: the 4-worker engine sustains ≥ 2× the sequential
    // jobs/sec on the standard 64-job / 50%-fault workload. Median of 3
    // to shrug off scheduler hiccups.
    let median_of_3 = |mut runs: Vec<Duration>| {
        runs.sort();
        runs[1]
    };
    let sequential = median_of_3((0..3).map(|_| run_sequential()).collect());
    let serve_runs: Vec<ServeRun> = (0..3).map(|_| run_serve(4)).collect();
    let served = median_of_3(serve_runs.iter().map(|r| r.elapsed).collect());
    let seq_rate = BATCH as f64 / sequential.as_secs_f64();
    let serve_rate = BATCH as f64 / served.as_secs_f64();
    let speedup = serve_rate / seq_rate;

    // Latency percentiles pooled over the three gate runs.
    let mut pooled: Vec<Duration> = serve_runs
        .iter()
        .flat_map(|r| r.latencies.clone())
        .collect();
    let (p50, p90, p99) = latency_percentiles_ms(&mut pooled);
    println!(
        "serve_throughput: {BATCH} jobs, sequential {seq_rate:.1} jobs/s vs 4 workers \
         {serve_rate:.1} jobs/s → {speedup:.2}x; latency p50 {p50:.1} ms, p90 {p90:.1} ms, \
         p99 {p99:.1} ms"
    );

    let doc = Json::obj([
        ("bench", Json::Str("serve_throughput".into())),
        ("jobs", Json::Num(BATCH as f64)),
        ("fault_rate", Json::Num(FAULT_RATE)),
        ("workers", Json::Num(4.0)),
        ("sequential_jobs_per_sec", Json::Num(seq_rate)),
        ("serve_jobs_per_sec", Json::Num(serve_rate)),
        ("speedup", Json::Num(speedup)),
        (
            "latency_ms",
            Json::obj([
                ("p50", Json::Num(p50)),
                ("p90", Json::Num(p90)),
                ("p99", Json::Num(p99)),
            ]),
        ),
    ]);
    // Anchor on the manifest dir: cargo runs benches from the package
    // root, but the results belong next to the workspace's other outputs.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_serve.json"), doc.to_json_pretty())
        .expect("write results/BENCH_serve.json");

    assert!(
        speedup >= 2.0,
        "4-worker serving engine must sustain ≥ 2x sequential jobs/sec: got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
