//! Worker-pool batch submission throughput (ISSUE 2 acceptance bench).
//!
//! Retrying cloud-QPU jobs are latency-bound, not compute-bound: most of a
//! flaky job's wall-clock is spent *sleeping* between retries. A single-
//! threaded executor serializes those sleeps; the worker pool overlaps
//! them, so the speedup holds even on a single CPU. This bench drives a
//! 64-job batch with a 50% transient-fault rate and real
//! (`ThreadSleeper`) backoff through pools of 1/2/4/8 workers, and fails
//! loudly unless 4 workers beat the single-threaded path by ≥ 2×.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_core::batch::{BatchExecutor, BatchJob};
use qnat_core::executor::{ResilientExecutor, RetryPolicy, ThreadSleeper};
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use std::time::Instant;

const BATCH: usize = 64;
const FAULT_RATE: f64 = 0.5;

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

/// Flaky-primary / clean-fallback executor with real wall-clock backoff.
/// Small intervals keep the bench quick; the retry *count* is what the
/// pool overlaps.
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

fn run_once(workers: usize) -> std::time::Duration {
    let jobs = jobs();
    let pool = BatchExecutor::new(workers, 0xB47C, factory);
    let start = Instant::now();
    let out = pool.execute(&jobs);
    let elapsed = start.elapsed();
    assert_eq!(out.failed_jobs(), 0, "fallback absorbs exhausted retries");
    assert!(out.report.retries > 0, "fault rate must force retries");
    black_box(out);
    elapsed
}

fn bench_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_once(workers));
            },
        );
    }
    group.finish();
    if !c.selects("batch_throughput") {
        return;
    }

    // Acceptance gate: ≥ 2× wall-clock speedup at 4 workers on the 64-job
    // batch. Median of 3 to shrug off scheduler hiccups.
    let median = |workers: usize| {
        let mut times: Vec<_> = (0..3).map(|_| run_once(workers)).collect();
        times.sort();
        times[1]
    };
    let serial = median(1);
    let pooled = median(4);
    let speedup = serial.as_secs_f64() / pooled.as_secs_f64();
    println!(
        "batch_throughput: 64 jobs, serial {:?} vs 4 workers {:?} → {speedup:.2}x",
        serial, pooled
    );
    assert!(
        speedup >= 2.0,
        "4-worker pool must be ≥ 2x faster than single-threaded: got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
