//! HTTP front-door throughput and latency (ISSUE 5 acceptance bench).
//!
//! Same workload as `serve_throughput` — 64 jobs, 50% transient faults,
//! real (`ThreadSleeper`) 3–12 ms backoff — but every job now crosses a
//! real TCP socket twice: submitted with `POST /v1/jobs` and collected
//! with `GET /v1/jobs/{t}/wait` through the in-repo blocking client.
//! The HTTP tax must not eat the serving engine's win: the gate fails
//! unless the 4-worker engine behind the front door still sustains
//! ≥ 2× the jobs/sec of a sequential inline `ResilientExecutor` loop
//! over the same work. Latency percentiles (submit → wait completion,
//! socket round trips included) go to `results/BENCH_transport.json`.
//!
//! The `wire_codec` group times the JSON codec alone on the §4.2 submit
//! body: encode (`submit_request_to_json` + `to_json`) and the server's
//! decode (`parse_body` + `submit_request_from_json`), in µs and ns per
//! byte, to `results/BENCH_codec.json`. Its gate is a same-binary ratio,
//! so it does not depend on host speed: decoding a body 16× longer must
//! take at most 32× as long (a linear parser gives ≈16×; one that
//! rescans the rest of the body per string character measured 179×).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qnat_bench::block_circuit;
use qnat_bench::stats::latency_percentiles_ms;
use qnat_core::batch::{run_job, BatchJob};
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy, ThreadSleeper};
use qnat_json::Json;
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_serve::{Lane, ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_transport::{wire, TransportClient, TransportConfig, TransportServer};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const FAULT_RATE: f64 = 0.5;
const SEED: u64 = 0xB47C;
/// Concurrent `/wait` collectors — matches the front door's HTTP
/// worker pool so waits never queue behind each other.
const COLLECTORS: usize = 4;

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

/// The throughput benches' standard fault model: flaky primary, clean
/// fallback, real wall-clock backoff with small intervals.
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

/// The baseline the front door must beat: one fresh `ResilientExecutor`
/// per job, executed inline on the caller's thread — no engine, no HTTP.
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

struct TransportRun {
    elapsed: Duration,
    /// Submit → `/wait` completion latency per ticket, ticket order.
    latencies: Vec<Duration>,
}

fn run_transport(workers: usize) -> TransportRun {
    let engine = ServeEngine::new(
        ServeConfig {
            workers,
            seed: SEED,
            ..ServeConfig::default()
        },
        factory,
    );
    let server = TransportServer::bind(
        "127.0.0.1:0",
        TransportConfig {
            http_workers: COLLECTORS + 1,
            request_deadline_ms: 120_000,
            ..TransportConfig::default()
        },
        engine,
    )
    .expect("bind an ephemeral port");
    let client = TransportClient::new(server.local_addr());

    let start = Instant::now();
    let mut submitted_at = Vec::with_capacity(BATCH);
    for job in jobs() {
        let t = client
            .submit(&job, Lane::Interactive)
            .expect("blocking lane accepts the batch");
        assert_eq!(t as usize, submitted_at.len(), "tickets are dense");
        submitted_at.push(Instant::now());
    }

    // Collect every ticket over concurrent `/wait` calls, striped so
    // each collector owns tickets ≡ its index (mod COLLECTORS).
    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..COLLECTORS)
            .map(|c| {
                let client = client.clone();
                let submitted_at = &submitted_at;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut t = c;
                    while t < BATCH {
                        let outcome = client
                            .wait(t as u64)
                            .expect("wait over TCP")
                            .expect("engine knows the ticket");
                        got.push((t, submitted_at[t].elapsed()));
                        assert!(outcome.result.is_ok(), "fallback absorbs exhausted retries");
                        t += COLLECTORS;
                    }
                    got
                })
            })
            .collect();
        let mut latencies = vec![Duration::ZERO; BATCH];
        for h in handles {
            for (t, latency) in h.join().expect("collector thread") {
                latencies[t] = latency;
            }
        }
        latencies
    });
    let elapsed = start.elapsed();

    let stats = server.shutdown();
    assert_eq!(stats.completed, BATCH as u64);
    TransportRun { elapsed, latencies }
}

/// Copies of the §4.2 block in the long body the scaling gate decodes.
const CODEC_SCALE: usize = 16;
/// Ceiling on decode(16× body) / decode(1× body).
const CODEC_MAX_RATIO: f64 = 32.0;

/// The §4.2 block's gates repeated `copies` times, as one exact job.
fn codec_job(copies: usize) -> BatchJob {
    let block = block_circuit();
    let mut circuit = Circuit::new(block.n_qubits());
    for _ in 0..copies {
        for &g in block.gates() {
            circuit.push(g);
        }
    }
    BatchJob::exact(circuit)
}

fn encode(job: &BatchJob) -> String {
    wire::submit_request_to_json(job, Lane::Interactive).to_json()
}

/// What the server does with a `POST /v1/jobs` body.
fn decode(body: &str) -> (BatchJob, Lane) {
    wire::parse_body(body.as_bytes())
        .and_then(|v| wire::submit_request_from_json(&v))
        .expect("the body decodes")
}

/// Median wall time of `f`, in µs, over `reps` calls.
fn median_us<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

fn bench_wire_codec(c: &mut Criterion) {
    let job = codec_job(1);
    let long_job = codec_job(CODEC_SCALE);
    let body = encode(&job);
    let long_body = encode(&long_job);
    assert_eq!(decode(&long_body).0, long_job, "the long body round-trips");

    let mut group = c.benchmark_group("wire_codec");
    group.bench_function("encode_4_2_body", |b| b.iter(|| encode(&job)));
    group.bench_function("decode_4_2_body", |b| b.iter(|| decode(&body)));
    group.bench_function("decode_16x_body", |b| b.iter(|| decode(&long_body)));
    group.finish();
    if !c.selects("wire_codec") {
        return;
    }

    let encode_us = median_us(201, || encode(&job));
    let decode_us = median_us(201, || decode(&body));
    let long_decode_us = median_us(31, || decode(&long_body));
    let ns_per_byte = |us: f64, bytes: usize| us * 1e3 / bytes as f64;
    let ratio = long_decode_us / decode_us;
    println!(
        "wire_codec: §4.2 submit body {} B: encode {encode_us:.1} µs ({:.2} ns/B), decode \
         {decode_us:.1} µs ({:.2} ns/B); {CODEC_SCALE}x body {} B: decode {long_decode_us:.1} µs \
         ({:.2} ns/B) → {ratio:.1}x the 1x decode (gate ≤ {CODEC_MAX_RATIO})",
        body.len(),
        ns_per_byte(encode_us, body.len()),
        ns_per_byte(decode_us, body.len()),
        long_body.len(),
        ns_per_byte(long_decode_us, long_body.len()),
    );

    let doc = Json::obj([
        ("bench", Json::Str("wire_codec".into())),
        ("body_bytes", Json::Num(body.len() as f64)),
        ("encode_us", Json::Num(encode_us)),
        (
            "encode_ns_per_byte",
            Json::Num(ns_per_byte(encode_us, body.len())),
        ),
        ("decode_us", Json::Num(decode_us)),
        (
            "decode_ns_per_byte",
            Json::Num(ns_per_byte(decode_us, body.len())),
        ),
        ("long_body_bytes", Json::Num(long_body.len() as f64)),
        ("long_decode_us", Json::Num(long_decode_us)),
        (
            "long_decode_ns_per_byte",
            Json::Num(ns_per_byte(long_decode_us, long_body.len())),
        ),
        ("decode_ratio", Json::Num(ratio)),
        ("decode_ratio_max", Json::Num(CODEC_MAX_RATIO)),
    ]);
    write_result("BENCH_codec.json", &doc);

    assert!(
        ratio <= CODEC_MAX_RATIO,
        "decoding a {CODEC_SCALE}x longer body must cost ≤ {CODEC_MAX_RATIO}x: got {ratio:.1}x"
    );
}

/// Writes `doc` under the workspace's `results/`. Anchored on the
/// manifest dir: cargo runs benches from the package root, but the
/// results belong next to the workspace's other outputs.
fn write_result(name: &str, doc: &Json) {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join(name), doc.to_json_pretty())
        .unwrap_or_else(|e| panic!("write results/{name}: {e}"));
}

fn bench_transport_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_throughput");
    group.bench_function("sequential", |b| b.iter(run_sequential));
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_transport(workers).elapsed);
            },
        );
    }
    group.finish();
    if !c.selects("transport_throughput") {
        return;
    }

    // Acceptance gate: 4 engine workers behind the HTTP front door
    // sustain ≥ 2× the sequential jobs/sec on the standard 64-job /
    // 50%-fault workload. Median of 3 to shrug off scheduler hiccups.
    let median_of_3 = |mut runs: Vec<Duration>| {
        runs.sort();
        runs[1]
    };
    let sequential = median_of_3((0..3).map(|_| run_sequential()).collect());
    let transport_runs: Vec<TransportRun> = (0..3).map(|_| run_transport(4)).collect();
    let served = median_of_3(transport_runs.iter().map(|r| r.elapsed).collect());
    let seq_rate = BATCH as f64 / sequential.as_secs_f64();
    let transport_rate = BATCH as f64 / served.as_secs_f64();
    let speedup = transport_rate / seq_rate;

    // Latency percentiles pooled over the three gate runs.
    let mut pooled: Vec<Duration> = transport_runs
        .iter()
        .flat_map(|r| r.latencies.clone())
        .collect();
    let (p50, p90, p99) = latency_percentiles_ms(&mut pooled);
    println!(
        "transport_throughput: {BATCH} jobs over TCP, sequential {seq_rate:.1} jobs/s vs \
         4 workers {transport_rate:.1} jobs/s → {speedup:.2}x; latency p50 {p50:.1} ms, \
         p90 {p90:.1} ms, p99 {p99:.1} ms"
    );

    let doc = Json::obj([
        ("bench", Json::Str("transport_throughput".into())),
        ("jobs", Json::Num(BATCH as f64)),
        ("fault_rate", Json::Num(FAULT_RATE)),
        ("workers", Json::Num(4.0)),
        ("collectors", Json::Num(COLLECTORS as f64)),
        ("sequential_jobs_per_sec", Json::Num(seq_rate)),
        ("transport_jobs_per_sec", Json::Num(transport_rate)),
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
    write_result("BENCH_transport.json", &doc);

    assert!(
        speedup >= 2.0,
        "the front door must sustain ≥ 2x sequential jobs/sec: got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_wire_codec, bench_transport_throughput);
criterion_main!(benches);
