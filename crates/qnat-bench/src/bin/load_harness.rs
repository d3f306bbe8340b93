//! Open-loop load harness for the HTTP front door (ISSUE 8 tentpole).
//!
//! Unlike the closed-loop throughput benches (which wait for each
//! response before issuing the next request, so an overloaded server
//! conveniently slows its own offered load), this harness fires
//! requests on a **precomputed arrival schedule** — Poisson arrivals
//! for the first half, on/off bursts for the second — and measures
//! latency **from the scheduled arrival time**. Falling behind the
//! schedule therefore shows up as tail latency instead of vanishing
//! into a slower request rate: the open-loop discipline.
//!
//! The traffic mix is deliberately hostile: ~70% interactive submits,
//! ~20% bulk submits, ~10% malformed raw-socket requests, with the
//! engine's backends yanked (pause/resume churn) twice mid-run. The
//! run reports goodput and p50/p90/p99/p999 per class to
//! `results/BENCH_load.json` and enforces two SLO gates:
//!
//! 1. **Flat tails under overload** — p99 of the submit-response time
//!    (admission *or* refusal) stays under [`SLO_P99_MS`]; shedding
//!    with 429/503 must be fast, not a queue to wait in.
//! 2. **Keep-alive pays** — the pooled keep-alive client sustains
//!    ≥ [`KEEPALIVE_MIN_SPEEDUP`]× the request rate of the
//!    connection-per-call client on the same cheap endpoint.
//!
//! Seeded end to end (`splitmix64` discipline, no wall-clock entropy in
//! the schedule), so two runs offer byte-identical load.

use qnat_bench::stats::{latency_tails_ms, LatencyTails};
use qnat_core::batch::BatchJob;
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy, ThreadSleeper};
use qnat_json::Json;
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_serve::engine::{Lane, LaneConfig, ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_transport::{ClientError, TransportClient, TransportConfig, TransportServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic seed for the schedule, the traffic mix and the engine.
const SEED: u64 = 0x10AD;
/// Open-loop arrivals in the Poisson segment.
const POISSON_ARRIVALS: usize = 1_200;
/// Poisson segment offered rate, arrivals/sec.
const POISSON_RATE: f64 = 700.0;
/// Bursty segment: bursts × size, intra-burst spacing, inter-burst gap.
const BURSTS: usize = 24;
const BURST_SIZE: usize = 75;
const BURST_SPACING_MS: f64 = 0.2;
const BURST_GAP_MS: f64 = 120.0;
/// Injector threads draining the shared schedule.
const INJECTORS: usize = 8;
/// SLO gate: p99 submit-response time under overload, ms.
const SLO_P99_MS: f64 = 250.0;
/// SLO gate: pooled keep-alive vs connection-per-call speedup floor.
const KEEPALIVE_MIN_SPEEDUP: f64 = 2.0;
/// Round trips per arm of the keep-alive microbench.
const KEEPALIVE_CALLS: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Interactive,
    Bulk,
    Malformed,
}

/// One scheduled arrival: when (offset from run start) and what.
struct Arrival {
    at: Duration,
    class: Class,
}

/// Uniform f64 in [0, 1) off the repo's standard mixer.
fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The full open-loop schedule: Poisson arrivals, then on/off bursts.
/// Pure in `SEED`, so every run offers identical load.
fn build_schedule() -> Vec<Arrival> {
    let mut schedule = Vec::with_capacity(POISSON_ARRIVALS + BURSTS * BURST_SIZE);
    let mut t = 0.0f64; // seconds
    for i in 0..POISSON_ARRIVALS {
        // Exponential inter-arrival: -ln(1-u)/rate.
        let u = unit(SEED ^ splitmix64(i as u64));
        t += -(1.0 - u).ln() / POISSON_RATE;
        schedule.push(Arrival {
            at: Duration::from_secs_f64(t),
            class: class_of(i),
        });
    }
    // Bursty segment starts after a short breather.
    t += 0.2;
    let mut i = POISSON_ARRIVALS;
    for _ in 0..BURSTS {
        for _ in 0..BURST_SIZE {
            t += BURST_SPACING_MS / 1e3;
            schedule.push(Arrival {
                at: Duration::from_secs_f64(t),
                class: class_of(i),
            });
            i += 1;
        }
        t += BURST_GAP_MS / 1e3;
    }
    schedule
}

/// Deterministic 70/20/10 interactive/bulk/malformed mix.
fn class_of(i: usize) -> Class {
    match splitmix64(SEED ^ splitmix64(0xC1A5 ^ i as u64)) % 10 {
        0..=6 => Class::Interactive,
        7 | 8 => Class::Bulk,
        _ => Class::Malformed,
    }
}

fn job_for(i: usize) -> BatchJob {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, 0.07 * (i % 64) as f64 + 0.1));
    c.push(Gate::cx(0, 1));
    BatchJob::exact(c)
}

/// The throughput benches' standard fault model: flaky primary, clean
/// fallback, real wall-clock backoff — service times are milliseconds,
/// so the burst segment genuinely overruns the 4-worker capacity.
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
            FaultSpec::transient(0.5, seed),
        )),
        Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
        policy,
    )
    .with_sleeper(Box::new(ThreadSleeper::default())))
}

/// What one arrival came back as.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    /// Response time measured from the *scheduled* arrival.
    latency: Duration,
    /// HTTP-equivalent status (200 accept, 429/503 refusal, 400
    /// malformed, 0 = transport error).
    status: u16,
}

/// Fires one malformed request on a raw socket and reads the refusal.
fn fire_malformed(addr: SocketAddr, i: usize) -> u16 {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let garbage: &[u8] = match i % 3 {
        0 => b"GARBAGE\r\n\r\n",
        1 => b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 9\r\n\r\nnot json!",
        _ => b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nZZ\r\n",
    };
    if stream.write_all(garbage).is_err() {
        return 0;
    }
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(n) if n >= 12 => String::from_utf8_lossy(&buf[9..12]).parse().unwrap_or(0),
        _ => 0,
    }
}

fn status_of(result: &Result<u64, ClientError>) -> u16 {
    match result {
        Ok(_) => 200,
        Err(ClientError::Status { status, .. }) => *status,
        Err(_) => 0,
    }
}

/// Runs the open-loop schedule against a live front door. Returns one
/// sample per arrival.
fn run_open_loop(server: &TransportServer, schedule: &[Arrival]) -> Vec<Sample> {
    let addr = server.local_addr();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let churn_done = std::sync::atomic::AtomicBool::new(false);
    // One run clock shared by injectors (schedule offsets) and the
    // churn thread (event offsets).
    let start = Instant::now();

    std::thread::scope(|scope| {
        // Backend churn: yank every backend twice mid-run (the engine
        // pauses, queues build, backpressure engages), then restore.
        scope.spawn(|| {
            for at_ms in [1_500u64, 3_200] {
                let target = Duration::from_millis(at_ms);
                while start.elapsed() < target {
                    if churn_done.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                if churn_done.load(Ordering::SeqCst) {
                    return;
                }
                server.engine().pause();
                std::thread::sleep(Duration::from_millis(200));
                server.engine().resume();
            }
        });

        let handles: Vec<_> = (0..INJECTORS)
            .map(|_| {
                let next = &next;
                let samples = &samples;
                scope.spawn(move || {
                    // One pooled keep-alive client per injector: its
                    // connection stays hot across the whole run.
                    let client = TransportClient::new(addr).with_timeout(Duration::from_secs(5));
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(arrival) = schedule.get(i) else {
                            return;
                        };
                        let due = start + arrival.at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let status = match arrival.class {
                            Class::Interactive => {
                                status_of(&client.submit(&job_for(i), Lane::Interactive))
                            }
                            Class::Bulk => status_of(&client.submit(&job_for(i), Lane::Bulk)),
                            Class::Malformed => fire_malformed(addr, i),
                        };
                        let latency = due.elapsed();
                        samples.lock().expect("sampler lock").push(Sample {
                            class: arrival.class,
                            latency,
                            status,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("injector thread");
        }
        churn_done.store(true, Ordering::SeqCst);
    });
    samples.into_inner().expect("sampler lock")
}

/// The keep-alive microbench: the same cheap endpoint hammered by the
/// pooled client and by the connection-per-call client.
fn keepalive_speedup() -> (f64, f64, f64) {
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 1,
            seed: SEED,
            ..ServeConfig::default()
        },
        |_job, seed| -> Result<ResilientExecutor, BackendError> {
            Ok(ResilientExecutor::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        },
    );
    let server = TransportServer::bind("127.0.0.1:0", TransportConfig::default(), engine)
        .expect("bind keep-alive bench server");
    let addr = server.local_addr();

    let rate = |client: &TransportClient| -> f64 {
        // Warm-up round trip outside the timed window.
        client.healthz().expect("health");
        let start = Instant::now();
        for _ in 0..KEEPALIVE_CALLS {
            client.healthz().expect("health");
        }
        KEEPALIVE_CALLS as f64 / start.elapsed().as_secs_f64()
    };
    let pooled = rate(&TransportClient::new(addr).with_timeout(Duration::from_secs(5)));
    let per_call = rate(
        &TransportClient::new(addr)
            .with_timeout(Duration::from_secs(5))
            .without_keep_alive(),
    );
    server.shutdown();
    (pooled, per_call, pooled / per_call)
}

fn tails_json(t: &LatencyTails) -> Json {
    Json::obj([
        ("p50", Json::Num(t.p50)),
        ("p90", Json::Num(t.p90)),
        ("p99", Json::Num(t.p99)),
        ("p999", Json::Num(t.p999)),
    ])
}

fn class_tails(samples: &[Sample], class: Class) -> (usize, LatencyTails) {
    let mut lat: Vec<Duration> = samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.latency)
        .collect();
    (lat.len(), latency_tails_ms(&mut lat))
}

fn main() {
    // Arm 1: keep-alive has to pay for itself before the storm.
    let (pooled_rps, per_call_rps, speedup) = keepalive_speedup();
    println!(
        "keep-alive: pooled {pooled_rps:.0} req/s vs per-call {per_call_rps:.0} req/s \
         → {speedup:.2}x"
    );

    // Arm 2: the open-loop storm.
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 4,
            seed: SEED,
            interactive: LaneConfig::rejecting(16),
            bulk: LaneConfig::shedding(64),
            ..ServeConfig::default()
        },
        factory,
    );
    let server = TransportServer::bind(
        "127.0.0.1:0",
        TransportConfig {
            http_workers: INJECTORS + 2,
            request_deadline_ms: 10_000,
            ..TransportConfig::default()
        },
        engine,
    )
    .expect("bind load server");

    let schedule = build_schedule();
    let offered = schedule.len();
    let span = schedule.last().expect("non-empty schedule").at;
    println!(
        "open-loop: {offered} arrivals over {:.1}s (poisson {POISSON_RATE:.0}/s then \
         {BURSTS}x{BURST_SIZE} bursts), {INJECTORS} injectors, backend churn at 1.5s and 3.2s",
        span.as_secs_f64()
    );
    let run_start = Instant::now();
    let samples = run_open_loop(&server, &schedule);
    let elapsed = run_start.elapsed();

    let engine_stats = server.engine().stats();
    let transport = server.metrics();
    let accepted = samples.iter().filter(|s| s.status == 200).count();
    let refused_429 = samples.iter().filter(|s| s.status == 429).count();
    let refused_503 = samples.iter().filter(|s| s.status == 503).count();
    let malformed_400 = samples.iter().filter(|s| s.status == 400).count();
    let errors = samples.iter().filter(|s| s.status == 0).count();
    let goodput = engine_stats.completed_ok as f64 / elapsed.as_secs_f64();

    let mut all: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    let all_tails = latency_tails_ms(&mut all);
    let (n_int, int_tails) = class_tails(&samples, Class::Interactive);
    let (n_bulk, bulk_tails) = class_tails(&samples, Class::Bulk);
    let (n_mal, mal_tails) = class_tails(&samples, Class::Malformed);

    println!(
        "responses: {accepted} accepted, {refused_429}x429, {refused_503}x503, \
         {malformed_400}x400, {errors} transport errors; engine goodput {goodput:.0} ok/s"
    );
    println!(
        "latency ms (from scheduled arrival): all p50 {:.1} p99 {:.1} p999 {:.1}; \
         interactive p99 {:.1}; bulk p99 {:.1}; malformed p99 {:.1}",
        all_tails.p50, all_tails.p99, all_tails.p999, int_tails.p99, bulk_tails.p99, mal_tails.p99
    );
    println!(
        "transport: {} conns accepted, {} keep-alive reuses, {} shed, {} served, \
         429={} 503={} 400={} 408={}",
        transport.connections_accepted,
        transport.keepalive_reuses,
        transport.connections_shed,
        transport.requests_served,
        transport.rejected_429,
        transport.unavailable_503,
        transport.bad_requests_400,
        transport.timeouts_408,
    );

    let doc = Json::obj([
        ("bench", Json::Str("load_harness".into())),
        ("seed", Json::Num(SEED as f64)),
        (
            "offered",
            Json::obj([
                ("arrivals", Json::Num(offered as f64)),
                ("poisson_rate_per_sec", Json::Num(POISSON_RATE)),
                ("bursts", Json::Num(BURSTS as f64)),
                ("burst_size", Json::Num(BURST_SIZE as f64)),
                ("schedule_span_sec", Json::Num(span.as_secs_f64())),
                ("injectors", Json::Num(INJECTORS as f64)),
            ]),
        ),
        (
            "responses",
            Json::obj([
                ("accepted", Json::Num(accepted as f64)),
                ("refused_429", Json::Num(refused_429 as f64)),
                ("refused_503", Json::Num(refused_503 as f64)),
                ("malformed_400", Json::Num(malformed_400 as f64)),
                ("transport_errors", Json::Num(errors as f64)),
            ]),
        ),
        ("goodput_ok_per_sec", Json::Num(goodput)),
        (
            "latency_ms",
            Json::obj([
                ("all", tails_json(&all_tails)),
                (
                    "interactive",
                    Json::obj([
                        ("n", Json::Num(n_int as f64)),
                        ("tails", tails_json(&int_tails)),
                    ]),
                ),
                (
                    "bulk",
                    Json::obj([
                        ("n", Json::Num(n_bulk as f64)),
                        ("tails", tails_json(&bulk_tails)),
                    ]),
                ),
                (
                    "malformed",
                    Json::obj([
                        ("n", Json::Num(n_mal as f64)),
                        ("tails", tails_json(&mal_tails)),
                    ]),
                ),
            ]),
        ),
        (
            "keepalive",
            Json::obj([
                ("pooled_req_per_sec", Json::Num(pooled_rps)),
                ("per_call_req_per_sec", Json::Num(per_call_rps)),
                ("speedup", Json::Num(speedup)),
            ]),
        ),
        (
            "transport",
            qnat_transport::wire::transport_snapshot_to_json(&transport),
        ),
        (
            "slo",
            Json::obj([
                ("p99_limit_ms", Json::Num(SLO_P99_MS)),
                ("p99_ms", Json::Num(all_tails.p99)),
                ("keepalive_min_speedup", Json::Num(KEEPALIVE_MIN_SPEEDUP)),
                ("keepalive_speedup", Json::Num(speedup)),
            ]),
        ),
    ]);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_load.json"), doc.to_json_pretty())
        .expect("write results/BENCH_load.json");
    println!("wrote results/BENCH_load.json");

    drop(server); // queued bulk jobs are discarded with the engine

    // The gates — after the artifact is on disk, so a failed run still
    // leaves the evidence.
    assert!(
        refused_429 + refused_503 > 0,
        "the storm must actually overload the engine (no 429/503 seen) — raise the burst rate"
    );
    assert!(
        accepted > 0 && goodput > 0.0,
        "goodput collapsed to zero under overload"
    );
    assert!(
        malformed_400 > 0,
        "malformed arrivals must be answered 400, got none"
    );
    assert_eq!(errors, 0, "no arrival may die with a transport error");
    assert!(
        all_tails.p99 <= SLO_P99_MS,
        "SLO violated: p99 {:.1} ms > {SLO_P99_MS} ms under overload — \
         backpressure is queueing instead of shedding",
        all_tails.p99
    );
    assert!(
        speedup >= KEEPALIVE_MIN_SPEEDUP,
        "keep-alive speedup {speedup:.2}x below the {KEEPALIVE_MIN_SPEEDUP}x floor"
    );
    println!("SLO gates passed: p99 {:.1} ms ≤ {SLO_P99_MS} ms, keep-alive {speedup:.2}x ≥ {KEEPALIVE_MIN_SPEEDUP}x", all_tails.p99);
}
