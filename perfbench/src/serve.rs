//! `serve`: closed loop over HTTP — `TransportServer` → `ServeEngine`
//! (one worker per core) → the Santiago `EmulatorBackend` with exact
//! expectations, on the interactive lane.
//!
//! Jobs are §4.2 block circuits carrying MNIST-4 test rows drawn by
//! seed. The load generator is one process with one client thread per
//! core, each on its own keep-alive connection, each submitting a job
//! (`POST /v1/jobs`) and waiting for its outcome
//! (`GET /v1/jobs/{t}/wait`) before it sends the next. A job's latency
//! runs from its submission until its outcome is back. This is the
//! served request: transport and emulator split its time, every engine
//! worker is kept busy, and it never touches the training stack.
//!
//! The load is closed, not open: on a shared 2-vCPU VM an open-loop
//! generator's own thread falls behind its schedule whenever the host
//! slows the machine, and the queue that builds behind it moves latency
//! by several times while the machine's speed moves by less than two.

use crate::schedule::rows;
use crate::stack::{block_circuits, device, emulator_ops, nproc, start_server, Probe, Shape};
use crate::stats::{mean, median, tail, Speed, Windowed};
use crate::trace::{durations_us, ns, Span};
use crate::yardstick::Speedometer;
use crate::{timed_setups, Metrics, Outcome};
use qnat_core::batch::BatchJob;
use qnat_json::Json;
use qnat_noise::emulator::HardwareEmulator;
use qnat_serve::Lane;
use qnat_transport::{wire, ClientError, TransportClient, TransportServer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs each client runs through a set-up stack before the pass starts,
/// outside the set-up time; set-up itself ends with the first served
/// job.
const WARMUP_JOBS: usize = 16;

/// A started stack: inputs, server and one client per core.
struct Served {
    // Clients drop before the server, so its workers see their
    // connections close.
    clients: Vec<TransportClient>,
    jobs: Vec<BatchJob>,
    server: TransportServer,
}

fn setup(seed: u64, probe: Option<Arc<Probe>>) -> Served {
    let jobs: Vec<BatchJob> = block_circuits(seed)
        .into_iter()
        .map(BatchJob::exact)
        .collect();
    let server = start_server(seed, probe);
    let clients = (0..nproc())
        .map(|_| TransportClient::new(server.local_addr()))
        .collect();
    let served = Served {
        clients,
        jobs,
        server,
    };
    served.round_trips(1);
    served
}

impl Served {
    /// Serves the first `n` jobs on every client, one at a time.
    fn round_trips(&self, n: usize) {
        for client in &self.clients {
            for job in self.jobs.iter().take(n) {
                let ticket = client
                    .submit(job, Lane::Interactive)
                    .expect("warm-up submit");
                client
                    .wait(ticket)
                    .expect("warm-up wait")
                    .expect("warm-up ticket known");
            }
        }
    }
}

/// How one request ended. Only what the checks and counts need is kept,
/// so memory does not grow with the run by more than a few words a
/// request.
enum Verdict {
    /// The expectations, and the report's attempts and jobs.
    Ok(Vec<f64>, usize, usize),
    Refused(u16),
    Failed(String),
}

/// One request as its client saw it.
struct Sample {
    client: usize,
    row: usize,
    /// When it was submitted, seconds into the pass.
    at_s: f64,
    latency_ms: f64,
    /// When submit returned.
    submitted: Instant,
    ticket: Option<u64>,
    verdict: Verdict,
}

/// One pass: what the clients saw, and the machine's speed meanwhile.
struct Pass {
    samples: Vec<Sample>,
    speed: Speed,
}

/// Runs every client for `seconds`, with a speedometer thread per CPU
/// timing yardstick units throughout.
fn pass(s: &Served, seed: u64, seconds: f64, probe: Option<&Probe>) -> Pass {
    s.round_trips(WARMUP_JOBS);
    if let Some(p) = probe {
        p.tracer.take(); // warm-up spans
    }
    let budget = Duration::from_secs_f64(seconds);
    let speedometer = Speedometer::start(nproc());
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for row in rows(seed, c, s.jobs.len()) {
                        let t0 = Instant::now();
                        if t0 - start >= budget {
                            break;
                        }
                        mine.push(request(client, c, row, &s.jobs[row], start, t0, probe));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    Pass {
        samples,
        speed: speedometer.finish(start),
    }
}

/// Submits one job, waits for its outcome and records both.
fn request(
    client: &TransportClient,
    c: usize,
    row: usize,
    job: &BatchJob,
    start: Instant,
    t0: Instant,
    probe: Option<&Probe>,
) -> Sample {
    let result = client.submit(job, Lane::Interactive);
    let submitted = Instant::now();
    let (ticket, verdict) = match result {
        Ok(t) => {
            let outcome = client.wait(t);
            if let Some(p) = probe {
                p.tracer
                    .record("transport.submit", t, "request", t0, submitted);
                p.tracer
                    .record("transport.wait", t, "request", submitted, Instant::now());
            }
            let verdict = match outcome {
                Ok(Some(o)) => match o.result {
                    Ok(m) => Verdict::Ok(m.expectations, o.report.attempts, o.report.jobs),
                    Err(e) => Verdict::Failed(e.to_string()),
                },
                Ok(None) => Verdict::Failed(format!("ticket {t} unknown")),
                Err(e) => Verdict::Failed(e.to_string()),
            };
            (Some(t), verdict)
        }
        Err(ClientError::Status { status, .. }) => (None, Verdict::Refused(status)),
        Err(e) => (None, Verdict::Failed(e.to_string())),
    };
    Sample {
        client: c,
        row,
        at_s: (t0 - start).as_secs_f64(),
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        submitted,
        ticket,
        verdict,
    }
}

/// Checks every outcome against the in-process emulator, to 1e-12.
fn check(samples: &[Sample], jobs: &[BatchJob], violations: &mut Vec<String>) {
    let emulator = HardwareEmulator::new(device());
    let mut expected: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        match &s.verdict {
            Verdict::Ok(got, ..) => {
                let want = expected.entry(s.row).or_insert_with(|| {
                    emulator
                        .expect_all_z(&jobs[s.row].circuit)
                        .expect("block circuits fit santiago")
                });
                let close = got.len() == want.len()
                    && got
                        .iter()
                        .zip(want.iter())
                        .all(|(a, b)| (a - b).abs() <= 1e-12);
                if !close && violations.len() < 10 {
                    violations.push(format!(
                        "row {}: served {got:?} != emulator {want:?}",
                        s.row
                    ));
                }
            }
            Verdict::Refused(status) if violations.len() < 10 => {
                violations.push(format!("request refused with status {status}"));
            }
            Verdict::Failed(e) if violations.len() < 10 => {
                violations.push(format!("request failed: {e}"));
            }
            _ => {}
        }
    }
}

fn config() -> Json {
    Json::obj([
        (
            "job",
            Json::Str(
                "standard(16,4,1,2) block 0 routed for santiago at level 2, mnist-4 test rows"
                    .into(),
            ),
        ),
        (
            "backend",
            Json::Str("emulator(santiago), exact expectations".into()),
        ),
        ("engine_workers", Json::Num(nproc() as f64)),
        ("lane", Json::Str("interactive".into())),
        ("clients", Json::Num(nproc() as f64)),
        (
            "loop",
            Json::Str("closed: per client, submit then wait, one keep-alive connection".into()),
        ),
    ])
}

/// Counts and latency figures of one pass.
struct Figures {
    sent: usize,
    ok: usize,
    refused: usize,
    latencies: Windowed,
    per_client: Vec<usize>,
}

impl Figures {
    fn of(p: &Pass) -> Figures {
        let ok = p
            .samples
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Ok(..)))
            .count();
        let refused = p
            .samples
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Refused(_)))
            .count();
        let ops: Vec<(f64, f64)> = p.samples.iter().map(|s| (s.at_s, s.latency_ms)).collect();
        let mut per_client = vec![0; nproc()];
        for s in &p.samples {
            per_client[s.client] += 1;
        }
        Figures {
            sent: p.samples.len(),
            ok,
            refused,
            latencies: Windowed::of(&ops, &p.speed),
            per_client,
        }
    }

    fn failed(&self) -> u64 {
        (self.sent - self.ok) as u64
    }

    /// Jobs per second over all clients, scaled to the reference speed:
    /// each client's closed-loop rate over the quiet windows, times the
    /// clients.
    fn throughput(&self) -> f64 {
        self.latencies.all_and_quiet().1.per_busy_s * self.per_client.len() as f64
    }

    fn to_json(&self) -> Json {
        let (all, quiet) = self.latencies.all_and_quiet();
        Json::obj([
            ("sent", Json::Num(self.sent as f64)),
            ("succeeded", Json::Num(self.ok as f64)),
            (
                "failed",
                Json::Num((self.sent - self.ok - self.refused) as f64),
            ),
            ("refused", Json::Num(self.refused as f64)),
            (
                "sent_per_client",
                Json::nums(self.per_client.iter().map(|&n| n as f64)),
            ),
            ("serve_p50_ms", Json::Num(quiet.p50_ms)),
            ("serve_p90_ms", Json::Num(quiet.p90_ms)),
            ("serve_tail_ms", Json::Num(quiet.tail_ms())),
            ("serve_jobs_per_s", Json::Num(self.throughput())),
            ("all_windows", all.to_json()),
            ("quiet_windows", quiet.to_json()),
            ("window_p50_ms", self.latencies.p50s()),
            ("window_slowdown", self.latencies.slowdowns()),
        ])
    }
}

/// Runs the workload: end-to-end metrics untraced, or per-layer metrics
/// from a traced pass next to an untraced one of equal length.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut metrics = Metrics::new();
    let mut violations = Vec::new();
    if !traced {
        let (setup_time, served) = timed_setups(|| setup(seed, None));
        let p = pass(&served, seed, seconds, None);
        check(&p.samples, &served.jobs, &mut violations);
        let figures = Figures::of(&p);
        let attempted = p.samples.len() as u64;
        metrics.insert("setup_s", setup_time.scaled_s);
        metrics.insert("ok_share", figures.ok as f64 / attempted.max(1) as f64);
        metrics.insert("throughput_per_s", figures.throughput());
        metrics.insert("p50_ms", figures.latencies.all_and_quiet().1.p50_ms);
        return Outcome {
            attempted,
            failed: figures.failed(),
            violations,
            metrics,
            config: config(),
            detail: Json::obj([
                ("untraced", figures.to_json()),
                ("setup_raw_s", Json::Num(setup_time.raw_s)),
            ]),
            spans: Vec::new(),
        };
    }

    let plain_pass = {
        let served = setup(seed, None);
        pass(&served, seed, seconds / 2.0, None)
    };
    let probe = Probe::new(Shape::Jobs);
    let served = setup(seed, Some(Arc::clone(&probe)));
    let reuses_before = served.server.metrics().keepalive_reuses;
    let stats_before = served.server.engine().stats();
    let traced_pass = pass(&served, seed, seconds / 2.0, Some(&probe));
    let samples = &traced_pass.samples;
    let reuses = served.server.metrics().keepalive_reuses - reuses_before;
    let stats = served.server.engine().stats();
    let refused = (stats.rejected_full + stats.shed_oldest + stats.shed_admission)
        - (stats_before.rejected_full + stats_before.shed_oldest + stats_before.shed_admission);

    // The codec, replayed over every body the pass sent.
    let mut body_bytes = Vec::new();
    for s in samples {
        let Some(t) = s.ticket else { continue };
        let job = &served.jobs[s.row];
        let body = probe
            .tracer
            .time("transport.encode", t, "transport.submit", || {
                wire::submit_request_to_json(job, Lane::Interactive).to_json()
            });
        body_bytes.push(body.len() as f64);
        let decoded = probe
            .tracer
            .time("transport.decode", t, "transport.submit", || {
                Json::parse(&body)
                    .ok()
                    .and_then(|v| wire::submit_request_from_json(&v).ok())
            });
        if decoded.as_ref().map(|(j, _)| j) != Some(job) {
            violations.push(format!(
                "ticket {t}: body does not decode to the job it encodes"
            ));
        }
    }
    let spans = probe.tracer.take();
    check(&plain_pass.samples, &served.jobs, &mut violations);
    check(samples, &served.jobs, &mut violations);
    let plain = Figures::of(&plain_pass);
    let figures = Figures::of(&traced_pass);

    // Per ticket: when submit returned, and which row it carried.
    let submitted: BTreeMap<u64, (Instant, usize)> = samples
        .iter()
        .filter_map(|s| s.ticket.map(|t| (t, (s.submitted, s.row))))
        .collect();
    let mut queue_ms = Vec::new();
    for f in spans.iter().filter(|s| s.name == "serve.factory") {
        if let Some((at, _)) = submitted.get(&f.req) {
            queue_ms.push(f.start_ns.saturating_sub(ns(*at)) as f64 / 1e6);
        }
    }
    let emulator: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "noise.emulator")
        .collect();
    let model = device();
    let amp_ops: f64 = emulator
        .iter()
        .filter_map(|s| submitted.get(&s.req))
        .map(|&(_, row)| {
            let c = &served.jobs[row].circuit;
            emulator_ops(c, &model) as f64 * 4f64.powi(c.n_qubits() as i32)
        })
        .sum();
    let emulator_ns: f64 = emulator
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let (attempts, jobs) = samples
        .iter()
        .filter_map(|s| match s.verdict {
            Verdict::Ok(_, attempts, jobs) => Some((attempts, jobs)),
            _ => None,
        })
        .fold((0, 0), |(a, j), (sa, sj)| (a + sa, j + sj));
    let med = |name: &str| median(&durations_us(&spans, name)).unwrap_or(f64::NAN);
    let p50 = |f: &Figures| f.latencies.all_and_quiet().1.p50_ms;

    metrics.insert("transport.encode_us", med("transport.encode"));
    metrics.insert("transport.decode_us", med("transport.decode"));
    metrics.insert("transport.submit_rtt_ms", med("transport.submit") / 1e3);
    metrics.insert("transport.wait_rtt_ms", med("transport.wait") / 1e3);
    metrics.insert(
        "transport.body_bytes",
        mean(&body_bytes).unwrap_or(f64::NAN),
    );
    metrics.insert("transport.keepalive_reuses", reuses as f64);
    metrics.insert("serve.queue_wait_ms", median(&queue_ms).unwrap_or(f64::NAN));
    metrics.insert(
        "serve.queue_wait_p99_ms",
        tail(&queue_ms).map_or(f64::NAN, |t| t.value),
    );
    metrics.insert("serve.executor_setup_us", med("serve.factory"));
    metrics.insert("serve.refused", refused as f64);
    metrics.insert(
        "core.attempts_per_job",
        attempts as f64 / jobs.max(1) as f64,
    );
    metrics.insert("noise.emulator_us", med("noise.emulator"));
    metrics.insert("noise.emulator_ns_per_amp_op", emulator_ns / amp_ops);
    metrics.insert(
        "compiler.gates_per_job",
        mean(
            &samples
                .iter()
                .map(|s| served.jobs[s.row].circuit.len() as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN),
    );
    metrics.insert("trace.overhead_ms", p50(&figures) - p50(&plain));

    Outcome {
        attempted: (plain_pass.samples.len() + samples.len()) as u64,
        failed: plain.failed() + figures.failed(),
        violations,
        metrics,
        config: config(),
        detail: Json::obj([("untraced", plain.to_json()), ("traced", figures.to_json())]),
        spans,
    }
}
