//! End-to-end acceptance tests for the HTTP front door (ISSUE 5): the
//! replay-parity contract over a real TCP socket, the 429/503/504
//! status mapping, the chunked completion stream, `/healthz`, and
//! graceful drain.

use qnat_core::batch::BatchJob;
use qnat_core::executor::{splitmix64, ResilientExecutor, RetryPolicy};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::model::{Qnn, QnnConfig};
use qnat_json::Json;
use qnat_noise::backend::{
    BackendError, EmulatorBackend, NoiseModelBackend, QuantumBackend, SimulatorBackend,
};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_noise::presets;
use qnat_serve::engine::{Lane, LaneConfig, ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_transport::{
    ClientError, TicketStatus, TimeoutPhase, TransportClient, TransportConfig, TransportServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn simple_job(k: usize) -> BatchJob {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, 0.1 + 0.05 * k as f64));
    c.push(Gate::cx(0, 1));
    BatchJob::exact(c)
}

fn clean_factory() -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync {
    |_job, seed| {
        Ok(ResilientExecutor::new(
            Box::new(SimulatorBackend::new(seed)),
            RetryPolicy::default(),
        ))
    }
}

fn serve(config: ServeConfig, transport: TransportConfig) -> (TransportServer, TransportClient) {
    let engine = ServeEngine::new(config, clean_factory());
    let server = TransportServer::bind("127.0.0.1:0", transport, engine).expect("bind");
    let client = TransportClient::new(server.local_addr());
    (server, client)
}

/// ISSUE 5 acceptance: a workload served over a real TCP socket is
/// bitwise identical — measurements, obs-mapped block outputs and the
/// ticket-order-merged execution report — to the same jobs through a
/// fresh `deploy_batch` deployment. The transport engine's per-job
/// seeds follow the shared formula
/// `splitmix64(engine_seed ^ splitmix64(ticket))` with the engine seed
/// equal to block 0's batch pool seed, so ticket `t` replays batch job
/// `t` exactly; the JSON wire format's exact `f64` round-trip carries
/// the equality across the socket.
#[test]
fn served_workload_bitwise_matches_deploy_batch() {
    let device = presets::santiago();
    let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 1, 2), &device, 7)
        .expect("santiago fits the single-block model");
    let batch: Vec<Vec<f64>> = (0..24)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.013).sin())
                .collect()
        })
        .collect();
    let spec = FaultSpec::transient(0.5, 99);
    let policy = RetryPolicy::default();
    let seed = 11u64;

    // Reference: the whole batch through the pooled deployment.
    let pooled = qnn
        .deploy_batch(&device, 2, policy.clone(), Some(spec), 4, seed)
        .expect("batch deploy");
    let mut rng = StdRng::seed_from_u64(0);
    let via_batch = infer(
        &qnn,
        &batch,
        &InferenceBackend::Deployed(&pooled),
        &InferenceOptions::default(),
        &mut rng,
    )
    .expect("batch inference");

    // Transport side: one engine for block 0, built with the same
    // routed plan and the same per-job factory `deploy_batch` uses
    // (emulator primary, fault decorator positioned at the job index,
    // noise-model fallback, jitter decorrelated per job).
    let plans = qnn.route_plan(&device, 2).expect("route");
    let plan = &plans[0];
    let view = plan.view.clone();
    let factory_policy = policy.clone();
    let factory = move |job: u64, job_seed: u64| -> Result<ResilientExecutor, BackendError> {
        let emulator = EmulatorBackend::new(&view, job_seed)?;
        let primary: Box<dyn QuantumBackend> = Box::new(FaultyBackend::starting_at(
            emulator,
            FaultSpec {
                seed: spec.seed ^ job_seed,
                ..spec
            },
            job,
        ));
        let fallback = NoiseModelBackend::new(&view, job_seed ^ 0x5eed)?;
        Ok(ResilientExecutor::with_fallback(
            primary,
            Box::new(fallback),
            RetryPolicy {
                jitter_seed: factory_policy.jitter_seed ^ job_seed,
                ..factory_policy.clone()
            },
        ))
    };
    // Block 0's batch pool seed — tickets then replay job indices.
    let engine_seed = splitmix64(seed ^ 0u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 4,
            seed: engine_seed,
            ..ServeConfig::default()
        },
        factory,
    );
    let server =
        TransportServer::bind("127.0.0.1:0", TransportConfig::default(), engine).expect("bind");
    let client = TransportClient::new(server.local_addr());

    // The exact jobs `BatchedQnn::run_block` builds for block 0.
    let block = &qnn.blocks()[0];
    let jobs: Vec<BatchJob> = batch
        .iter()
        .map(|row| {
            let mut params = block.encoder.angles(row);
            params.extend_from_slice(qnn.block_params(0));
            BatchJob {
                circuit: plan.lowered.bind(&params),
                shots: None,
            }
        })
        .collect();

    let tickets: Vec<u64> = jobs
        .iter()
        .map(|job| {
            client
                .submit(job, Lane::Interactive)
                .expect("submit over TCP")
        })
        .collect();
    assert_eq!(
        tickets,
        (0..batch.len() as u64).collect::<Vec<_>>(),
        "tickets are dense job indices"
    );

    let mut merged = qnat_core::executor::ExecutionReport::default();
    let mut outputs = Vec::with_capacity(batch.len());
    for &t in &tickets {
        let outcome = client
            .wait(t)
            .expect("wait over TCP")
            .expect("engine knows the ticket");
        let m = outcome.result.expect("fallback absorbs exhausted retries");
        outputs.push(
            plan.obs
                .iter()
                .map(|&w| m.expectations[w])
                .collect::<Vec<f64>>(),
        );
        merged.merge(&outcome.report);
    }

    // Bitwise: f64 expectations compared by exact equality, after a
    // full JSON encode → TCP → parse round trip.
    assert_eq!(via_batch.block_outputs[0], outputs);
    assert_eq!(via_batch.report, Some(merged));

    // ISSUE 8 acceptance: the whole workload — 24 submits + 24 waits —
    // rode ONE keep-alive connection. Parity survives connection reuse.
    let transport = server.metrics();
    assert_eq!(
        transport.connections_accepted, 1,
        "the pooled client carries the workload on a single connection"
    );
    assert_eq!(transport.requests_served, 48, "24 submits + 24 waits");
    assert_eq!(
        transport.keepalive_reuses, 47,
        "every request after the first reused the connection"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submitted, batch.len() as u64);
    assert_eq!(stats.completed, batch.len() as u64);
}

/// `SubmitError::QueueFull` surfaces as 429 with the typed body.
#[test]
fn full_rejecting_lane_is_429() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            interactive: LaneConfig::rejecting(2),
            seed: 1,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();
    client
        .submit(&simple_job(0), Lane::Interactive)
        .expect("fits");
    client
        .submit(&simple_job(1), Lane::Interactive)
        .expect("fits");
    let refused = client.submit(&simple_job(2), Lane::Interactive);
    match refused {
        Err(ClientError::Status { status, body }) => {
            assert_eq!(status, 429);
            assert!(body.contains("queue_full"), "typed body: {body}");
        }
        other => panic!("expected a 429 refusal, got {other:?}"),
    }
    server.engine().resume();
    let stats = server.shutdown();
    assert_eq!(stats.rejected_full, 1);
    assert_eq!(stats.completed, 2);
}

/// ISSUE 5 satellite: a `ShedOldest` eviction completes the victim
/// ticket with `BackendError::Overloaded`, and the transport surfaces
/// that outcome as 503 on both poll and wait.
#[test]
fn shed_oldest_eviction_surfaces_as_503() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            interactive: LaneConfig::shedding(2),
            seed: 2,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();
    let t0 = client
        .submit(&simple_job(0), Lane::Interactive)
        .expect("fits");
    let t1 = client
        .submit(&simple_job(1), Lane::Interactive)
        .expect("fits");
    let t2 = client
        .submit(&simple_job(2), Lane::Interactive)
        .expect("evicts t0");

    // On the wire, the evicted ticket's ready outcome is graded 503 with
    // the typed error in the body — for both poll and wait.
    let raw_get = |target: String| -> (u16, String) {
        use std::io::{BufReader, Write};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes())
            .expect("request");
        let resp =
            qnat_transport::http::read_response(&mut BufReader::new(stream)).expect("response");
        let body = resp.text().expect("utf8").to_owned();
        (resp.status, body)
    };
    let (status, body) = raw_get(format!("/v1/jobs/{t0}"));
    assert_eq!(status, 503, "poll of an evicted ticket: {body}");
    assert!(body.contains("overloaded"), "typed body: {body}");

    client
        .submit(&simple_job(3), Lane::Interactive)
        .expect("evicts t1");
    let (status, body) = raw_get(format!("/v1/jobs/{t1}/wait"));
    assert_eq!(status, 503, "wait on an evicted ticket: {body}");
    assert!(body.contains("overloaded"), "typed body: {body}");

    // Through the typed client, the outcome itself carries the error.
    client
        .submit(&simple_job(4), Lane::Interactive)
        .expect("evicts t2");
    match client.poll(t2) {
        Ok(Some(TicketStatus::Ready(outcome))) => {
            assert!(matches!(
                outcome.result,
                Err(BackendError::Overloaded { .. })
            ));
        }
        other => panic!("expected the evicted outcome, got {other:?}"),
    }

    server.engine().resume();
    let stats = server.shutdown();
    assert_eq!(stats.shed_oldest, 3);
    assert_eq!(stats.completed, 5, "3 evictions + 2 run jobs");
}

/// `/wait` on a parked ticket exhausts the connection's deadline budget
/// and answers 504 — the engine's typed `WaitError::Timeout` surfacing
/// through the front door.
#[test]
fn wait_past_the_deadline_budget_is_504() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            seed: 3,
            ..ServeConfig::default()
        },
        TransportConfig {
            request_deadline_ms: 80,
            ..TransportConfig::default()
        },
    );
    server.engine().pause();
    let t = client
        .submit(&simple_job(0), Lane::Interactive)
        .expect("submit");
    match client.wait(t) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 504),
        other => panic!("expected a 504 wait, got {other:?}"),
    }
    server.engine().resume();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "drain still finishes the parked job");
}

/// Unknown tickets are 404 on poll and wait; bad JSON is 400; unknown
/// paths are 404 and wrong methods 405.
#[test]
fn protocol_errors_are_typed_statuses() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            seed: 4,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    assert!(client.poll(999).expect("polling unknown is fine").is_none());
    assert!(client.wait(999).expect("waiting unknown is fine").is_none());

    // Raw speaking for the malformed cases the typed client won't emit.
    let raw = |method: &str, target: &str, body: &[u8]| -> u16 {
        use std::io::{BufReader, Write};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let head = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(body).expect("body");
        let resp =
            qnat_transport::http::read_response(&mut BufReader::new(stream)).expect("response");
        resp.status
    };
    assert_eq!(raw("POST", "/v1/jobs", b"{not json"), 400);
    assert_eq!(
        raw("POST", "/v1/jobs", br#"{"job":1,"lane":"interactive"}"#),
        400
    );
    assert_eq!(raw("GET", "/nope", b""), 404);
    assert_eq!(raw("DELETE", "/v1/jobs", b""), 405);
    assert_eq!(raw("POST", "/healthz", b""), 405);
    drop(server);
}

/// A small body nested far past the parser's depth limit is a 400, not
/// a stack overflow that takes the process down: the same server goes
/// on to serve a normal job.
#[test]
fn deeply_nested_body_is_400_and_the_server_survives() {
    use std::io::{BufReader, Write};
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            seed: 4,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    for (target, body) in [
        ("/v1/jobs", "[".repeat(20_000)),
        ("/v1/mitigate", "{\"a\":".repeat(20_000)),
    ] {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let head = format!(
            "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(body.as_bytes()).expect("body");
        let resp =
            qnat_transport::http::read_response(&mut BufReader::new(stream)).expect("response");
        assert_eq!(resp.status, 400, "{target}");
        assert!(resp.text().expect("utf-8").contains("nesting"), "{target}");
    }
    let t = client
        .submit(&simple_job(0), Lane::Interactive)
        .expect("server still accepts jobs");
    let outcome = client.wait(t).expect("wait").expect("ticket known");
    assert!(outcome.result.is_ok());
    server.shutdown();
}

/// The chunked `/v1/stream` feed delivers every completion with results
/// matching what `wait` would have returned.
#[test]
fn stream_delivers_every_completion() {
    let (server, client) = serve(
        ServeConfig {
            workers: 2,
            seed: 5,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();
    // Subscribe first so no completion is missed, then release.
    let streamer = {
        let client = client.clone();
        std::thread::spawn(move || client.stream(6))
    };
    let expected: Vec<u64> = (0..6)
        .map(|k| {
            client
                .submit(&simple_job(k), Lane::Interactive)
                .expect("submit")
        })
        .collect();
    // Give the streamer a beat to be subscribed before work flows.
    std::thread::sleep(Duration::from_millis(100));
    server.engine().resume();
    let events = streamer.join().expect("stream thread").expect("stream");
    assert_eq!(events.len(), 6);
    let mut seen: Vec<u64> = events.iter().map(|e| e.ticket).collect();
    seen.sort_unstable();
    assert_eq!(seen, expected);
    for e in &events {
        let m = e.result.as_ref().expect("clean factory succeeds");
        assert_eq!(m.expectations.len(), 2);
        assert!(m.expectations.iter().all(|x| x.is_finite()));
    }
    server.shutdown();
}

/// `/healthz` reports lane depths, engine counters and liveness.
#[test]
fn healthz_reports_lane_depths_and_stats() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            seed: 6,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();
    for k in 0..3 {
        client
            .submit(&simple_job(k), Lane::Interactive)
            .expect("submit");
    }
    client.submit(&simple_job(9), Lane::Bulk).expect("submit");
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let lanes = health.get("lanes").expect("lanes");
    assert_eq!(lanes.get("interactive").and_then(Json::as_usize), Some(3));
    assert_eq!(lanes.get("bulk").and_then(Json::as_usize), Some(1));
    let stats = health.get("stats").expect("stats");
    assert_eq!(stats.get("submitted").and_then(Json::as_usize), Some(4));
    server.engine().resume();
    server.shutdown();
}

/// Graceful drain: `shutdown` stops accepting TCP connections and still
/// finishes every in-flight ticket.
#[test]
fn shutdown_drains_in_flight_tickets_and_stops_accepting() {
    let (server, client) = serve(
        ServeConfig {
            workers: 2,
            seed: 7,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();
    for k in 0..8 {
        client
            .submit(&simple_job(k), Lane::Interactive)
            .expect("submit");
    }
    server.engine().resume();
    let addr = server.local_addr();
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed, 8, "drain finishes every queued ticket");
    // The listener is gone: new connections are refused.
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// A server that accepts but never answers trips the client's typed
/// read timeout — callers get `ClientError::Timeout { phase: Read }`,
/// not an untyped io error to pattern-match.
#[test]
fn client_read_timeout_is_typed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Accept connections and park them unanswered until the test ends.
    let accepter = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            held.push(stream);
            if held.len() >= 2 {
                break;
            }
        }
        held
    });
    let client = TransportClient::new(addr)
        .with_timeout(Duration::from_millis(100))
        .with_connect_timeout(Duration::from_millis(500));
    let started = std::time::Instant::now();
    match client.healthz() {
        Err(ClientError::Timeout { phase }) => assert_eq!(phase, TimeoutPhase::Read),
        other => panic!("expected a typed read timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout must honor the configured 100ms, not hang"
    );
    // Unblock the accepter so the thread joins.
    let _ = std::net::TcpStream::connect(addr);
    let _ = accepter.join();
}

/// Satellite: every breaker registered in the engine's registry appears
/// in `/healthz`, and each state serializes exactly as
/// `wire::breaker_state_to_json` renders it — Closed, Open (with its
/// cooldown counter) and HalfOpen alike.
#[test]
fn healthz_exposes_every_breaker_snapshot_exactly() {
    use qnat_core::health::{Admission, BreakerPolicy, HealthRegistry, JobSignal};
    use std::sync::Arc;

    let registry = Arc::new(HealthRegistry::new());
    let policy = BreakerPolicy {
        window: 4,
        failure_threshold: 0.5,
        min_samples: 2,
        cooldown_jobs: 7,
        ..BreakerPolicy::default()
    };
    // "steady": stays Closed under successes.
    registry.with_breaker("steady", &policy, |b| {
        for a in b.plan_epoch(3) {
            if a != Admission::ShortCircuit {
                b.observe(a, JobSignal::Success);
            }
        }
        b.end_epoch();
    });
    // "tripped": fails past the threshold and opens.
    registry.with_breaker("tripped", &policy, |b| {
        for a in b.plan_epoch(4) {
            if a != Admission::ShortCircuit {
                b.observe(a, JobSignal::Failure);
            }
        }
        b.end_epoch();
    });
    // "probing": opened, then served its full cooldown → half-open.
    registry.with_breaker("probing", &policy, |b| {
        for a in b.plan_epoch(4) {
            if a != Admission::ShortCircuit {
                b.observe(a, JobSignal::Failure);
            }
        }
        b.end_epoch();
        for _ in 0..8 {
            let _ = b.plan_epoch(1);
            b.end_epoch();
        }
    });

    let engine = ServeEngine::with_registry(
        ServeConfig {
            workers: 1,
            seed: 8,
            ..ServeConfig::default()
        },
        clean_factory(),
        Arc::clone(&registry),
    );
    let server =
        TransportServer::bind("127.0.0.1:0", TransportConfig::default(), engine).expect("bind");
    let client = TransportClient::new(server.local_addr());

    let health = client.healthz().expect("healthz");
    let breakers = health.get("breakers").expect("breakers section");
    for (key, snap) in registry.snapshots() {
        let entry = breakers
            .get(&key)
            .unwrap_or_else(|| panic!("breaker '{key}' missing from /healthz"));
        // The state document is exactly the wire encoding.
        assert_eq!(
            entry.get("state").map(Json::to_json),
            Some(qnat_transport::wire::breaker_state_to_json(&snap.state).to_json()),
            "state encoding for '{key}'"
        );
        assert_eq!(
            entry.get("trips").and_then(Json::as_usize),
            Some(snap.trips as usize)
        );
        assert_eq!(
            entry.get("recoveries").and_then(Json::as_usize),
            Some(snap.recoveries as usize)
        );
    }
    // And the three states render distinctly.
    let state_of = |key: &str| {
        breakers
            .get(key)
            .and_then(|e| e.get("state"))
            .and_then(|s| s.get("state"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert_eq!(state_of("steady").as_deref(), Some("closed"));
    assert_eq!(state_of("tripped").as_deref(), Some("open"));
    assert_eq!(state_of("probing").as_deref(), Some("half_open"));
    assert_eq!(
        breakers
            .get("tripped")
            .and_then(|e| e.get("state"))
            .and_then(|s| s.get("cooldown_left"))
            .and_then(Json::as_usize),
        Some(7),
        "open state carries its cooldown counter"
    );
    server.shutdown();
}

/// A front door bound with a fleet health section exposes the router's
/// per-device view (quarantine flags, load, breakers, noise estimates)
/// under `/healthz`'s `fleet` key.
#[test]
fn healthz_serves_the_fleet_section() {
    use qnat_core::executor::ResilientExecutor as Rx;
    use qnat_fleet::{FleetConfig, FleetDevice, FleetRouter};
    use std::sync::Arc;

    let device = |m: qnat_noise::DeviceModel| {
        FleetDevice::new(m, |_g, seed| {
            Ok(Rx::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        })
    };
    let router = Arc::new(
        FleetRouter::new(
            FleetConfig {
                pilots: 1,
                hedge: None,
                ..FleetConfig::default()
            },
            vec![device(presets::santiago()), device(presets::lima())],
        )
        .expect("fleet"),
    );
    // Drive a couple of fleet jobs so breakers and load exist.
    for k in 0..3 {
        let t = router.submit(simple_job(k)).expect("submit");
        router.wait(t).expect("delivered");
    }

    let engine = ServeEngine::new(
        ServeConfig {
            workers: 1,
            seed: 9,
            ..ServeConfig::default()
        },
        clean_factory(),
    );
    let section = {
        let router = Arc::clone(&router);
        Arc::new(move || qnat_transport::wire::fleet_health_to_json(&router.health()))
            as Arc<dyn Fn() -> Json + Send + Sync>
    };
    let server = TransportServer::bind_with_health(
        "127.0.0.1:0",
        TransportConfig::default(),
        engine,
        Some(section),
    )
    .expect("bind");
    let client = TransportClient::new(server.local_addr());

    let health = client.healthz().expect("healthz");
    let fleet = health.get("fleet").expect("fleet section");
    let Json::Arr(devices) = fleet else {
        panic!("fleet section is a device array");
    };
    assert_eq!(devices.len(), 2);
    let names: Vec<&str> = devices
        .iter()
        .filter_map(|d| d.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(
        names,
        vec![presets::santiago().name(), presets::lima().name()]
    );
    for d in devices {
        assert_eq!(d.get("quarantined"), Some(&Json::Bool(false)));
        assert!(d.get("load").and_then(|l| l.get("running")).is_some());
        assert!(
            d.get("noise_estimate")
                .and_then(Json::as_f64)
                .expect("estimate")
                > 0.0
        );
    }
    // The device that served traffic has a live breaker snapshot.
    let santiago = &devices[0];
    let breaker = santiago.get("breaker").expect("breaker field");
    assert_eq!(
        breaker
            .get("state")
            .and_then(|s| s.get("state"))
            .and_then(Json::as_str),
        Some("closed")
    );
    server.shutdown();
}

/// ISSUE 9 satellite: a front door bound with named health sections
/// serves the calibration tracker's view under `/healthz`'s
/// `calibration` key, and the section is an *exact* snapshot — every
/// field of [`qnat_fleet::CalibrationHealth`] rendered through
/// [`qnat_transport::wire::calibration_health_to_json`], nothing
/// dropped, renamed or reformatted.
#[test]
fn healthz_calibration_section_is_snapshot_exact() {
    use qnat_core::executor::ResilientExecutor as Rx;
    use qnat_fleet::{CalibConfig, FleetConfig, FleetDevice, FleetRouter, ScorePolicy};
    use std::sync::Arc;

    let device = |m: qnat_noise::DeviceModel| {
        FleetDevice::new(m, |_g, seed| {
            Ok(Rx::new(
                Box::new(SimulatorBackend::new(seed)),
                RetryPolicy::default(),
            ))
        })
    };
    let router = Arc::new(
        FleetRouter::new(
            FleetConfig {
                pilots: 1,
                hedge: None,
                score_policy: ScorePolicy::Predicted,
                calibration: CalibConfig {
                    min_observations: 4,
                    ..CalibConfig::default()
                },
                ..FleetConfig::default()
            },
            vec![device(presets::santiago()), device(presets::lima())],
        )
        .expect("fleet"),
    );
    // Enough delivered jobs that at least one device clears the
    // tracker's cold-start threshold (12 jobs over 2 devices → the
    // busier one has ≥ 6 ≥ min_observations).
    for k in 0..12 {
        let t = router.submit(simple_job(k)).expect("submit");
        router.wait(t).expect("delivered");
    }

    let engine = ServeEngine::new(
        ServeConfig {
            workers: 1,
            seed: 11,
            ..ServeConfig::default()
        },
        clean_factory(),
    );
    let fleet_section = {
        let router = Arc::clone(&router);
        Arc::new(move || qnat_transport::wire::fleet_health_to_json(&router.health()))
            as Arc<dyn Fn() -> Json + Send + Sync>
    };
    let calib_section = {
        let router = Arc::clone(&router);
        Arc::new(move || {
            qnat_transport::wire::calibration_health_to_json(&router.calibration_health())
        }) as Arc<dyn Fn() -> Json + Send + Sync>
    };
    let server = TransportServer::bind_with_sections(
        "127.0.0.1:0",
        TransportConfig::default(),
        engine,
        vec![
            ("fleet".to_owned(), fleet_section),
            ("calibration".to_owned(), calib_section),
        ],
    )
    .expect("bind");
    let client = TransportClient::new(server.local_addr());

    let health = client.healthz().expect("healthz");
    // Both named sections arrive; the fleet one keeps working through
    // the generalized bind path.
    assert!(health.get("fleet").is_some(), "fleet section still served");
    let calibration = health.get("calibration").expect("calibration section");

    // Snapshot exactness: no fleet traffic ran since the probe, so the
    // served section must equal a fresh render of the router's view.
    let expected = qnat_transport::wire::calibration_health_to_json(&router.calibration_health());
    assert_eq!(calibration, &expected);

    // And the view itself is live: all 12 tickets applied in order,
    // nothing stuck in the reorder buffer, per-device rows in fleet
    // order with the busier device past cold start.
    assert_eq!(
        calibration.get("applied").and_then(Json::as_usize),
        Some(12)
    );
    assert_eq!(calibration.get("pending").and_then(Json::as_usize), Some(0));
    let Some(Json::Arr(devices)) = calibration.get("devices") else {
        panic!("devices is an array");
    };
    assert_eq!(devices.len(), 2);
    let names: Vec<&str> = devices
        .iter()
        .filter_map(|d| d.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(
        names,
        vec![presets::santiago().name(), presets::lima().name()]
    );
    let observations: usize = devices
        .iter()
        .filter_map(|d| d.get("observations").and_then(Json::as_usize))
        .sum();
    assert_eq!(observations, 12, "every delivered job is one observation");
    assert!(
        devices
            .iter()
            .any(|d| matches!(d.get("estimate"), Some(Json::Num(_)))),
        "the busier device must be past cold start"
    );
    for d in devices {
        assert!(d.get("routing_estimate").is_some());
        assert!(d.get("residual").and_then(Json::as_f64).is_some());
        let fill = d.get("window_fill").and_then(Json::as_f64).expect("fill");
        assert!((0.0..=1.0).contains(&fill));
    }
    server.shutdown();
}

/// ISSUE 8 satellite: the `/healthz` transport section is an exact
/// [`TransportSnapshot`] — every counter matches the server's own
/// metrics to the digit after a traffic mix that exercises admissions,
/// refusals (429), malformed requests (400) and keep-alive reuse.
#[test]
fn healthz_transport_section_is_snapshot_exact() {
    use qnat_transport::TransportSnapshot;

    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            interactive: LaneConfig::rejecting(1),
            seed: 9,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();

    // Traffic: one accepted submit, one 429 refusal, two 404 polls —
    // all on the pooled keep-alive connection.
    client
        .submit(&simple_job(0), Lane::Interactive)
        .expect("fits");
    match client.submit(&simple_job(1), Lane::Interactive) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 429),
        other => panic!("expected 429, got {other:?}"),
    }
    assert!(client.poll(77).expect("poll").is_none());
    assert!(client.poll(78).expect("poll").is_none());

    // One malformed request on its own throwaway connection → 400.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .expect("timeout");
        stream.write_all(b"NOT HTTP AT ALL\r\n\r\n").expect("write");
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        assert!(String::from_utf8_lossy(&sink).starts_with("HTTP/1.1 400"));
    }

    // Wait for the throwaway connection's slot to come home so the
    // gauge is stable: only the pooled client connection stays active.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.metrics().active_connections != 1 {
        assert!(std::time::Instant::now() < deadline, "slot not released");
        std::thread::sleep(Duration::from_millis(10));
    }

    let health = client.healthz().expect("healthz");
    let doc = health.get("transport").expect("transport section");
    let field = |name: &str| -> u64 {
        doc.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("transport section missing '{name}'")) as u64
    };
    let reported = TransportSnapshot {
        active_connections: field("active_connections"),
        connections_accepted: field("connections_accepted"),
        connections_shed: field("connections_shed"),
        keepalive_reuses: field("keepalive_reuses"),
        requests_served: field("requests_served"),
        timeouts_408: field("timeouts_408"),
        bad_requests_400: field("bad_requests_400"),
        rejected_429: field("rejected_429"),
        unavailable_503: field("unavailable_503"),
    };
    // The snapshot inside the health body predates its own response
    // write by exactly one `requests_served` tick; everything else is
    // already settled.
    let now = server.metrics();
    assert_eq!(
        TransportSnapshot {
            requests_served: reported.requests_served + 1,
            ..reported
        },
        now,
        "health document must be an exact point-in-time snapshot"
    );
    // And the absolute values are the predicted ones.
    assert_eq!(reported.connections_accepted, 2, "pooled client + raw 400");
    assert_eq!(reported.bad_requests_400, 1);
    assert_eq!(reported.rejected_429, 1);
    assert_eq!(reported.connections_shed, 0);
    assert_eq!(reported.timeouts_408, 0);
    assert_eq!(reported.unavailable_503, 0);
    // 4 client requests before healthz + the raw 400.
    assert_eq!(reported.requests_served, 5);
    // Requests 2-4 plus the healthz itself reused the pooled connection.
    assert_eq!(reported.keepalive_reuses, 4);

    server.engine().resume();
    server.shutdown();
}

/// The streaming submit: many jobs as one chunked POST on one
/// connection, with per-line verdicts — accepted tickets stay dense and
/// refusals carry the 429 they would have earned as lone requests.
#[test]
fn streaming_submit_batches_jobs_with_per_line_verdicts() {
    use qnat_transport::StreamSubmit;

    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            interactive: LaneConfig::rejecting(4),
            seed: 10,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    server.engine().pause();

    let jobs: Vec<(BatchJob, Lane)> = (0..6).map(|k| (simple_job(k), Lane::Interactive)).collect();
    let verdicts = client.submit_stream(&jobs).expect("streamed submit");
    assert_eq!(verdicts.len(), 6, "one verdict per line, in order");
    for (k, v) in verdicts.iter().take(4).enumerate() {
        assert_eq!(
            *v,
            StreamSubmit::Accepted(k as u64),
            "the first 4 jobs fill the lane with dense tickets"
        );
    }
    for v in &verdicts[4..] {
        match v {
            StreamSubmit::Refused { status, body } => {
                assert_eq!(*status, 429);
                assert!(body.contains("queue_full"), "typed refusal: {body}");
            }
            other => panic!("expected per-line 429s past capacity, got {other:?}"),
        }
    }

    // One request, one connection — and the per-line 429s are counted.
    let transport = server.metrics();
    assert_eq!(transport.connections_accepted, 1);
    assert_eq!(transport.requests_served, 1);
    assert_eq!(transport.rejected_429, 2);

    // The accepted tickets complete normally.
    server.engine().resume();
    for t in 0..4u64 {
        let outcome = client.wait(t).expect("wait").expect("known ticket");
        assert!(outcome.result.is_ok());
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.rejected_full, 2);
}

/// Pooled-connection staleness: a server that caps requests per
/// connection (advertising `Connection: close`) or reaps idle
/// connections never surfaces an error through the client — calls
/// transparently reconnect, including the idempotent-GET retry when the
/// server closed a parked connection behind the client's back.
#[test]
fn pooled_client_survives_connection_caps_and_idle_reaping() {
    let (server, client) = serve(
        ServeConfig {
            workers: 1,
            seed: 11,
            ..ServeConfig::default()
        },
        TransportConfig {
            max_requests_per_connection: 2,
            idle_timeout_ms: 150,
            ..TransportConfig::default()
        },
    );

    // Four calls under a 2-requests-per-connection cap: the second
    // response on each connection advertises the close, so the client
    // rotates connections without a single failed call.
    for _ in 0..4 {
        client
            .healthz()
            .expect("healthz under the per-connection cap");
    }
    assert_eq!(
        server.metrics().connections_accepted,
        2,
        "exactly two requests rode each connection"
    );

    // Idle reaping: the parked pooled connection outlives the server's
    // idle window, so the next call finds it stale (clean EOF before
    // any response byte) and must retry on a fresh connection.
    std::thread::sleep(Duration::from_millis(400));
    client.healthz().expect("healthz after the idle reap");
    assert_eq!(
        server.metrics().connections_accepted,
        3,
        "the stale pooled connection was replaced, not surfaced"
    );
    server.shutdown();
}

/// ISSUE 10 acceptance: one `POST /v1/mitigate` fans out into one
/// folded sub-run per noise scale on the bulk lane and comes back as a
/// single aggregated result — and the whole sweep replays bitwise from
/// its seed: a second server with a *different* engine seed produces
/// identical bytes because the sub-run seeds derive from the sweep
/// seed, not the engine's.
#[test]
fn mitigated_sweep_over_the_wire_replays_bitwise() {
    let job = qnat_serve::MitigatedJob::zne(simple_job(3).circuit, None);
    let (server_a, client_a) = serve(
        ServeConfig {
            workers: 2,
            seed: 5,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    let first = client_a.mitigate(&job, 0xA11CE).expect("mitigate");
    server_a.shutdown();

    assert_eq!(first.scales, vec![1, 3, 5]);
    assert_eq!(first.tickets.len(), 3);
    let raw = first.raw.as_ref().expect("scale-1 run succeeded");
    // Exact noise-free sub-runs: the extrapolation is flat, so the
    // mitigated estimate equals the raw baseline.
    for (m, r) in first.mitigated.expectations.iter().zip(raw) {
        assert!((m - r).abs() < 1e-12);
    }

    let (server_b, client_b) = serve(
        ServeConfig {
            workers: 3,
            seed: 999, // different engine seed — must not matter
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );
    let second = client_b.mitigate(&job, 0xA11CE).expect("mitigate replay");
    server_b.shutdown();
    assert_eq!(second.mitigated.expectations, first.mitigated.expectations);
    assert_eq!(second.raw, first.raw);
}

/// ISSUE 10 acceptance: degenerate sweeps surface as typed errors end
/// to end — sweep-shape mistakes are 400s with the typed kind, and a
/// singular readout confusion travels as a 500 whose body names the
/// mitigation-math failure.
#[test]
fn mitigate_status_contract_end_to_end() {
    let (server, client) = serve(
        ServeConfig {
            workers: 2,
            seed: 5,
            ..ServeConfig::default()
        },
        TransportConfig::default(),
    );

    let mut job = qnat_serve::MitigatedJob::zne(simple_job(0).circuit, None);
    job.scales = vec![1];
    match client.mitigate(&job, 1) {
        Err(ClientError::Status { status: 400, body }) => {
            assert!(body.contains("too_few_scales"), "body: {body}");
        }
        other => panic!("expected 400 too_few_scales, got {other:?}"),
    }

    job.scales = vec![1, 4];
    match client.mitigate(&job, 1) {
        Err(ClientError::Status { status: 400, body }) => {
            assert!(body.contains("fold"), "body: {body}");
        }
        other => panic!("expected 400 fold error, got {other:?}"),
    }

    // A symmetric-coin confusion is singular: sub-runs succeed but the
    // aggregation must refuse to invert it, and the refusal must reach
    // the client as a typed 500, not a NaN result.
    job.scales = vec![1, 3, 5];
    job.readout = Some(vec![[[0.5, 0.5], [0.5, 0.5]]; 2]);
    match client.mitigate(&job, 1) {
        Err(ClientError::Status { status: 500, body }) => {
            assert!(body.contains("mitigation_math"), "body: {body}");
            assert!(body.contains("singular_confusion"), "body: {body}");
        }
        other => panic!("expected 500 singular_confusion, got {other:?}"),
    }
    server.shutdown();
}
