//! Socket-level chaos suite (ISSUE 8): seed-deterministic hostile
//! clients — mid-header resets, slow-loris dribbles, stalled readers,
//! corrupted bytes — driven against a live front door. The contract
//! under test: the server never hangs a worker, never leaks a
//! connection slot, and always answers 400/408 (or closes cleanly),
//! with healthy traffic surviving alongside the abuse.

use qnat_core::batch::BatchJob;
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_noise::backend::{BackendError, SimulatorBackend};
use qnat_serve::engine::{ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_transport::{
    ChaosMode, ChaosPlan, ChaosStream, TransportClient, TransportConfig, TransportServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// A front door with chaos-friendly (short) timeouts so torn and
/// dribbling connections resolve within the test budget.
fn chaos_server(request_deadline_ms: u64, idle_timeout_ms: u64) -> TransportServer {
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 2,
            seed: 7,
            ..ServeConfig::default()
        },
        clean_factory(),
    );
    TransportServer::bind(
        "127.0.0.1:0",
        TransportConfig {
            http_workers: 4,
            request_deadline_ms,
            idle_timeout_ms,
            ..TransportConfig::default()
        },
        engine,
    )
    .expect("bind")
}

const HEALTH_REQUEST: &[u8] = b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n";

/// Drives one chaos connection: writes a health request through the
/// plan's fault schedule, then tries to collect whatever the server
/// answers. Returns the raw response bytes (empty when the connection
/// died first). Never blocks past `read_timeout`.
fn run_chaos_conn(addr: std::net::SocketAddr, plan: ChaosPlan) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(3)))
        .expect("write timeout");
    let mut chaos = ChaosStream::new(stream, plan);
    // A torn-down or abandoned write is the *point* of most modes.
    let _ = chaos.write_all(HEALTH_REQUEST).and_then(|()| chaos.flush());
    let mut response = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match chaos.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
        }
    }
    response
}

/// Waits until the server has admitted at least `accepted` connections
/// and drained every slot back to zero — the no-leaked-slots assertion,
/// raceless against fire-and-forget clients (a reset connection
/// finishes client-side before the accept thread has even seen it).
fn assert_connections_drain(server: &TransportServer, accepted: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = server.metrics();
        if snap.connections_accepted >= accepted && snap.active_connections == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "connections not drained after 5s: want ≥{accepted} accepted and 0 active, \
             got {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The storm: 32 seed-derived chaos connections (every mode represented)
/// fired concurrently. Clean arms must get a 200; every arm must resolve
/// without hanging; afterwards the server must still answer healthy
/// traffic promptly and hold zero active slots.
#[test]
fn chaos_storm_never_hangs_workers_or_leaks_slots() {
    let server = chaos_server(400, 300);
    let addr = server.local_addr();
    let seed = 0x000C_4A05_u64;

    let handles: Vec<_> = (0..32u64)
        .map(|k| {
            let plan = ChaosPlan::derive(seed, k);
            std::thread::spawn(move || (plan, run_chaos_conn(addr, plan)))
        })
        .collect();
    let mut clean_arms = 0usize;
    for h in handles {
        let (plan, response) = h.join().expect("chaos thread never panics");
        if plan.mode == ChaosMode::Clean {
            clean_arms += 1;
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with("HTTP/1.1 200"),
                "clean arm {} must be served normally amid the chaos, got: {text:.60}",
                plan.conn
            );
        } else if !response.is_empty() {
            // Abused arms that still got an answer got a *valid* one.
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with("HTTP/1.1 "),
                "arm {} ({:?}) got garbage back: {text:.60}",
                plan.conn,
                plan.mode
            );
        }
    }
    assert!(clean_arms > 0, "the seed must include control arms");

    // The server survived: a fresh client is answered promptly.
    let started = Instant::now();
    let client = TransportClient::new(addr).with_timeout(Duration::from_secs(3));
    let health = client
        .healthz()
        .expect("server is still alive after the storm");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "post-storm health check took {:?} — a worker is wedged",
        started.elapsed()
    );
    assert!(
        health.get("transport").is_some(),
        "health has transport section"
    );
    drop(client);
    // 32 storm connections + the post-storm health client.
    assert_connections_drain(&server, 33);
    assert_eq!(
        server.metrics().connections_shed,
        0,
        "storm stayed under the limit"
    );
    server.shutdown();
}

/// Slow-loris: a client dribbling one byte every 30 ms never completes a
/// request under a 150 ms *total* read deadline — the server answers 408
/// (or cuts the connection) well before the dribble would finish, proving
/// the guard bounds total read time rather than per-read gaps (each gap
/// is far below any per-read timeout).
#[test]
fn slow_loris_exhausts_the_total_read_deadline() {
    let server = chaos_server(150, 200);
    let addr = server.local_addr();
    let plan = ChaosPlan {
        seed: 0,
        conn: 0,
        mode: ChaosMode::SlowLoris {
            delay_ms: 30,
            max_bytes: 10_000,
        },
    };

    let started = Instant::now();
    let response = run_chaos_conn(addr, plan);
    let elapsed = started.elapsed();
    // 44 request bytes at 30 ms each would be ~1.3 s of dribbling; the
    // guard must end it near the 150 ms deadline.
    assert!(
        elapsed < Duration::from_millis(1_000),
        "slow-loris connection ran {elapsed:?} — total-read-time guard did not fire"
    );
    let text = String::from_utf8_lossy(&response);
    assert!(
        response.is_empty() || text.starts_with("HTTP/1.1 408"),
        "slow-loris gets 408 or a close, got: {text:.60}"
    );
    assert_connections_drain(&server, 1);
    assert!(
        server.metrics().timeouts_408 >= 1,
        "the 408 must be counted even if the client never read it"
    );
    server.shutdown();
}

/// Mid-header resets: connections cut after a handful of bytes release
/// their slot promptly and never earn a response — and a submit cut
/// mid-body must not enqueue a job.
#[test]
fn mid_header_and_mid_body_resets_release_slots_without_side_effects() {
    let server = chaos_server(300, 200);
    let addr = server.local_addr();

    // Mid-header: 10 bytes of the request line, then gone.
    for conn in 0..4u64 {
        let plan = ChaosPlan {
            seed: 1,
            conn,
            mode: ChaosMode::ResetAfter { after: 10 },
        };
        let response = run_chaos_conn(addr, plan);
        assert!(
            response.is_empty() || String::from_utf8_lossy(&response).starts_with("HTTP/1.1 4"),
            "a truncated request gets a 4xx or nothing"
        );
    }

    // Mid-body: a well-formed submit head whose body is cut short.
    let job = simple_job(0);
    let body = qnat_transport::wire::submit_request_to_json(&job, qnat_serve::engine::Lane::Bulk)
        .to_json();
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let full: Vec<u8> = head.bytes().chain(body.bytes()).collect();
    let cut = head.len() + body.len() / 2;
    let plan = ChaosPlan {
        seed: 2,
        conn: 0,
        mode: ChaosMode::ResetAfter { after: cut },
    };
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    let mut chaos = ChaosStream::new(stream, plan);
    let _ = chaos.write_all(&full);
    let mut sink = Vec::new();
    let _ = chaos.read_to_end(&mut sink);

    // 4 mid-header resets + 1 mid-body reset.
    assert_connections_drain(&server, 5);
    let stats = server.engine().stats();
    assert_eq!(
        stats.submitted, 0,
        "a submit truncated mid-body must never reach the engine"
    );
    let snap = server.metrics();
    assert!(
        snap.bad_requests_400 >= 1,
        "truncated requests are counted as 400s (got snapshot {snap:?})"
    );
    server.shutdown();
}

/// Corrupted request bytes get a 400 (or 404 when only the path was
/// mangled, or a close when the framing died) — never a hang, never a
/// crash, and healthy requests interleave untouched.
#[test]
fn corrupted_bytes_get_typed_refusals_not_hangs() {
    let server = chaos_server(400, 300);
    let addr = server.local_addr();
    let client = TransportClient::new(addr).with_timeout(Duration::from_secs(3));

    for conn in 0..8u64 {
        let plan = ChaosPlan {
            seed: 3,
            conn,
            mode: ChaosMode::Corrupt {
                rate_den: 3 + conn % 5,
            },
        };
        let started = Instant::now();
        let response = run_chaos_conn(addr, plan);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "corrupt connection {conn} took {:?}",
            started.elapsed()
        );
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 2"),
                "corrupt arm {conn} got a non-HTTP reply: {text:.60}"
            );
        }
        // Healthy traffic interleaves untouched after every abuse round.
        client.healthz().expect("healthy call between corrupt arms");
    }
    drop(client);
    // 8 corrupt connections + the interleaved health client's one
    // pooled connection.
    assert_connections_drain(&server, 9);
    server.shutdown();
}

/// A stalled reader (request sent, response never collected) must not
/// hold its worker hostage: the response lands in the kernel buffer, the
/// abandoned connection reads as EOF once the client walks away, and
/// concurrent healthy traffic keeps flowing.
#[test]
fn stalled_readers_do_not_wedge_workers() {
    let server = chaos_server(300, 200);
    let addr = server.local_addr();

    // As many stalled readers as HTTP workers, all at once.
    let handles: Vec<_> = (0..4u64)
        .map(|conn| {
            let plan = ChaosPlan {
                seed: 4,
                conn,
                mode: ChaosMode::StallAfterWrite { hold_ms: 150 },
            };
            std::thread::spawn(move || run_chaos_conn(addr, plan))
        })
        .collect();
    for h in handles {
        h.join().expect("stalled reader resolves");
    }

    // The moment the stallers are gone, a healthy call must be served
    // within the idle window (workers were parked at worst until their
    // abandoned connections hit EOF/idle expiry).
    let started = Instant::now();
    let client = TransportClient::new(addr).with_timeout(Duration::from_secs(3));
    client.healthz().expect("healthy call after the stalls");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "post-stall health check took {:?} — a worker is wedged",
        started.elapsed()
    );
    drop(client);
    // 4 stalled readers + the post-stall health client.
    assert_connections_drain(&server, 5);
    server.shutdown();
}

/// The chaos schedule is replay-stable: the same seed produces the same
/// per-connection modes and the same counter deltas for the
/// deterministic (non-racing) counters across two full storms.
#[test]
fn chaos_runs_replay_deterministically() {
    let seed = 0x00DE_7E12_u64;
    let run = |_: u32| -> (Vec<ChaosMode>, u64) {
        let server = chaos_server(400, 300);
        let addr = server.local_addr();
        let modes: Vec<ChaosMode> = (0..12u64)
            .map(|k| {
                let plan = ChaosPlan::derive(seed, k);
                run_chaos_conn(addr, plan);
                plan.mode
            })
            .collect();
        assert_connections_drain(&server, 12);
        let accepted = server.metrics().connections_accepted;
        server.shutdown();
        (modes, accepted)
    };
    let (modes_a, accepted_a) = run(0);
    let (modes_b, accepted_b) = run(1);
    assert_eq!(modes_a, modes_b, "plans are pure in (seed, conn)");
    assert_eq!(accepted_a, accepted_b, "same schedule, same admissions");
}
