//! The HTTP front door: a bounded accept/worker loop over one
//! [`ServeEngine`], serving **persistent (keep-alive) connections**.
//!
//! ## Endpoints
//!
//! | route | verb | behaviour |
//! |---|---|---|
//! | `/v1/jobs` | POST | submit `{job, lane}` → `{ticket}`; 400 bad JSON, 429 queue full, 503 shed/stopping |
//! | `/v1/jobs/stream` | POST | chunked streaming submit: one JSON line per `{job, lane}`, one connection → `{results: [...]}` with per-line tickets or typed refusals |
//! | `/v1/jobs/{ticket}` | GET | non-blocking poll; 200 ready, 202 queued/running, 404 unknown, 503 breaker/eviction |
//! | `/v1/jobs/{ticket}/wait` | GET | block until ready via `ServeEngine::wait_timeout` over the budget; 504 on deadline |
//! | `/v1/stream` | GET | chunked feed of every completion, from `subscribe` |
//! | `/healthz` | GET | lane depths, engine counters + load, breaker states, transport overload counters; plus the named sections given to `bind_with_sections` |
//!
//! ## Connection lifecycle
//!
//! A connection serves many requests (HTTP/1.1 keep-alive) until the
//! client sends `Connection: close`, the idle window between requests
//! expires, the per-connection request cap is reached (the final
//! response advertises `Connection: close`), a request is malformed
//! (400/408 then close — framing can no longer be trusted), or the
//! server begins draining. Each request re-arms a fresh
//! [`DeadlineBudget`]: the time spent *reading* the request counts
//! against it (see below), and `/wait` hands the remainder to
//! `ServeEngine::wait_timeout`.
//!
//! ## Slow-loris guard
//!
//! Per-read socket timeouts alone cannot bound a byte-at-a-time client
//! — every byte arrives "in time" while the worker is held forever.
//! A private `GuardedStream` wrapper bounds the **total** header+body
//! read time per request: once the first byte of a request arrives, a
//! wall-clock deadline of `request_deadline_ms` covers every subsequent
//! read, and exhausting it surfaces as a timeout → 408 → close. Between
//! requests the same wrapper enforces `idle_timeout_ms` (expiry closes
//! the connection silently — no response is owed for a request never
//! started) and polls in short slices so a draining server reclaims
//! idle workers promptly.
//!
//! ## Overload shedding
//!
//! One accept thread feeds a **bounded** channel of connections drained
//! by a fixed pool of HTTP workers. The accept thread never blocks:
//! when the global connection gauge (queued + in-service) reaches
//! 256 connections, or the 64-deep hand-off queue is full, the excess
//! connection is answered `503` inline and closed — counted in
//! [`TransportMetrics`] so `/healthz` shows overload as it happens.
//!
//! [`TransportServer::shutdown`] is the graceful path: stop accepting,
//! let the workers finish every queued connection, then drain the
//! engine so in-flight tickets complete. Dropping the server instead
//! discards queued engine jobs (the engine's `Drop` semantics).

use crate::http::{
    finish_chunks, read_request, write_chunk, write_chunked_head, write_response_conn, Request,
};
use crate::wire;
use qnat_core::health::DeadlineBudget;
use qnat_json::Json;
use qnat_serve::engine::{Poll, ServeEngine, Ticket, WaitError};
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-door tuning knobs.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// HTTP worker threads draining the accept queue (clamped to ≥ 1).
    /// A keep-alive connection occupies its worker for the connection's
    /// lifetime, so this is also the concurrent-connection service
    /// capacity.
    pub http_workers: usize,
    /// Per-request deadline budget in milliseconds: bounds the total
    /// header+body read time (slow-loris guard → 408), the handler's
    /// blocking window (`/wait` → 504) and the response write.
    pub request_deadline_ms: u64,
    /// Keep-alive idle window in milliseconds: how long a connection may
    /// sit between requests before the server closes it.
    pub idle_timeout_ms: u64,
    /// Requests served per connection before the server closes it (the
    /// final response advertises `Connection: close`). Clamped to ≥ 1.
    pub max_requests_per_connection: u64,
}

/// Bounded accept-queue depth: a full queue sheds the connection with 503
/// instead of blocking the accept thread.
const ACCEPT_QUEUE: usize = 64;
/// Global connection slots (queued + in-service). An accept beyond this
/// is answered 503 and closed immediately.
const MAX_CONNECTIONS: u64 = 256;

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            http_workers: 4,
            request_deadline_ms: 10_000,
            idle_timeout_ms: 5_000,
            max_requests_per_connection: 1_024,
        }
    }
}

/// Shared transport-level counters — the observability half of the
/// overload contract. Gauges and counters are updated lock-free by the
/// accept thread and every HTTP worker; [`TransportMetrics::snapshot`]
/// reads them for `/healthz`.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    active_connections: AtomicU64,
    connections_accepted: AtomicU64,
    connections_shed: AtomicU64,
    keepalive_reuses: AtomicU64,
    requests_served: AtomicU64,
    timeouts_408: AtomicU64,
    bad_requests_400: AtomicU64,
    rejected_429: AtomicU64,
    unavailable_503: AtomicU64,
}

/// A point-in-time copy of [`TransportMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections currently admitted (queued for a worker or being
    /// served). Returns to zero once every connection drains.
    pub active_connections: u64,
    /// Connections admitted past the limit check, ever.
    pub connections_accepted: u64,
    /// Connections answered 503-and-close at the accept edge (connection
    /// limit or full hand-off queue).
    pub connections_shed: u64,
    /// Requests served beyond the first on their connection — the
    /// keep-alive reuse count.
    pub keepalive_reuses: u64,
    /// HTTP responses written (streamed responses count once).
    pub requests_served: u64,
    /// 408s answered (slow-loris / read-deadline expiries).
    pub timeouts_408: u64,
    /// 400s answered (malformed requests; streamed-submit items
    /// included).
    pub bad_requests_400: u64,
    /// 429s issued (queue-full refusals; streamed-submit items
    /// included).
    pub rejected_429: u64,
    /// 503s issued (shed/stopping/breaker refusals and accept-edge
    /// sheds; streamed-submit items included).
    pub unavailable_503: u64,
}

impl TransportMetrics {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            active_connections: self.active_connections.load(Ordering::SeqCst),
            connections_accepted: self.connections_accepted.load(Ordering::SeqCst),
            connections_shed: self.connections_shed.load(Ordering::SeqCst),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::SeqCst),
            requests_served: self.requests_served.load(Ordering::SeqCst),
            timeouts_408: self.timeouts_408.load(Ordering::SeqCst),
            bad_requests_400: self.bad_requests_400.load(Ordering::SeqCst),
            rejected_429: self.rejected_429.load(Ordering::SeqCst),
            unavailable_503: self.unavailable_503.load(Ordering::SeqCst),
        }
    }

    fn count_status(&self, status: u16) {
        match status {
            408 => self.timeouts_408.fetch_add(1, Ordering::SeqCst),
            400 => self.bad_requests_400.fetch_add(1, Ordering::SeqCst),
            429 => self.rejected_429.fetch_add(1, Ordering::SeqCst),
            503 => self.unavailable_503.fetch_add(1, Ordering::SeqCst),
            _ => 0,
        };
    }
}

/// An extra `/healthz` section provider — e.g. the fleet router's health
/// view when the front door sits on a fleet, or the calibration
/// tracker's per-device estimates (see
/// [`TransportServer::bind_with_sections`]).
pub type HealthSection = Arc<dyn Fn() -> Json + Send + Sync>;

/// A running front door bound to a TCP address.
pub struct TransportServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<TransportMetrics>,
    /// `Some` until [`TransportServer::shutdown`] takes it to drain.
    engine: Option<Arc<ServeEngine>>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl TransportServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept and worker threads over `engine`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: &str,
        config: TransportConfig,
        engine: ServeEngine,
    ) -> io::Result<TransportServer> {
        Self::bind_with_sections(addr, config, engine, Vec::new())
    }

    /// [`TransportServer::bind`] plus any number of named `/healthz`
    /// sections: each provider's document is merged into the health body
    /// under its key, in the order given. The fleet front door pairs a
    /// `"fleet"` section ([`wire::fleet_health_to_json`]) with a
    /// `"calibration"` section ([`wire::calibration_health_to_json`]) so
    /// operators see routing state and the learned drift estimates in
    /// one probe.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_sections(
        addr: &str,
        config: TransportConfig,
        engine: ServeEngine,
        sections: Vec<(String, HealthSection)>,
    ) -> io::Result<TransportServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(engine);
        let metrics = Arc::new(TransportMetrics::default());
        let sections: Arc<[(String, HealthSection)]> = sections.into();

        let (tx, rx) = sync_channel::<TcpStream>(ACCEPT_QUEUE);
        let rx = Arc::new(Mutex::new(rx));

        let accept_stop = Arc::clone(&stop);
        let accept_metrics = Arc::clone(&metrics);
        let accept_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break; // the shutdown poke lands here
                }
                let Ok(stream) = stream else { continue };
                // Keep-alive round trips must not sit out Nagle's ACK
                // wait between a response and the next request.
                let _ = stream.set_nodelay(true);
                // Single accept thread: the load check cannot race
                // another admission, only early worker decrements —
                // which err on the side of admitting.
                if accept_metrics.active_connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    shed_connection(stream, &accept_metrics);
                    continue;
                }
                // Count the admission *before* the handoff: a worker can
                // serve the whole request the moment try_send returns,
                // so incrementing afterwards lets an observer see the
                // response while connections_accepted still excludes it.
                accept_metrics
                    .active_connections
                    .fetch_add(1, Ordering::SeqCst);
                accept_metrics
                    .connections_accepted
                    .fetch_add(1, Ordering::SeqCst);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        accept_metrics
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                        accept_metrics
                            .connections_accepted
                            .fetch_sub(1, Ordering::SeqCst);
                        shed_connection(stream, &accept_metrics);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        accept_metrics
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                        accept_metrics
                            .connections_accepted
                            .fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                }
            }
            // tx drops here: workers drain what's queued, then exit.
        });

        let worker_handles = (0..config.http_workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let config = config.clone();
                let sections = Arc::clone(&sections);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || loop {
                    let conn = {
                        let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                        guard.recv()
                    };
                    match conn {
                        Ok(stream) => {
                            handle_connection(stream, &engine, &config, &stop, &sections, &metrics);
                            metrics.active_connections.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(_) => break, // accept loop gone and queue drained
                    }
                })
            })
            .collect();

        Ok(TransportServer {
            local_addr,
            stop,
            metrics,
            engine: Some(engine),
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the door (tests assert against its stats and
    /// seeds).
    pub fn engine(&self) -> &ServeEngine {
        self.engine
            .as_deref()
            .expect("engine lives until shutdown takes it")
    }

    /// A snapshot of the transport-level counters (also served under
    /// `/healthz`'s `transport` section).
    pub fn metrics(&self) -> TransportSnapshot {
        self.metrics.snapshot()
    }

    /// Graceful drain: stop accepting connections, finish every queued
    /// HTTP request, then drain the engine so every in-flight ticket
    /// completes. Returns the engine's final stats.
    ///
    /// # Panics
    ///
    /// Panics if an engine handle still lives outside the server (the
    /// server is the engine's owner by construction).
    pub fn shutdown(mut self) -> qnat_serve::engine::EngineStats {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let arc = self.engine.take().expect("shutdown runs once");
        let engine = Arc::try_unwrap(arc)
            .unwrap_or_else(|_| panic!("transport server owns the only engine handle"));
        engine.drain()
    }
}

impl Drop for TransportServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // The engine drops with the server: queued jobs are discarded.
    }
}

/// Answers 503 inline from the accept thread (bounded by a short write
/// timeout so a dead peer cannot stall accepts) and closes.
fn shed_connection(mut stream: TcpStream, metrics: &TransportMetrics) {
    metrics.connections_shed.fetch_add(1, Ordering::SeqCst);
    metrics.count_status(503);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let body = wire::error_body("overloaded", "connection limit reached", vec![]).to_json();
    let _ = write_response_conn(&mut stream, 503, &body, true);
}

/// How long the guarded reader sleeps per poll slice while waiting for
/// bytes — the bound on how stale its stop-flag / deadline checks can
/// be.
const READ_SLICE_MS: u64 = 100;

/// The slow-loris guard: a `Read` wrapper over the connection's read
/// half that distinguishes the **idle** phase (between requests, bounded
/// by the keep-alive idle window) from the **active** phase (inside a
/// request, bounded by a wall-clock deadline covering the *total*
/// header+body read time). Socket timeouts are re-armed per poll slice,
/// so a byte-at-a-time client exhausts the request deadline instead of
/// resetting it with every byte.
struct GuardedStream {
    inner: TcpStream,
    stop: Arc<AtomicBool>,
    idle_ms: u64,
    request_ms: u64,
    phase: Phase,
}

enum Phase {
    /// Waiting for the first byte of the next request.
    Idle {
        /// When the keep-alive idle window expires.
        deadline: Instant,
    },
    /// Inside a request: every read shares one wall-clock deadline.
    Active {
        /// When the request's first byte arrived.
        started: Instant,
    },
}

impl GuardedStream {
    fn new(inner: TcpStream, stop: Arc<AtomicBool>, idle_ms: u64, request_ms: u64) -> Self {
        GuardedStream {
            inner,
            stop,
            idle_ms,
            request_ms,
            phase: Phase::Idle {
                deadline: Instant::now() + Duration::from_millis(idle_ms),
            },
        }
    }

    /// Re-enters the idle phase ahead of the next request on this
    /// connection.
    fn begin_request(&mut self) {
        self.phase = Phase::Idle {
            deadline: Instant::now() + Duration::from_millis(self.idle_ms),
        };
    }

    /// Milliseconds spent inside the current request so far (0 while
    /// idle) — charged against the request's [`DeadlineBudget`].
    fn request_elapsed_ms(&self) -> u64 {
        match self.phase {
            Phase::Idle { .. } => 0,
            Phase::Active { started } => {
                u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl Read for GuardedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.phase {
                Phase::Idle { deadline } => {
                    // A draining server or an expired idle window reads
                    // as clean EOF: the connection closes without a
                    // response, because no request was started.
                    if self.stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
                        return Ok(0);
                    }
                    let left = deadline.saturating_duration_since(Instant::now());
                    let slice = left
                        .min(Duration::from_millis(READ_SLICE_MS))
                        .max(Duration::from_millis(1));
                    let _ = self.inner.set_read_timeout(Some(slice));
                    match self.inner.read(buf) {
                        Ok(0) => return Ok(0),
                        Ok(n) => {
                            self.phase = Phase::Active {
                                started: Instant::now(),
                            };
                            return Ok(n);
                        }
                        Err(e) if is_timeout(&e) => continue,
                        Err(e) => return Err(e),
                    }
                }
                Phase::Active { started } => {
                    let elapsed = started.elapsed();
                    let deadline = Duration::from_millis(self.request_ms);
                    if elapsed >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "request read deadline exhausted",
                        ));
                    }
                    let left = deadline - elapsed;
                    let slice = left
                        .min(Duration::from_millis(READ_SLICE_MS))
                        .max(Duration::from_millis(1));
                    let _ = self.inner.set_read_timeout(Some(slice));
                    match self.inner.read(buf) {
                        Ok(n) => return Ok(n),
                        Err(e) if is_timeout(&e) => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

/// Arms the write half for a response, drawing on the request budget
/// (floored so an exhausted budget still gets a beat to flush the
/// error response instead of guaranteeing failure).
fn arm_write(stream: &TcpStream, budget: &DeadlineBudget) {
    let left = Duration::from_millis(budget.remaining_ms().max(250));
    let _ = stream.set_write_timeout(Some(left));
}

fn respond(
    stream: &mut TcpStream,
    metrics: &TransportMetrics,
    status: u16,
    body: &Json,
    close: bool,
) {
    metrics.requests_served.fetch_add(1, Ordering::SeqCst);
    metrics.count_status(status);
    let _ = write_response_conn(stream, status, &body.to_json(), close);
}

fn handle_connection(
    stream: TcpStream,
    engine: &ServeEngine,
    config: &TransportConfig,
    stop: &Arc<AtomicBool>,
    sections: &[(String, HealthSection)],
    metrics: &TransportMetrics,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(GuardedStream::new(
        read_half,
        Arc::clone(stop),
        config.idle_timeout_ms.max(1),
        config.request_deadline_ms.max(1),
    ));
    let mut stream = stream;
    let max_requests = config.max_requests_per_connection.max(1);
    let mut served = 0u64;

    loop {
        reader.get_mut().begin_request();
        let request = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close / idle expiry between requests
            Err(e) => {
                // Mid-request failure: answer if the wire allows, then
                // close — the framing can no longer be trusted.
                let status = if e.timed_out { 408 } else { 400 };
                let budget = DeadlineBudget::new(config.request_deadline_ms);
                arm_write(&stream, &budget);
                respond(
                    &mut stream,
                    metrics,
                    status,
                    &wire::error_body("bad_request", e.reason, vec![]),
                    true,
                );
                return;
            }
        };
        served += 1;
        if served > 1 {
            metrics.keepalive_reuses.fetch_add(1, Ordering::SeqCst);
        }

        // Fresh per-request budget, already charged for the time the
        // request spent arriving (the slow-loris guard's clock).
        let budget = DeadlineBudget::new(config.request_deadline_ms);
        let read_ms = reader.get_mut().request_elapsed_ms();
        let _ = budget.try_consume(read_ms.min(budget.remaining_ms()));
        arm_write(&stream, &budget);

        // The last allowed request and a draining server both advertise
        // the close so a well-behaved client reconnects cleanly.
        let close = request.wants_close() || served >= max_requests || stop.load(Ordering::SeqCst);

        match route(&request) {
            Route::Submit => handle_submit(&mut stream, engine, &request, metrics, close),
            Route::SubmitStream => {
                handle_submit_stream(&mut stream, engine, &request, metrics, close)
            }
            Route::Mitigate => {
                handle_mitigate(&mut stream, engine, &request, &budget, metrics, close)
            }
            Route::Poll(ticket) => handle_poll(&mut stream, engine, ticket, metrics, close),
            Route::Wait(ticket) => {
                handle_wait(&mut stream, engine, &budget, ticket, metrics, close)
            }
            Route::Stream => {
                // The chunked completion feed ends the connection.
                handle_stream(&mut stream, engine, &request, &budget, stop, metrics);
                return;
            }
            Route::Health => handle_health(&mut stream, engine, stop, sections, metrics, close),
            Route::MethodNotAllowed => respond(
                &mut stream,
                metrics,
                405,
                &wire::error_body(
                    "method_not_allowed",
                    format!("{} {}", request.method, request.path),
                    vec![],
                ),
                close,
            ),
            Route::NotFound => respond(
                &mut stream,
                metrics,
                404,
                &wire::error_body("not_found", request.path.clone(), vec![]),
                close,
            ),
        }
        if close {
            return;
        }
    }
}

enum Route {
    Submit,
    SubmitStream,
    Mitigate,
    Poll(Ticket),
    Wait(Ticket),
    Stream,
    Health,
    MethodNotAllowed,
    NotFound,
}

fn route(req: &Request) -> Route {
    let path = req.path.as_str();
    match path {
        "/v1/jobs" => {
            return if req.method == "POST" {
                Route::Submit
            } else {
                Route::MethodNotAllowed
            };
        }
        "/v1/jobs/stream" => {
            return if req.method == "POST" {
                Route::SubmitStream
            } else {
                Route::MethodNotAllowed
            };
        }
        "/v1/mitigate" => {
            return if req.method == "POST" {
                Route::Mitigate
            } else {
                Route::MethodNotAllowed
            };
        }
        "/v1/stream" => {
            return if req.method == "GET" {
                Route::Stream
            } else {
                Route::MethodNotAllowed
            };
        }
        "/healthz" => {
            return if req.method == "GET" {
                Route::Health
            } else {
                Route::MethodNotAllowed
            };
        }
        _ => {}
    }
    if let Some(rest) = path.strip_prefix("/v1/jobs/") {
        let (ticket_str, wait) = match rest.strip_suffix("/wait") {
            Some(t) => (t, true),
            None => (rest, false),
        };
        if let Ok(ticket) = ticket_str.parse::<Ticket>() {
            return if req.method != "GET" {
                Route::MethodNotAllowed
            } else if wait {
                Route::Wait(ticket)
            } else {
                Route::Poll(ticket)
            };
        }
    }
    Route::NotFound
}

fn handle_submit(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    req: &Request,
    metrics: &TransportMetrics,
    close: bool,
) {
    let parsed = wire::parse_body(&req.body).and_then(|v| wire::submit_request_from_json(&v));
    let (job, lane) = match parsed {
        Ok(p) => p,
        Err(e) => {
            respond(
                stream,
                metrics,
                400,
                &wire::error_body("bad_request", e.reason, vec![]),
                close,
            );
            return;
        }
    };
    match engine.submit(job, lane) {
        Ok(ticket) => respond(
            stream,
            metrics,
            200,
            &wire::submit_ack_to_json(ticket, lane),
            close,
        ),
        Err(e) => respond(
            stream,
            metrics,
            wire::submit_error_status(&e),
            &wire::submit_error_to_json(&e),
            close,
        ),
    }
}

/// The streaming batch submit: the (typically chunked) body carries one
/// JSON submit request per line; every line is answered in order inside
/// one [`wire::stream_submit_to_json`] document — accepted lines with
/// their ticket, refused lines with the typed refusal and the status it
/// would have earned as a lone request. Per-item refusals bump the transport's
/// 400/429/503 counters so overload stays observable even when it
/// arrives in bulk.
fn handle_submit_stream(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    req: &Request,
    metrics: &TransportMetrics,
    close: bool,
) {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => {
            respond(
                stream,
                metrics,
                400,
                &wire::error_body("bad_request", "streamed submit body is not UTF-8", vec![]),
                close,
            );
            return;
        }
    };
    let verdicts = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let parsed =
                wire::parse_body(line.as_bytes()).and_then(|v| wire::submit_request_from_json(&v));
            let verdict = match parsed {
                Ok((job, lane)) => engine
                    .submit(job, lane)
                    .map(|ticket| (ticket, lane))
                    .map_err(|e| {
                        (
                            wire::submit_error_status(&e),
                            wire::submit_error_to_json(&e),
                        )
                    }),
                Err(e) => Err((400, wire::error_body("bad_request", e.reason, vec![]))),
            };
            if let Err((status, _)) = &verdict {
                metrics.count_status(*status);
            }
            verdict
        })
        .collect();
    respond(
        stream,
        metrics,
        200,
        &wire::stream_submit_to_json(verdicts),
        close,
    );
}

/// The mitigated-sweep front door: one request fans out into one folded
/// sub-run per noise scale on the bulk lane
/// ([`qnat_serve::submit_mitigated`]), blocks on the whole sweep within
/// the request's remaining deadline budget, and answers with the single
/// aggregated result. Status contract: sweep-shape errors → 400, engine
/// refusals keep the submit contract (429/503), a failed sub-run keeps
/// its backend error's class (503/500), mitigation-math rejections →
/// 500 with the typed body, budget exhausted → 504.
fn handle_mitigate(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    req: &Request,
    budget: &DeadlineBudget,
    metrics: &TransportMetrics,
    close: bool,
) {
    let parsed = wire::parse_body(&req.body).and_then(|v| wire::mitigate_request_from_json(&v));
    let (job, seed) = match parsed {
        Ok(p) => p,
        Err(e) => {
            respond(
                stream,
                metrics,
                400,
                &wire::error_body("bad_request", e.reason, vec![]),
                close,
            );
            return;
        }
    };
    let sweep = match qnat_serve::submit_mitigated(engine, &job, seed) {
        Ok(s) => s,
        Err(e) => {
            respond(
                stream,
                metrics,
                wire::mitigated_submit_error_status(&e),
                &wire::mitigated_submit_error_to_json(&e),
                close,
            );
            return;
        }
    };
    let window_ms = budget.remaining_ms();
    let started = Instant::now();
    match sweep.wait_timeout(engine, window_ms) {
        Ok(outcome) => {
            let elapsed = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            let _ = budget.try_consume(elapsed.min(budget.remaining_ms()));
            arm_write(stream, budget);
            let status = match &outcome.mitigated {
                Ok(_) => 200,
                Err(e) => wire::mitigation_error_status(e),
            };
            respond(
                stream,
                metrics,
                status,
                &wire::mitigated_outcome_to_json(&outcome),
                close,
            );
        }
        Err(WaitError::Unknown) => {
            let (status, body) = wire::poll_to_json(&Poll::Unknown);
            respond(stream, metrics, status, &body, close);
        }
        Err(WaitError::Timeout { waited_ms }) => {
            let _ = budget.try_consume(waited_ms.min(budget.remaining_ms()));
            respond(
                stream,
                metrics,
                504,
                &wire::error_body("deadline", "mitigated sweep not ready in budget", vec![]),
                close,
            );
        }
    }
}

fn handle_poll(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    ticket: Ticket,
    metrics: &TransportMetrics,
    close: bool,
) {
    let (status, body) = wire::poll_to_json(&engine.poll(ticket));
    respond(stream, metrics, status, &body, close);
}

/// Blocks until the ticket is ready through the engine's own condvar
/// ([`ServeEngine::wait_timeout`]) bounded by the request's remaining
/// budget — no poll loop, so completions wake the request immediately
/// and an exhausted budget surfaces as a typed engine timeout → 504.
fn handle_wait(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    budget: &DeadlineBudget,
    ticket: Ticket,
    metrics: &TransportMetrics,
    close: bool,
) {
    let window_ms = budget.remaining_ms();
    let started = Instant::now();
    match engine.wait_timeout(ticket, window_ms) {
        Ok(outcome) => {
            // The wait consumed real time; charge the budget before
            // re-arming the socket for the response write.
            let elapsed = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            let _ = budget.try_consume(elapsed.min(budget.remaining_ms()));
            arm_write(stream, budget);
            let (status, body) = wire::poll_to_json(&Poll::Ready(outcome));
            respond(stream, metrics, status, &body, close);
        }
        Err(WaitError::Unknown) => {
            let (status, body) = wire::poll_to_json(&Poll::Unknown);
            respond(stream, metrics, status, &body, close);
        }
        Err(WaitError::Timeout { waited_ms }) => {
            let _ = budget.try_consume(waited_ms.min(budget.remaining_ms()));
            respond(
                stream,
                metrics,
                504,
                &wire::error_body(
                    "deadline",
                    format!("ticket {ticket} not ready in budget"),
                    vec![],
                ),
                close,
            );
        }
    }
}

/// Streams completions as chunked JSON lines. Ends when the requested
/// `?max=N` completions were delivered, the engine disconnects, the
/// server stops, or the connection budget runs out. The connection
/// closes afterwards (the response has no length framing to recover
/// from).
fn handle_stream(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    req: &Request,
    budget: &DeadlineBudget,
    stop: &AtomicBool,
    metrics: &TransportMetrics,
) {
    let max: Option<u64> = req.query_param("max").and_then(|v| v.parse().ok());
    let rx = engine.subscribe();
    // The stream outlives the per-request deadline by design: its writes
    // should only fail when the client goes away, not mid-healthy-feed.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(budget.remaining_ms().max(1000))));
    metrics.requests_served.fetch_add(1, Ordering::SeqCst);
    if write_chunked_head(stream, 200).is_err() {
        return;
    }
    let mut sent = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) || max.is_some_and(|m| sent >= m) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((ticket, result)) => {
                let line = wire::stream_event_to_json(ticket, &result).to_json();
                if write_chunk(stream, &format!("{line}\n")).is_err() {
                    return; // client hung up
                }
                sent += 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                if !budget.try_consume(50) {
                    break; // connection budget exhausted while idle
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = finish_chunks(stream);
}

fn handle_health(
    stream: &mut TcpStream,
    engine: &ServeEngine,
    stop: &AtomicBool,
    sections: &[(String, HealthSection)],
    metrics: &TransportMetrics,
    close: bool,
) {
    let body = wire::health_to_json(
        engine,
        stop.load(Ordering::SeqCst),
        &metrics.snapshot(),
        sections
            .iter()
            .map(|(key, section)| (key.clone(), section())),
    );
    respond(stream, metrics, 200, &body, close);
}
