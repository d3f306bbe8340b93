//! The in-repo blocking client, now with a pooled keep-alive
//! connection: calls reuse one TCP connection across requests,
//! transparently reconnecting when the server closed it (idle timeout,
//! request cap, drain) and retrying **idempotent GETs** once on a stale
//! connection. Non-idempotent POSTs are only retried when the *write*
//! of the request failed — bytes that never reached the server cannot
//! have been acted on; a POST whose response went missing surfaces the
//! error instead of risking a duplicate submission.
//!
//! This is the client the `transport_e2e` test, the chaos suite and the
//! load harness drive — deliberately minimal, deliberately honest about
//! failure: a non-2xx status comes back as [`ClientError::Status`] with
//! the body preserved, so tests can assert the 429/503 contract.

use crate::http::{
    finish_chunks, read_response, write_chunk, write_chunked_request_head, write_request,
    HttpError, Response,
};
use crate::wire::{self, MitigatedResult, WireError};
use qnat_core::batch::BatchJob;
use qnat_json::Json;
use qnat_noise::backend::{BackendError, Measurements};
use qnat_serve::engine::{JobOutcome, Lane, Ticket};
use qnat_serve::mitigate::MitigatedJob;
use std::error::Error;
use std::fmt;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which phase of a client call ran out of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPhase {
    /// TCP connect did not complete within the connect timeout.
    Connect,
    /// The request could not be written within the per-call timeout.
    Write,
    /// The response did not arrive within the per-call timeout.
    Read,
}

impl fmt::Display for TimeoutPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutPhase::Connect => write!(f, "connect"),
            TimeoutPhase::Write => write!(f, "write"),
            TimeoutPhase::Read => write!(f, "read"),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect refused, reset, …).
    Io(std::io::Error),
    /// The call ran out of time in the given phase — the typed signal a
    /// caller needs to distinguish "server slow/hung" from "server
    /// broken", instead of pattern-matching io error kinds.
    Timeout {
        /// Which phase timed out.
        phase: TimeoutPhase,
    },
    /// The response was not valid HTTP.
    Http(HttpError),
    /// The response body did not decode as the expected payload.
    Wire(WireError),
    /// The server answered with a non-success status.
    Status {
        /// HTTP status code.
        status: u16,
        /// Response body, as text.
        body: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io error: {e}"),
            ClientError::Timeout { phase } => {
                write!(f, "client timed out during {phase}")
            }
            ClientError::Http(e) => write!(f, "client http error: {e}"),
            ClientError::Wire(e) => write!(f, "client decode error: {e}"),
            ClientError::Status { status, body } => {
                write!(f, "server answered {status}: {body}")
            }
        }
    }
}

impl Error for ClientError {}

fn io_is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // Bare io conversions only happen on the read path (connect and
        // write classify explicitly in `call`).
        if io_is_timeout(&e) {
            ClientError::Timeout {
                phase: TimeoutPhase::Read,
            }
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        if e.timed_out {
            ClientError::Timeout {
                phase: TimeoutPhase::Read,
            }
        } else {
            ClientError::Http(e)
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Non-blocking view of a ticket, as `GET /v1/jobs/{ticket}` reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum TicketStatus {
    /// Still waiting in a lane.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished — outcome handed over (and consumed server-side).
    Ready(JobOutcome),
}

/// One event off `GET /v1/stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Which ticket completed.
    pub ticket: Ticket,
    /// Its result (evictions and fast-fails included).
    pub result: Result<Measurements, BackendError>,
}

/// One line's verdict from the streaming batch submit
/// (`POST /v1/jobs/stream`): the ticket, or the refusal the line would
/// have earned as a lone request.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSubmit {
    /// The job was admitted under this ticket.
    Accepted(Ticket),
    /// The job was refused (429 queue-full, 503 shed/stopping, 400
    /// malformed line).
    Refused {
        /// The per-item HTTP-equivalent status.
        status: u16,
        /// The typed refusal body, as JSON text.
        body: String,
    },
}

/// A pooled keep-alive connection: the buffered read half plus a write
/// handle over the same socket.
struct PooledConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A blocking HTTP client for one front door, holding at most one idle
/// keep-alive connection. Concurrent calls on clones sharing the pool
/// simply open an extra connection when the pooled one is in use; the
/// first connection back fills the idle slot, later ones close.
#[derive(Clone)]
pub struct TransportClient {
    addr: SocketAddr,
    timeout: Duration,
    connect_timeout: Duration,
    keep_alive: bool,
    pool: Arc<Mutex<Option<PooledConn>>>,
}

impl fmt::Debug for TransportClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransportClient")
            .field("addr", &self.addr)
            .field("timeout", &self.timeout)
            .field("connect_timeout", &self.connect_timeout)
            .field("keep_alive", &self.keep_alive)
            .finish_non_exhaustive()
    }
}

impl TransportClient {
    /// A client for the server at `addr` with a 30 s per-call
    /// (read/write) timeout, a 10 s connect timeout, and connection
    /// reuse on.
    pub fn new(addr: SocketAddr) -> Self {
        TransportClient {
            addr,
            timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            keep_alive: true,
            pool: Arc::new(Mutex::new(None)),
        }
    }

    /// Overrides the per-call read/write socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the TCP connect timeout, separately from the per-call
    /// timeout — a dead host should fail fast even when long server-side
    /// waits are configured.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Disables connection reuse: every call opens (and drops) a fresh
    /// TCP connection — the pre-keep-alive behaviour, kept as the load
    /// harness's baseline arm.
    #[must_use]
    pub fn without_keep_alive(mut self) -> Self {
        self.keep_alive = false;
        self
    }

    fn connect(&self) -> Result<PooledConn, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout).map_err(|e| {
            if io_is_timeout(&e) {
                ClientError::Timeout {
                    phase: TimeoutPhase::Connect,
                }
            } else {
                ClientError::Io(e)
            }
        })?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        // Request/response round trips on a reused connection must not
        // sit out Nagle's ACK wait.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(PooledConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Takes the idle pooled connection, if any.
    fn take_pooled(&self) -> Option<PooledConn> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Returns a still-healthy connection to the idle slot (first one
    /// back wins; an already-filled slot drops the newcomer).
    fn park(&self, conn: PooledConn) {
        let mut slot = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(conn);
        }
    }

    /// One request/response over `conn`. `Err((phase-tagged error,
    /// wrote))` reports whether the request bytes had already been
    /// flushed when the call failed — the retry-safety signal.
    fn attempt(
        conn: &mut PooledConn,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Response, (ClientError, bool)> {
        write_request(&mut conn.writer, method, target, body).map_err(|e| {
            let e = if e.timed_out {
                ClientError::Timeout {
                    phase: TimeoutPhase::Write,
                }
            } else {
                ClientError::Http(e)
            };
            (e, false)
        })?;
        read_response(&mut conn.reader).map_err(|e| (ClientError::from(e), true))
    }

    /// Whether a failed attempt on a **reused** connection may be
    /// replayed on a fresh one. A request that never flushed is always
    /// safe; one that flushed is only safe when idempotent (GET) and
    /// the failure smells like a stale keep-alive connection (the
    /// server closed or reset it), not like a server-side timeout.
    fn retriable(method: &str, wrote: bool, err: &ClientError) -> bool {
        if !wrote {
            return true;
        }
        if method != "GET" {
            return false;
        }
        match err {
            ClientError::Io(_) => true,
            // "no response" = clean EOF before any status line — the
            // classic stale keep-alive race.
            ClientError::Http(e) => e.reason.contains("no response"),
            _ => false,
        }
    }

    fn call(&self, method: &str, target: &str, body: &[u8]) -> Result<Response, ClientError> {
        if !self.keep_alive {
            let mut conn = self.connect()?;
            return Self::attempt(&mut conn, method, target, body).map_err(|(e, _)| e);
        }
        // First try the pooled connection, falling back to (at most) one
        // fresh connection when the reused one turns out stale.
        if let Some(mut conn) = self.take_pooled() {
            match Self::attempt(&mut conn, method, target, body) {
                Ok(resp) => {
                    self.maybe_park(conn, &resp);
                    return Ok(resp);
                }
                Err((e, wrote)) => {
                    // The stale connection is dropped either way.
                    if !Self::retriable(method, wrote, &e) {
                        return Err(e);
                    }
                }
            }
        }
        let mut conn = self.connect()?;
        match Self::attempt(&mut conn, method, target, body) {
            Ok(resp) => {
                self.maybe_park(conn, &resp);
                Ok(resp)
            }
            Err((e, _)) => Err(e),
        }
    }

    /// Parks the connection for reuse unless the server said it is done
    /// with it (`Connection: close`, or a chunked stream that has no
    /// reusable framing afterwards).
    fn maybe_park(&self, conn: PooledConn, resp: &Response) {
        let closing = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let streamed = resp
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        if !closing && !streamed {
            self.park(conn);
        }
    }

    fn expect_json(resp: &Response) -> Result<Json, ClientError> {
        let text = resp.text()?;
        if resp.status < 200 || resp.status >= 300 {
            return Err(ClientError::Status {
                status: resp.status,
                body: text.to_owned(),
            });
        }
        Ok(Json::parse(text).map_err(WireError::from)?)
    }

    /// `POST /v1/jobs`: submits `job` on `lane`, returns its ticket.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carries the 429/503 refusals.
    pub fn submit(&self, job: &BatchJob, lane: Lane) -> Result<Ticket, ClientError> {
        let body = wire::submit_request_to_json(job, lane).to_json();
        let resp = self.call("POST", "/v1/jobs", body.as_bytes())?;
        let v = Self::expect_json(&resp)?;
        let ticket = v
            .get("ticket")
            .and_then(Json::as_f64)
            .ok_or_else(|| WireError {
                reason: "submit response missing 'ticket'".into(),
            })?;
        Ok(ticket as Ticket)
    }

    /// `POST /v1/jobs/stream`: the streaming submit — ships every job
    /// as one chunked JSON line over a single connection and returns
    /// the per-line verdicts in submission order. One connection, one
    /// round trip, any number of jobs.
    ///
    /// # Errors
    ///
    /// Transport-level failures only; per-job refusals come back inside
    /// the [`StreamSubmit`] entries.
    pub fn submit_stream(
        &self,
        jobs: &[(BatchJob, Lane)],
    ) -> Result<Vec<StreamSubmit>, ClientError> {
        let mut conn = match self.take_pooled() {
            Some(conn) if self.keep_alive => conn,
            _ => self.connect()?,
        };
        let sent = (|| -> Result<(), HttpError> {
            write_chunked_request_head(&mut conn.writer, "POST", "/v1/jobs/stream")?;
            for (job, lane) in jobs {
                let line = wire::submit_request_to_json(job, *lane).to_json();
                write_chunk(&mut conn.writer, &format!("{line}\n"))?;
            }
            finish_chunks(&mut conn.writer)
        })();
        if let Err(e) = sent {
            // A half-written chunked body cannot be resumed; a fresh
            // connection replays the whole batch (nothing flushed to
            // the engine until the terminator arrives server-side).
            let mut conn = self.connect()?;
            write_chunked_request_head(&mut conn.writer, "POST", "/v1/jobs/stream")
                .map_err(ClientError::from)?;
            for (job, lane) in jobs {
                let line = wire::submit_request_to_json(job, *lane).to_json();
                write_chunk(&mut conn.writer, &format!("{line}\n")).map_err(ClientError::from)?;
            }
            finish_chunks(&mut conn.writer).map_err(ClientError::from)?;
            let resp = read_response(&mut conn.reader)?;
            let verdicts = Self::decode_stream_submit(&resp)?;
            self.maybe_park(conn, &resp);
            drop(e);
            return Ok(verdicts);
        }
        let resp = read_response(&mut conn.reader)?;
        let verdicts = Self::decode_stream_submit(&resp)?;
        self.maybe_park(conn, &resp);
        Ok(verdicts)
    }

    fn decode_stream_submit(resp: &Response) -> Result<Vec<StreamSubmit>, ClientError> {
        let v = Self::expect_json(resp)?;
        let Some(Json::Arr(results)) = v.get("results") else {
            return Err(ClientError::Wire(WireError {
                reason: "streaming submit response missing 'results'".into(),
            }));
        };
        results
            .iter()
            .map(|item| {
                if let Some(ticket) = item.get("ticket").and_then(Json::as_f64) {
                    return Ok(StreamSubmit::Accepted(ticket as Ticket));
                }
                let status = item
                    .get("status")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| WireError {
                        reason: "streamed verdict missing 'ticket' and 'status'".into(),
                    })? as u16;
                let body = item.get("error").map(Json::to_json).unwrap_or_default();
                Ok(StreamSubmit::Refused { status, body })
            })
            .collect()
    }

    /// `GET /v1/jobs/{ticket}`: non-blocking poll. `Ok(None)` for a
    /// ticket the server does not know (404).
    ///
    /// A ready outcome is returned even when the server graded it 503/500
    /// — the typed error is inside the outcome; the status code is the
    /// HTTP-facing summary.
    pub fn poll(&self, ticket: Ticket) -> Result<Option<TicketStatus>, ClientError> {
        let resp = self.call("GET", &format!("/v1/jobs/{ticket}"), b"")?;
        Self::decode_status(&resp)
    }

    /// `GET /v1/jobs/{ticket}/wait`: blocks server-side until the ticket
    /// completes or the request's deadline budget runs out (504).
    pub fn wait(&self, ticket: Ticket) -> Result<Option<JobOutcome>, ClientError> {
        let resp = self.call("GET", &format!("/v1/jobs/{ticket}/wait"), b"")?;
        match Self::decode_status(&resp)? {
            Some(TicketStatus::Ready(outcome)) => Ok(Some(outcome)),
            Some(other) => Err(ClientError::Wire(WireError {
                reason: format!("wait returned non-ready status {other:?}"),
            })),
            None => Ok(None),
        }
    }

    /// `POST /v1/mitigate`: runs a full error-mitigation sweep
    /// server-side — gate folding per scale, bulk-lane fan-out, readout
    /// inversion and zero-noise extrapolation — and returns the single
    /// aggregated result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carries every typed refusal with its body
    /// preserved: 400 sweep-shape errors, 429/503 engine refusals,
    /// 500 mitigation-math failures (degenerate fit, singular
    /// confusion), 503/500 failed sub-runs, 504 budget exhaustion.
    pub fn mitigate(&self, job: &MitigatedJob, seed: u64) -> Result<MitigatedResult, ClientError> {
        let body = wire::mitigate_request_to_json(job, seed).to_json();
        let resp = self.call("POST", "/v1/mitigate", body.as_bytes())?;
        let v = Self::expect_json(&resp)?;
        Ok(wire::mitigated_result_from_json(&v)?)
    }

    fn decode_status(resp: &Response) -> Result<Option<TicketStatus>, ClientError> {
        if resp.status == 404 {
            return Ok(None);
        }
        let text = resp.text()?;
        let v = Json::parse(text).map_err(WireError::from)?;
        let Some(status) = v.get("status").and_then(Json::as_str) else {
            // Not a ticket-status document — a timeout or error body.
            return Err(if resp.status >= 400 {
                ClientError::Status {
                    status: resp.status,
                    body: text.to_owned(),
                }
            } else {
                ClientError::Wire(WireError {
                    reason: "missing 'status'".into(),
                })
            });
        };
        match status {
            "queued" => Ok(Some(TicketStatus::Queued)),
            "running" => Ok(Some(TicketStatus::Running)),
            "ready" => {
                let outcome = v.get("outcome").ok_or_else(|| WireError {
                    reason: "ready without 'outcome'".into(),
                })?;
                Ok(Some(TicketStatus::Ready(wire::outcome_from_json(outcome)?)))
            }
            _ if resp.status >= 400 => Err(ClientError::Status {
                status: resp.status,
                body: text.to_owned(),
            }),
            other => Err(ClientError::Wire(WireError {
                reason: format!("unknown status '{other}'"),
            })),
        }
    }

    /// `GET /v1/stream?max=N`: collects `max` completion events off the
    /// chunked feed (the server finishes the response after `max`).
    pub fn stream(&self, max: usize) -> Result<Vec<StreamEvent>, ClientError> {
        let resp = self.call("GET", &format!("/v1/stream?max={max}"), b"")?;
        if resp.status != 200 {
            return Err(ClientError::Status {
                status: resp.status,
                body: resp.text().unwrap_or("").to_owned(),
            });
        }
        let mut events = Vec::new();
        for line in resp.text()?.lines().filter(|l| !l.trim().is_empty()) {
            let v = Json::parse(line).map_err(WireError::from)?;
            let ticket = v
                .get("ticket")
                .and_then(Json::as_f64)
                .ok_or_else(|| WireError {
                    reason: "stream event missing 'ticket'".into(),
                })? as Ticket;
            let result = wire::result_from_json(v.get("result").ok_or_else(|| WireError {
                reason: "stream event missing 'result'".into(),
            })?)?;
            events.push(StreamEvent { ticket, result });
        }
        Ok(events)
    }

    /// `GET /healthz`: the raw health document (lane depths, engine
    /// counters + load, transport counters, breaker states).
    pub fn healthz(&self) -> Result<Json, ClientError> {
        let resp = self.call("GET", "/healthz", b"")?;
        Self::expect_json(&resp)
    }
}
