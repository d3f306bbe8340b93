//! JSON wire format for the HTTP front door: every document the server
//! sends or reads, and every one the client sends or reads, is encoded
//! and decoded here.
//!
//! Every payload that crosses the socket — jobs in, outcomes out — is
//! encoded with `qnat-json`, whose exact `f64` round-trip is what lets
//! the `transport_e2e` test demand *bitwise* replay parity between a
//! served workload and the same jobs through `deploy_batch`. The codecs
//! here are therefore deliberately lossless: a [`Gate`] travels with its
//! meaningful qubit slots plus the full `params: [f64; 3]` array (the
//! constructors' `usize::MAX` qubit padding is canonical and restored on
//! decode), and all eleven [`BackendError`] variants keep their typed
//! fields.
//!
//! Leaves (numbers, strings, options, arrays) decode through
//! [`qnat_json::FromJson`]; the domain types live in other crates, so
//! their codecs are the functions below rather than trait impls.
//! Integers ride in JSON numbers (`f64`) and must be non-negative
//! integers no larger than 2⁵³ — far beyond any ticket, job index or
//! backoff tally this stack produces.

use qnat_compiler::folding::FoldStrategy;
use qnat_core::batch::BatchJob;
use qnat_core::executor::{BackendUsage, ExecutionReport, FailureRecord};
use qnat_core::health::{BreakerSnapshot, BreakerState};
use qnat_core::mitigate::{MitigateError, ZneMethod};
use qnat_fleet::FleetHealth;
use qnat_json::{Json, JsonError};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_serve::engine::{EngineLoad, JobOutcome, Lane, Poll, ServeEngine, SubmitError, Ticket};
use qnat_serve::mitigate::{MitigatedJob, MitigatedOutcome, MitigatedSubmitError, MitigationError};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A payload failed to decode: syntactically valid JSON with the wrong
/// shape, an unknown enum tag, an out-of-range number, or not JSON at
/// all.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// What was malformed, in request-diagnostic form.
    pub reason: String,
}

impl WireError {
    fn new(reason: impl Into<String>) -> Self {
        WireError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.reason)
    }
}

impl Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::new(e.to_string())
    }
}

/// A [`qnat_json::FromJson`] decode message.
impl From<String> for WireError {
    fn from(reason: String) -> Self {
        WireError { reason }
    }
}

// ---- circuits and jobs -----------------------------------------------

/// Encodes a gate: the `arity()` meaningful qubit slots and the full
/// `params: [f64; 3]` array. The constructors' `usize::MAX` padding on
/// single-qubit gates is *canonical*, not data — the decoder restores
/// it, so constructor-built gates round-trip bit-for-bit.
pub fn gate_to_json(g: &Gate) -> Json {
    Json::obj([
        ("kind", g.kind.name().into()),
        (
            "qubits",
            Json::Arr(g.qubits[..g.arity()].iter().map(|&q| q.into()).collect()),
        ),
        ("params", g.params.into()),
    ])
}

/// Decodes a gate; the kind tag must be a known OpenQASM mnemonic and
/// the qubit array must match the kind's arity.
pub fn gate_from_json(v: &Json) -> Result<Gate, WireError> {
    let name: &str = v.field("kind")?;
    let kind = GateKind::from_name(name)
        .ok_or_else(|| WireError::new(format!("unknown gate kind '{name}'")))?;
    let qubits = if kind.arity() == 1 {
        // Same padding the Gate constructors use for single-qubit gates.
        let [q]: [usize; 1] = v.field("qubits")?;
        [q, usize::MAX]
    } else {
        v.field("qubits")?
    };
    Ok(Gate {
        kind,
        qubits,
        params: v.field("params")?,
    })
}

/// Encodes a circuit.
pub fn circuit_to_json(c: &Circuit) -> Json {
    Json::obj([
        ("n_qubits", c.n_qubits().into()),
        (
            "gates",
            Json::Arr(c.gates().iter().map(gate_to_json).collect()),
        ),
    ])
}

/// Decodes a circuit, re-validating every gate against the register.
pub fn circuit_from_json(v: &Json) -> Result<Circuit, WireError> {
    let mut c = Circuit::new(v.field("n_qubits")?);
    for g in v.field::<&[Json]>("gates")? {
        c.try_push(gate_from_json(g)?)
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    Ok(c)
}

/// Encodes a batch job (circuit plus optional shot budget).
pub fn job_to_json(job: &BatchJob) -> Json {
    Json::obj([
        ("circuit", circuit_to_json(&job.circuit)),
        ("shots", job.shots.into()),
    ])
}

/// Decodes a batch job.
pub fn job_from_json(v: &Json) -> Result<BatchJob, WireError> {
    Ok(BatchJob {
        circuit: circuit_from_json(v.field("circuit")?)?,
        shots: v.field("shots")?,
    })
}

/// Lane tag on the wire.
pub fn lane_to_str(lane: Lane) -> &'static str {
    match lane {
        Lane::Interactive => "interactive",
        Lane::Bulk => "bulk",
    }
}

/// Decodes a lane tag.
pub fn lane_from_str(s: &str) -> Result<Lane, WireError> {
    match s {
        "interactive" => Ok(Lane::Interactive),
        "bulk" => Ok(Lane::Bulk),
        other => Err(WireError::new(format!("unknown lane '{other}'"))),
    }
}

// ---- results ---------------------------------------------------------

/// Encodes measurements; expectations survive bit-for-bit thanks to
/// `qnat-json`'s exact `f64` round-trip.
pub fn measurements_to_json(m: &Measurements) -> Json {
    Json::obj([
        ("expectations", Json::nums(m.expectations.iter().copied())),
        ("shots_used", m.shots_used.into()),
    ])
}

/// Decodes measurements.
pub fn measurements_from_json(v: &Json) -> Result<Measurements, WireError> {
    Ok(Measurements {
        expectations: v.field("expectations")?,
        shots_used: v.field("shots_used")?,
    })
}

/// Encodes a typed backend error, preserving every field of all eleven
/// variants.
pub fn error_to_json(e: &BackendError) -> Json {
    let (kind, fields): (&str, Vec<(&'static str, Json)>) = match e {
        BackendError::QubitCount {
            needed,
            available,
            backend,
        } => (
            "qubit_count",
            vec![
                ("needed", (*needed).into()),
                ("available", (*available).into()),
                ("backend", backend.as_str().into()),
            ],
        ),
        BackendError::UnmappedTwoQubitGate { gate_index, a, b } => (
            "unmapped_two_qubit_gate",
            vec![
                ("gate_index", (*gate_index).into()),
                ("a", (*a).into()),
                ("b", (*b).into()),
            ],
        ),
        BackendError::NonFiniteParameter { gate_index, slot } => (
            "non_finite_parameter",
            vec![
                ("gate_index", (*gate_index).into()),
                ("slot", (*slot).into()),
            ],
        ),
        BackendError::ShotBudget { requested } => {
            ("shot_budget", vec![("requested", (*requested).into())])
        }
        BackendError::InvalidChannel { reason } => {
            ("invalid_channel", vec![("reason", reason.as_str().into())])
        }
        BackendError::InvalidConfig { reason } => {
            ("invalid_config", vec![("reason", reason.as_str().into())])
        }
        BackendError::TransientFailure { job, reason } => (
            "transient_failure",
            vec![("job", (*job).into()), ("reason", reason.as_str().into())],
        ),
        BackendError::QueueTimeout { job, waited_ms } => (
            "queue_timeout",
            vec![("job", (*job).into()), ("waited_ms", (*waited_ms).into())],
        ),
        BackendError::DeadlineExceeded { job, needed_ms } => (
            "deadline_exceeded",
            vec![("job", (*job).into()), ("needed_ms", (*needed_ms).into())],
        ),
        BackendError::CircuitOpen { backend } => {
            ("circuit_open", vec![("backend", backend.as_str().into())])
        }
        BackendError::Overloaded { reason } => {
            ("overloaded", vec![("reason", reason.as_str().into())])
        }
    };
    tagged(kind, fields)
}

/// Decodes a typed backend error.
pub fn error_from_json(v: &Json) -> Result<BackendError, WireError> {
    Ok(match v.field::<&str>("kind")? {
        "qubit_count" => BackendError::QubitCount {
            needed: v.field("needed")?,
            available: v.field("available")?,
            backend: v.field("backend")?,
        },
        "unmapped_two_qubit_gate" => BackendError::UnmappedTwoQubitGate {
            gate_index: v.field("gate_index")?,
            a: v.field("a")?,
            b: v.field("b")?,
        },
        "non_finite_parameter" => BackendError::NonFiniteParameter {
            gate_index: v.field("gate_index")?,
            slot: v.field("slot")?,
        },
        "shot_budget" => BackendError::ShotBudget {
            requested: v.field("requested")?,
        },
        "invalid_channel" => BackendError::InvalidChannel {
            reason: v.field("reason")?,
        },
        "invalid_config" => BackendError::InvalidConfig {
            reason: v.field("reason")?,
        },
        "transient_failure" => BackendError::TransientFailure {
            job: v.field("job")?,
            reason: v.field("reason")?,
        },
        "queue_timeout" => BackendError::QueueTimeout {
            job: v.field("job")?,
            waited_ms: v.field("waited_ms")?,
        },
        "deadline_exceeded" => BackendError::DeadlineExceeded {
            job: v.field("job")?,
            needed_ms: v.field("needed_ms")?,
        },
        "circuit_open" => BackendError::CircuitOpen {
            backend: v.field("backend")?,
        },
        "overloaded" => BackendError::Overloaded {
            reason: v.field("reason")?,
        },
        other => return Err(WireError::new(format!("unknown error kind '{other}'"))),
    })
}

fn failure_to_json(f: &FailureRecord) -> Json {
    Json::obj([
        ("job", f.job.into()),
        ("attempt", f.attempt.into()),
        ("error", error_to_json(&f.error)),
    ])
}

fn failure_from_json(v: &Json) -> Result<FailureRecord, WireError> {
    Ok(FailureRecord {
        job: v.field("job")?,
        attempt: v.field("attempt")?,
        error: error_from_json(v.field("error")?)?,
    })
}

fn backend_usage_to_json(u: &BackendUsage) -> Json {
    Json::obj([
        ("attempts", u.attempts.into()),
        ("retries", u.retries.into()),
        ("validation_failures", u.validation_failures.into()),
        ("fast_failed_jobs", u.fast_failed_jobs.into()),
        ("fallback_jobs", u.fallback_jobs.into()),
        ("backoff_ms", u.backoff_ms.into()),
    ])
}

fn backend_usage_from_json(v: &Json) -> Result<BackendUsage, WireError> {
    Ok(BackendUsage {
        attempts: v.field("attempts")?,
        retries: v.field("retries")?,
        validation_failures: v.field("validation_failures")?,
        fast_failed_jobs: v.field("fast_failed_jobs")?,
        fallback_jobs: v.field("fallback_jobs")?,
        backoff_ms: v.field("backoff_ms")?,
    })
}

/// Encodes an execution report, every counter and failure record intact.
pub fn report_to_json(r: &ExecutionReport) -> Json {
    Json::obj([
        ("jobs", r.jobs.into()),
        ("attempts", r.attempts.into()),
        ("retries", r.retries.into()),
        ("fallback_jobs", r.fallback_jobs.into()),
        ("short_circuited_jobs", r.short_circuited_jobs.into()),
        ("fast_failed_jobs", r.fast_failed_jobs.into()),
        ("deadline_exceeded_jobs", r.deadline_exceeded_jobs.into()),
        ("degraded", r.degraded.into()),
        ("total_backoff_ms", r.total_backoff_ms.into()),
        ("shot_shortfall", r.shot_shortfall.into()),
        (
            "failures",
            Json::Arr(r.failures.iter().map(failure_to_json).collect()),
        ),
        (
            "by_backend",
            Json::Obj(
                r.by_backend
                    .iter()
                    .map(|(name, usage)| (name.clone(), backend_usage_to_json(usage)))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes an execution report.
pub fn report_from_json(v: &Json) -> Result<ExecutionReport, WireError> {
    let failures = v
        .field::<&[Json]>("failures")?
        .iter()
        .map(failure_from_json)
        .collect::<Result<_, _>>()?;
    // Peers predating per-backend attribution omit the field (or send
    // null); any other non-object is a broken report.
    let by_backend = match v.opt_field::<&BTreeMap<String, Json>>("by_backend")? {
        Some(map) => map
            .iter()
            .map(|(name, usage)| Ok((name.clone(), backend_usage_from_json(usage)?)))
            .collect::<Result<_, WireError>>()?,
        None => BTreeMap::new(),
    };
    Ok(ExecutionReport {
        jobs: v.field("jobs")?,
        attempts: v.field("attempts")?,
        retries: v.field("retries")?,
        fallback_jobs: v.field("fallback_jobs")?,
        short_circuited_jobs: v.field("short_circuited_jobs")?,
        fast_failed_jobs: v.field("fast_failed_jobs")?,
        deadline_exceeded_jobs: v.field("deadline_exceeded_jobs")?,
        degraded: v.field("degraded")?,
        total_backoff_ms: v.field("total_backoff_ms")?,
        shot_shortfall: v.field("shot_shortfall")?,
        failures,
        by_backend,
    })
}

/// Encodes a job result (ok measurements or typed error).
pub fn result_to_json(r: &Result<Measurements, BackendError>) -> Json {
    match r {
        Ok(m) => Json::obj([("ok", measurements_to_json(m))]),
        Err(e) => Json::obj([("err", error_to_json(e))]),
    }
}

/// Decodes a job result; a present `ok` wins over `err`.
pub fn result_from_json(v: &Json) -> Result<Result<Measurements, BackendError>, WireError> {
    if let Some(ok) = v.get("ok") {
        return Ok(Ok(measurements_from_json(ok)?));
    }
    if let Some(err) = v.get("err") {
        return Ok(Err(error_from_json(err)?));
    }
    Err(WireError::new("result has neither 'ok' nor 'err'"))
}

/// Encodes a finished job's full outcome.
pub fn outcome_to_json(o: &JobOutcome) -> Json {
    Json::obj([
        ("result", result_to_json(&o.result)),
        ("report", report_to_json(&o.report)),
    ])
}

/// Decodes a finished job's full outcome.
pub fn outcome_from_json(v: &Json) -> Result<JobOutcome, WireError> {
    Ok(JobOutcome {
        result: result_from_json(v.field("result")?)?,
        report: report_from_json(v.field("report")?)?,
    })
}

// ---- requests, acks and status mapping -------------------------------

/// Builds the `POST /v1/jobs` request body.
pub fn submit_request_to_json(job: &BatchJob, lane: Lane) -> Json {
    Json::obj([
        ("job", job_to_json(job)),
        ("lane", lane_to_str(lane).into()),
    ])
}

/// Decodes the `POST /v1/jobs` request body.
pub fn submit_request_from_json(v: &Json) -> Result<(BatchJob, Lane), WireError> {
    let job = job_from_json(v.field("job")?)?;
    let lane = lane_from_str(v.field("lane")?)?;
    Ok((job, lane))
}

/// Encodes the `POST /v1/jobs` acknowledgement `{ticket, lane}` (also a
/// streamed submit's accepted entry).
pub fn submit_ack_to_json(ticket: Ticket, lane: Lane) -> Json {
    Json::obj([
        ("ticket", ticket.into()),
        ("lane", lane_to_str(lane).into()),
    ])
}

/// Decodes the `POST /v1/jobs` acknowledgement: the ticket.
pub fn submit_ack_from_json(v: &Json) -> Result<Ticket, WireError> {
    Ok(v.field("ticket")?)
}

/// Parses a request body held as raw bytes into a JSON value.
pub fn parse_body(body: &[u8]) -> Result<Json, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::new("request body is not UTF-8"))?;
    Ok(Json::parse(text)?)
}

/// `{kind, …fields}`: the tag every typed error document carries.
fn tagged(kind: &str, fields: Vec<(&'static str, Json)>) -> Json {
    Json::obj([("kind", kind.into())].into_iter().chain(fields))
}

/// A typed error document `{kind, message, …fields}` — the body of
/// every refusal and protocol error the front door answers.
pub fn error_body(
    kind: &str,
    message: impl Into<String>,
    fields: Vec<(&'static str, Json)>,
) -> Json {
    let mut fields = fields;
    fields.push(("message", message.into().into()));
    tagged(kind, fields)
}

/// HTTP status a refused submission maps to:
/// [`SubmitError::QueueFull`] → 429 (back off and retry), everything
/// else (shed by admission, engine stopping) → 503.
pub fn submit_error_status(e: &SubmitError) -> u16 {
    match e {
        SubmitError::QueueFull { .. } => 429,
        SubmitError::Shed { .. } | SubmitError::Stopping => 503,
    }
}

/// Encodes a refused submission.
pub fn submit_error_to_json(e: &SubmitError) -> Json {
    let (kind, fields) = match e {
        SubmitError::QueueFull { lane, capacity } => (
            "queue_full",
            vec![
                ("lane", lane_to_str(*lane).into()),
                ("capacity", (*capacity).into()),
            ],
        ),
        SubmitError::Shed { backend } => ("shed", vec![("backend", backend.as_str().into())]),
        SubmitError::Stopping => ("stopping", vec![]),
    };
    error_body(kind, e.to_string(), fields)
}

/// HTTP status a *completed-but-failed* job maps to when its outcome is
/// served: breaker fast-fails and load-shedding evictions are the
/// service's fault (503, retry later); every other typed error is a
/// terminal job failure (500).
pub fn backend_error_status(e: &BackendError) -> u16 {
    match e {
        BackendError::CircuitOpen { .. } | BackendError::Overloaded { .. } => 503,
        _ => 500,
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

/// The HTTP status and `{status, …}` document answering a ticket poll
/// or wait: `{status: "ready", outcome}` with 200 (or the failed job's
/// [`backend_error_status`]), `queued`/`running` with 202, `unknown`
/// with 404.
pub fn poll_to_json(p: &Poll) -> (u16, Json) {
    let state = |s: &str| Json::obj([("status", s.into())]);
    match p {
        Poll::Ready(outcome) => (
            outcome
                .result
                .as_ref()
                .map_or_else(backend_error_status, |_| 200),
            Json::obj([
                ("status", "ready".into()),
                ("outcome", outcome_to_json(outcome)),
            ]),
        ),
        Poll::Queued => (202, state("queued")),
        Poll::Running => (202, state("running")),
        Poll::Unknown => (404, state("unknown")),
    }
}

/// Decodes a `queued`/`running`/`ready` ticket-status document.
pub fn ticket_status_from_json(v: &Json) -> Result<TicketStatus, WireError> {
    match v.field::<&str>("status")? {
        "queued" => Ok(TicketStatus::Queued),
        "running" => Ok(TicketStatus::Running),
        "ready" => Ok(TicketStatus::Ready(outcome_from_json(v.field("outcome")?)?)),
        other => Err(WireError::new(format!("unknown status '{other}'"))),
    }
}

// ---- streams ---------------------------------------------------------

/// One event off `GET /v1/stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEvent {
    /// Which ticket completed.
    pub ticket: Ticket,
    /// Its result (evictions and fast-fails included).
    pub result: Result<Measurements, BackendError>,
}

/// Encodes one completion line of `GET /v1/stream`.
pub fn stream_event_to_json(ticket: Ticket, result: &Result<Measurements, BackendError>) -> Json {
    Json::obj([
        ("ticket", ticket.into()),
        ("result", result_to_json(result)),
    ])
}

/// Decodes one completion line of `GET /v1/stream`.
pub fn stream_event_from_json(v: &Json) -> Result<StreamEvent, WireError> {
    Ok(StreamEvent {
        ticket: v.field("ticket")?,
        result: result_from_json(v.field("result")?)?,
    })
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

/// Encodes the streaming submit's answer `{results, accepted, refused}`:
/// per line in order, the [`submit_ack_to_json`] of an admitted job or
/// `{status, error}` for a refusal with its HTTP-equivalent status and
/// typed body.
pub fn stream_submit_to_json(verdicts: Vec<Result<(Ticket, Lane), (u16, Json)>>) -> Json {
    let accepted = verdicts.iter().filter(|v| v.is_ok()).count();
    let refused = verdicts.len() - accepted;
    let results = verdicts
        .into_iter()
        .map(|verdict| match verdict {
            Ok((ticket, lane)) => submit_ack_to_json(ticket, lane),
            Err((status, error)) => Json::obj([("status", status.into()), ("error", error)]),
        })
        .collect();
    Json::obj([
        ("results", Json::Arr(results)),
        ("accepted", accepted.into()),
        ("refused", refused.into()),
    ])
}

/// Decodes the streaming submit's per-line verdicts: an entry with a
/// ticket was accepted, any other must carry its refusal status.
pub fn stream_submit_from_json(v: &Json) -> Result<Vec<StreamSubmit>, WireError> {
    v.field::<&[Json]>("results")?
        .iter()
        .map(stream_verdict_from_json)
        .collect()
}

fn stream_verdict_from_json(item: &Json) -> Result<StreamSubmit, WireError> {
    Ok(match item.opt_field("ticket")? {
        Some(ticket) => StreamSubmit::Accepted(ticket),
        None => StreamSubmit::Refused {
            status: item.field("status")?,
            body: item.get("error").map(Json::to_json).unwrap_or_default(),
        },
    })
}

// ---- mitigation sweeps -----------------------------------------------

/// Builds the `POST /v1/mitigate` request body: the unfolded circuit
/// plus the full mitigation recipe (scales, fold strategy, ZNE method,
/// optional per-qubit readout confusions, each two number rows
/// `m[true][observed]`) and the sweep's replay seed.
pub fn mitigate_request_to_json(job: &MitigatedJob, seed: u64) -> Json {
    Json::obj([
        ("circuit", circuit_to_json(&job.circuit)),
        ("shots", job.shots.into()),
        ("scales", job.scales.clone().into()),
        ("strategy", job.strategy.name().into()),
        ("method", job.method.name().into()),
        ("readout", job.readout.clone().into()),
        ("seed", seed.into()),
    ])
}

/// Decodes the `POST /v1/mitigate` request body. `readout` and `seed`
/// may be absent or null; `seed` then defaults to 0 — the sweep still
/// replays bitwise, just from the default seed.
pub fn mitigate_request_from_json(v: &Json) -> Result<(MitigatedJob, u64), WireError> {
    let circuit = circuit_from_json(v.field("circuit")?)?;
    let strategy_name: &str = v.field("strategy")?;
    let strategy = FoldStrategy::from_name(strategy_name)
        .ok_or_else(|| WireError::new(format!("unknown fold strategy '{strategy_name}'")))?;
    let method_name: &str = v.field("method")?;
    let method = ZneMethod::from_name(method_name)
        .ok_or_else(|| WireError::new(format!("unknown ZNE method '{method_name}'")))?;
    let job = MitigatedJob {
        circuit,
        shots: v.field("shots")?,
        scales: v.field("scales")?,
        strategy,
        method,
        readout: v.opt_field("readout")?,
    };
    Ok((job, v.opt_field("seed")?.unwrap_or(0)))
}

/// HTTP status a refused mitigated submission maps to: every sweep-shape
/// error (too few / duplicate / even scales, readout length) is the
/// caller's fault → 400; an engine refusal keeps the plain submit
/// contract ([`submit_error_status`]: 429 queue-full, 503 shed/stopping).
pub fn mitigated_submit_error_status(e: &MitigatedSubmitError) -> u16 {
    match e {
        MitigatedSubmitError::Submit(inner) => submit_error_status(inner),
        _ => 400,
    }
}

/// Encodes a refused mitigated submission.
pub fn mitigated_submit_error_to_json(e: &MitigatedSubmitError) -> Json {
    let (kind, fields) = match e {
        MitigatedSubmitError::TooFewScales { got } => {
            ("too_few_scales", vec![("got", (*got).into())])
        }
        MitigatedSubmitError::DuplicateScale { scale } => {
            ("duplicate_scale", vec![("scale", (*scale).into())])
        }
        MitigatedSubmitError::Fold(_) => ("fold", vec![]),
        MitigatedSubmitError::ReadoutShape { expected, got } => (
            "readout_shape",
            vec![("expected", (*expected).into()), ("got", (*got).into())],
        ),
        MitigatedSubmitError::Submit(inner) => {
            ("submit", vec![("error", submit_error_to_json(inner))])
        }
    };
    error_body(kind, e.to_string(), fields)
}

/// Encodes a typed mitigation-math error, preserving every variant's
/// fields so degenerate fits and singular confusions stay diagnosable
/// on the wire.
pub fn mitigate_error_to_json(e: &MitigateError) -> Json {
    let (kind, fields) = match e {
        MitigateError::NotEnoughPoints { points } => {
            ("not_enough_points", vec![("points", (*points).into())])
        }
        MitigateError::ShapeMismatch { xs, ys } => (
            "shape_mismatch",
            vec![("xs", (*xs).into()), ("ys", (*ys).into())],
        ),
        MitigateError::RaggedRow {
            index,
            expected,
            got,
        } => (
            "ragged_row",
            vec![
                ("index", (*index).into()),
                ("expected", (*expected).into()),
                ("got", (*got).into()),
            ],
        ),
        MitigateError::DegenerateFit { denom } => {
            ("degenerate_fit", vec![("denom", (*denom).into())])
        }
        MitigateError::NonFinite { what } => ("non_finite", vec![("what", (*what).into())]),
        MitigateError::SingularConfusion { det } => {
            ("singular_confusion", vec![("det", (*det).into())])
        }
    };
    error_body(kind, e.to_string(), fields)
}

/// HTTP status a completed-but-unaggregatable sweep maps to: a failed
/// sub-run keeps its backend error's class
/// ([`backend_error_status`]: 503 breaker/overload, 500 otherwise);
/// mitigation-math rejections (degenerate fit, singular confusion) are
/// terminal sweep failures → 500.
pub fn mitigation_error_status(e: &MitigationError) -> u16 {
    match e {
        MitigationError::SubRun { error, .. } => backend_error_status(error),
        MitigationError::Math(_) => 500,
    }
}

/// Encodes the typed reason a completed sweep failed to aggregate.
pub fn mitigation_error_to_json(e: &MitigationError) -> Json {
    let (kind, fields) = match e {
        MitigationError::SubRun { scale, error } => (
            "sub_run",
            vec![("scale", (*scale).into()), ("error", error_to_json(error))],
        ),
        MitigationError::Math(inner) => (
            "mitigation_math",
            vec![("error", mitigate_error_to_json(inner))],
        ),
    };
    error_body(kind, e.to_string(), fields)
}

/// The client-side view of a mitigated sweep's 200 response: the single
/// aggregated result plus the fan-out's observability (raw baseline,
/// scales, tickets, merged report).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigatedResult {
    /// The zero-noise estimate.
    pub mitigated: Measurements,
    /// Unmitigated expectations at the smallest scale, when that run
    /// succeeded.
    pub raw: Option<Vec<f64>>,
    /// The sweep's noise scales, in submission order.
    pub scales: Vec<usize>,
    /// The engine tickets that served the sub-runs, mirroring `scales`.
    pub tickets: Vec<Ticket>,
    /// The sub-run execution reports merged in scale order.
    pub report: ExecutionReport,
}

/// Encodes a completed sweep: the aggregate (ok measurements or typed
/// [`MitigationError`]) next to the per-scale observability.
pub fn mitigated_outcome_to_json(o: &MitigatedOutcome) -> Json {
    Json::obj([
        (
            "mitigated",
            match &o.mitigated {
                Ok(m) => Json::obj([("ok", measurements_to_json(m))]),
                Err(e) => Json::obj([("err", mitigation_error_to_json(e))]),
            },
        ),
        ("raw", o.raw.clone().into()),
        (
            "scales",
            Json::Arr(o.runs.iter().map(|r| r.scale.into()).collect()),
        ),
        (
            "tickets",
            Json::Arr(o.runs.iter().map(|r| r.ticket.into()).collect()),
        ),
        ("report", report_to_json(&o.report)),
    ])
}

/// Decodes a mitigated sweep's **success** response. A body whose
/// `mitigated` carries `err` is a decode error here — failed sweeps
/// travel with a non-2xx status and surface client-side as
/// `ClientError::Status` with the typed body preserved.
pub fn mitigated_result_from_json(v: &Json) -> Result<MitigatedResult, WireError> {
    let mitigated: &Json = v.field("mitigated")?;
    let Some(ok) = mitigated.get("ok") else {
        return Err(WireError::new(
            "mitigated sweep response carries 'err', not 'ok'",
        ));
    };
    Ok(MitigatedResult {
        raw: v.field("raw")?,
        scales: v.field("scales")?,
        tickets: v.field("tickets")?,
        mitigated: measurements_from_json(ok)?,
        report: report_from_json(v.field("report")?)?,
    })
}

// ---- /healthz --------------------------------------------------------

/// Renders a breaker state for `/healthz`.
pub fn breaker_state_to_json(state: &BreakerState) -> Json {
    match state {
        BreakerState::Closed => Json::obj([("state", "closed".into())]),
        BreakerState::Open { cooldown_left } => Json::obj([
            ("state", "open".into()),
            ("cooldown_left", (*cooldown_left).into()),
        ]),
        BreakerState::HalfOpen => Json::obj([("state", "half_open".into())]),
    }
}

/// Renders one breaker snapshot for `/healthz`: the state document plus
/// its counters.
pub fn breaker_snapshot_to_json(snap: &BreakerSnapshot) -> Json {
    Json::obj([
        ("state", breaker_state_to_json(&snap.state)),
        ("trips", snap.trips.into()),
        ("recoveries", snap.recoveries.into()),
        ("short_circuited", snap.short_circuited.into()),
    ])
}

/// Renders an engine's queued and running job counts (the `/healthz`
/// `load` section and each fleet device's `load`).
pub fn engine_load_to_json(load: &EngineLoad) -> Json {
    Json::obj([
        ("queued_interactive", load.queued_interactive.into()),
        ("queued_bulk", load.queued_bulk.into()),
        ("running", load.running.into()),
    ])
}

/// Renders the `/healthz` body: liveness (`ok` or `draining`), lane
/// depths, engine load and counters, the transport section, every
/// registered breaker, then each extra section under its key.
pub fn health_to_json(
    engine: &ServeEngine,
    draining: bool,
    transport: &crate::server::TransportSnapshot,
    sections: impl IntoIterator<Item = (String, Json)>,
) -> Json {
    let stats = engine.stats();
    let load = engine.load();
    // One registry pass: every registered breaker appears, atomically.
    let breakers = engine
        .health_registry()
        .snapshots()
        .into_iter()
        .map(|(key, snap)| (key, breaker_snapshot_to_json(&snap)))
        .collect();
    let mut body: BTreeMap<String, Json> = [
        ("status", if draining { "draining" } else { "ok" }.into()),
        (
            "lanes",
            Json::obj([
                ("interactive", engine.queue_depth(Lane::Interactive).into()),
                ("bulk", engine.queue_depth(Lane::Bulk).into()),
            ]),
        ),
        ("load", engine_load_to_json(&load)),
        (
            "stats",
            Json::obj([
                ("submitted", stats.submitted.into()),
                ("completed", stats.completed.into()),
                ("completed_ok", stats.completed_ok.into()),
                ("completed_err", stats.completed_err.into()),
                ("rejected_full", stats.rejected_full.into()),
                ("shed_oldest", stats.shed_oldest.into()),
                ("shed_admission", stats.shed_admission.into()),
                ("fast_failed", stats.fast_failed.into()),
            ]),
        ),
        ("transport", transport_snapshot_to_json(transport)),
        ("breakers", Json::Obj(breakers)),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_owned(), value))
    .collect();
    body.extend(sections);
    Json::Obj(body)
}

/// Renders the fleet router's health view as the `/healthz` `fleet`
/// section: one entry per device with its quarantine flag, engine load,
/// breaker and the router's current noise estimate.
pub fn fleet_health_to_json(health: &FleetHealth) -> Json {
    Json::Arr(
        health
            .devices
            .iter()
            .map(|d| {
                Json::obj([
                    ("name", d.name.as_str().into()),
                    ("quarantined", d.quarantined.into()),
                    ("load", engine_load_to_json(&d.load)),
                    (
                        "breaker",
                        d.breaker.as_ref().map(breaker_snapshot_to_json).into(),
                    ),
                    ("noise_estimate", d.noise_estimate.into()),
                ])
            })
            .collect(),
    )
}

/// Renders the calibration tracker's health view as the `/healthz`
/// `calibration` section: one entry per device with its error-rate
/// estimate (null during cold start), the pessimistic routing estimate,
/// residual EMA, window occupancy and applied-observation count, plus
/// the tracker's global ticket progress. The snapshot-exactness test
/// pins every field, so a field added to
/// [`qnat_fleet::DeviceCalibrationView`] must be added here too.
pub fn calibration_health_to_json(health: &qnat_fleet::CalibrationHealth) -> Json {
    Json::obj([
        (
            "devices",
            Json::Arr(
                health
                    .devices
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", d.name.as_str().into()),
                            ("estimate", d.estimate.into()),
                            ("routing_estimate", d.routing_estimate.into()),
                            ("residual", d.residual.into()),
                            ("window_fill", d.window_fill.into()),
                            ("observations", d.observations.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("applied", health.applied.into()),
        ("pending", health.pending.into()),
    ])
}

/// Renders the transport-level overload counters as the `/healthz`
/// `transport` section — the observable half of the keep-alive /
/// shedding contract. The snapshot-exactness test pins every field, so
/// a counter added to [`crate::server::TransportSnapshot`] must be added
/// here too.
pub fn transport_snapshot_to_json(snap: &crate::server::TransportSnapshot) -> Json {
    Json::obj([
        ("active_connections", snap.active_connections.into()),
        ("connections_accepted", snap.connections_accepted.into()),
        ("connections_shed", snap.connections_shed.into()),
        ("keepalive_reuses", snap.keepalive_reuses.into()),
        ("requests_served", snap.requests_served.into()),
        ("timeouts_408", snap.timeouts_408.into()),
        ("bad_requests_400", snap.bad_requests_400.into()),
        ("rejected_429", snap.rejected_429.into()),
        ("unavailable_503", snap.unavailable_503.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_error(e: BackendError) {
        let json = error_to_json(&e);
        let text = json.to_json();
        let back = error_from_json(&Json::parse(&text).expect("parse")).expect("decode");
        assert_eq!(back, e);
    }

    #[test]
    fn every_backend_error_variant_round_trips() {
        roundtrip_error(BackendError::QubitCount {
            needed: 9,
            available: 4,
            backend: "emulator".into(),
        });
        roundtrip_error(BackendError::UnmappedTwoQubitGate {
            gate_index: 3,
            a: 0,
            b: 2,
        });
        roundtrip_error(BackendError::NonFiniteParameter {
            gate_index: 1,
            slot: 2,
        });
        roundtrip_error(BackendError::ShotBudget { requested: 0 });
        roundtrip_error(BackendError::InvalidChannel {
            reason: "p=1.5".into(),
        });
        roundtrip_error(BackendError::InvalidConfig {
            reason: "zero trajectories".into(),
        });
        roundtrip_error(BackendError::TransientFailure {
            job: 17,
            reason: "calibration run".into(),
        });
        roundtrip_error(BackendError::QueueTimeout {
            job: 5,
            waited_ms: 1200,
        });
        roundtrip_error(BackendError::DeadlineExceeded {
            job: 8,
            needed_ms: 64,
        });
        roundtrip_error(BackendError::CircuitOpen {
            backend: "qpu-a".into(),
        });
        roundtrip_error(BackendError::Overloaded {
            reason: "interactive lane shed".into(),
        });
    }

    #[test]
    fn unknown_error_kind_is_a_typed_decode_error() {
        let v = Json::parse(r#"{"kind":"melted"}"#).expect("parse");
        let err = error_from_json(&v).expect_err("unknown kind");
        assert!(err.reason.contains("melted"));
    }

    #[test]
    fn job_round_trips_with_full_gate_arrays() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::ry(1, 0.1 + 0.2)); // 0.30000000000000004 — exact f64
        c.push(Gate::cx(0, 2));
        c.push(Gate::u3(2, 0.5, -1.25, 3.75));
        let job = BatchJob {
            circuit: c,
            shots: Some(512),
        };
        let back = job_from_json(&Json::parse(&job_to_json(&job).to_json()).expect("parse"))
            .expect("decode");
        assert_eq!(back.circuit.gates(), job.circuit.gates());
        assert_eq!(back.circuit.n_qubits(), 3);
        assert_eq!(back.shots, Some(512));

        let exact = BatchJob::exact(Circuit::new(1));
        let back = job_from_json(&Json::parse(&job_to_json(&exact).to_json()).expect("parse"))
            .expect("decode");
        assert_eq!(back.shots, None);
    }

    #[test]
    fn malformed_job_is_rejected_not_panicked() {
        for bad in [
            r#"{"circuit":{"n_qubits":1,"gates":[{"kind":"zz","qubits":[0,0],"params":[0,0,0]}]},"shots":null}"#,
            r#"{"circuit":{"n_qubits":1,"gates":[{"kind":"cx","qubits":[0,1],"params":[0,0,0]}]},"shots":null}"#,
            r#"{"circuit":{"n_qubits":1,"gates":[]},"shots":-3}"#,
            r#"{"circuit":{"n_qubits":1,"gates":[]}}"#,
        ] {
            let v = Json::parse(bad).expect("syntactically valid");
            assert!(job_from_json(&v).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn outcome_round_trips_bitwise() {
        let outcome = JobOutcome {
            result: Ok(Measurements {
                expectations: vec![0.1 + 0.2, -1.0 / 3.0, f64::MIN_POSITIVE],
                shots_used: Some(100),
            }),
            report: ExecutionReport {
                jobs: 1,
                attempts: 3,
                retries: 2,
                fallback_jobs: 1,
                short_circuited_jobs: 0,
                fast_failed_jobs: 0,
                deadline_exceeded_jobs: 0,
                degraded: true,
                total_backoff_ms: 17,
                shot_shortfall: 4,
                failures: vec![FailureRecord {
                    job: 0,
                    attempt: 1,
                    error: BackendError::TransientFailure {
                        job: 0,
                        reason: "blip".into(),
                    },
                }],
                by_backend: BTreeMap::from([(
                    "emulator(santiago)".to_string(),
                    BackendUsage {
                        attempts: 3,
                        retries: 2,
                        validation_failures: 0,
                        fast_failed_jobs: 0,
                        fallback_jobs: 1,
                        backoff_ms: 17,
                    },
                )]),
            },
        };
        let back =
            outcome_from_json(&Json::parse(&outcome_to_json(&outcome).to_json()).expect("parse"))
                .expect("decode");
        assert_eq!(back, outcome);

        let failed = JobOutcome {
            result: Err(BackendError::Overloaded {
                reason: "evicted".into(),
            }),
            report: ExecutionReport::default(),
        };
        let back =
            outcome_from_json(&Json::parse(&outcome_to_json(&failed).to_json()).expect("parse"))
                .expect("decode");
        assert_eq!(back, failed);
    }

    #[test]
    fn submit_request_round_trips_both_lanes() {
        for lane in [Lane::Interactive, Lane::Bulk] {
            let job = BatchJob::exact(Circuit::new(2));
            let v = Json::parse(&submit_request_to_json(&job, lane).to_json()).expect("parse");
            let (back_job, back_lane) = submit_request_from_json(&v).expect("decode");
            assert_eq!(back_lane, lane);
            assert_eq!(back_job.circuit.n_qubits(), 2);
        }
    }

    #[test]
    fn mitigate_request_round_trips_bitwise() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.1 + 0.2));
        c.push(Gate::cx(0, 1));
        let job = MitigatedJob {
            circuit: c,
            shots: Some(256),
            scales: vec![1, 3, 5],
            strategy: FoldStrategy::Global,
            method: ZneMethod::Richardson,
            readout: Some(vec![[[0.97, 0.03], [0.05, 0.95]]; 2]),
        };
        let v = Json::parse(&mitigate_request_to_json(&job, 0xFEED).to_json()).expect("parse");
        let (back, seed) = mitigate_request_from_json(&v).expect("decode");
        assert_eq!(seed, 0xFEED);
        assert_eq!(back.circuit.gates(), job.circuit.gates());
        assert_eq!(back.shots, job.shots);
        assert_eq!(back.scales, job.scales);
        assert_eq!(back.strategy, job.strategy);
        assert_eq!(back.method, job.method);
        assert_eq!(back.readout, job.readout);
    }

    #[test]
    fn mitigate_request_seed_defaults_to_zero() {
        let v = Json::parse(
            r#"{"circuit":{"n_qubits":1,"gates":[]},"shots":null,
                "scales":[1,3],"strategy":"per_gate","method":"linear","readout":null}"#,
        )
        .expect("parse");
        let (_, seed) = mitigate_request_from_json(&v).expect("decode");
        assert_eq!(seed, 0);
    }

    #[test]
    fn mitigated_result_round_trips() {
        let outcome = MitigatedOutcome {
            mitigated: Ok(Measurements {
                expectations: vec![0.1 + 0.2, -1.0 / 3.0],
                shots_used: Some(768),
            }),
            raw: Some(vec![0.29, -0.31]),
            runs: vec![],
            report: ExecutionReport::default(),
        };
        let v = Json::parse(&mitigated_outcome_to_json(&outcome).to_json()).expect("parse");
        let back = mitigated_result_from_json(&v).expect("decode");
        assert_eq!(back.mitigated.expectations, vec![0.1 + 0.2, -1.0 / 3.0]);
        assert_eq!(back.mitigated.shots_used, Some(768));
        assert_eq!(back.raw, Some(vec![0.29, -0.31]));
        assert!(back.scales.is_empty() && back.tickets.is_empty());
    }

    #[test]
    fn mitigation_errors_keep_their_typed_fields_on_the_wire() {
        let math = MitigationError::Math(MitigateError::SingularConfusion { det: 1e-9 });
        let v = mitigation_error_to_json(&math);
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some("mitigation_math")
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("singular_confusion")
        );
        assert_eq!(mitigation_error_status(&math), 500);

        let sub = MitigationError::SubRun {
            scale: 5,
            error: BackendError::CircuitOpen {
                backend: "qpu".into(),
            },
        };
        let v = mitigation_error_to_json(&sub);
        assert_eq!(v.get("scale").and_then(Json::as_f64), Some(5.0));
        assert_eq!(mitigation_error_status(&sub), 503);
    }

    #[test]
    fn mitigated_submit_errors_map_shape_to_400_and_refusal_to_submit_contract() {
        use qnat_compiler::folding::FoldError;
        for e in [
            MitigatedSubmitError::TooFewScales { got: 1 },
            MitigatedSubmitError::DuplicateScale { scale: 3 },
            MitigatedSubmitError::Fold(FoldError::EvenScale { scale: 2 }),
            MitigatedSubmitError::ReadoutShape {
                expected: 4,
                got: 2,
            },
        ] {
            assert_eq!(mitigated_submit_error_status(&e), 400, "{e}");
        }
        assert_eq!(
            mitigated_submit_error_status(&MitigatedSubmitError::Submit(SubmitError::QueueFull {
                lane: Lane::Bulk,
                capacity: 4
            })),
            429
        );
        assert_eq!(
            mitigated_submit_error_status(&MitigatedSubmitError::Submit(SubmitError::Stopping)),
            503
        );
    }

    #[test]
    fn status_mapping_matches_the_contract() {
        assert_eq!(
            submit_error_status(&SubmitError::QueueFull {
                lane: Lane::Bulk,
                capacity: 4
            }),
            429
        );
        assert_eq!(
            submit_error_status(&SubmitError::Shed {
                backend: "qpu".into()
            }),
            503
        );
        assert_eq!(submit_error_status(&SubmitError::Stopping), 503);
        assert_eq!(
            backend_error_status(&BackendError::CircuitOpen {
                backend: "qpu".into()
            }),
            503
        );
        assert_eq!(
            backend_error_status(&BackendError::Overloaded {
                reason: "shed".into()
            }),
            503
        );
        assert_eq!(
            backend_error_status(&BackendError::ShotBudget { requested: 0 }),
            500
        );
    }
}
