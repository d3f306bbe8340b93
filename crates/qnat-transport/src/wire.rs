//! JSON wire format for the HTTP front door.
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
//! Integers ride in JSON numbers (`f64`), which is exact up to 2⁵³ —
//! far beyond any ticket, job index or backoff tally this stack
//! produces.

use qnat_compiler::folding::FoldStrategy;
use qnat_core::batch::BatchJob;
use qnat_core::executor::{BackendUsage, ExecutionReport, FailureRecord};
use qnat_core::health::{BreakerSnapshot, BreakerState};
use qnat_core::mitigate::{MitigateError, ZneMethod};
use qnat_fleet::FleetHealth;
use qnat_json::{Json, JsonError};
use qnat_noise::backend::{BackendError, Measurements};
use qnat_serve::engine::{JobOutcome, Lane, SubmitError, Ticket};
use qnat_serve::mitigate::{MitigatedJob, MitigatedOutcome, MitigatedSubmitError, MitigationError};
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::{Gate, GateKind};
use qnat_sim::measure::Confusion;
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

// ---- field accessors -------------------------------------------------

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field '{key}'")))
}

fn num_of(v: &Json, what: &str) -> Result<f64, WireError> {
    v.as_f64()
        .ok_or_else(|| WireError::new(format!("'{what}' is not a number")))
}

fn uint_of(v: &Json, what: &str) -> Result<u64, WireError> {
    let n = num_of(v, what)?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(WireError::new(format!(
            "'{what}' is not a non-negative integer: {n}"
        )));
    }
    Ok(n as u64)
}

fn uint(v: &Json, key: &str) -> Result<u64, WireError> {
    uint_of(field(v, key)?, key)
}

fn usize_field(v: &Json, key: &str) -> Result<usize, WireError> {
    Ok(uint(v, key)? as usize)
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, WireError> {
    match field(v, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(WireError::new(format!("'{key}' is not a string"))),
    }
}

fn boolean(v: &Json, key: &str) -> Result<bool, WireError> {
    match field(v, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(WireError::new(format!("'{key}' is not a bool"))),
    }
}

fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("'{key}' is not an array")))
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, WireError> {
    match field(v, key)? {
        Json::Null => Ok(None),
        other => Ok(Some(uint_of(other, key)? as usize)),
    }
}

// ---- circuits and jobs -----------------------------------------------

/// Encodes a gate: the `arity()` meaningful qubit slots and the full
/// `params: [f64; 3]` array. The constructors' `usize::MAX` padding on
/// single-qubit gates is *canonical*, not data — the decoder restores
/// it, so constructor-built gates round-trip bit-for-bit.
pub fn gate_to_json(g: &Gate) -> Json {
    Json::obj([
        ("kind", Json::Str(g.kind.name().into())),
        (
            "qubits",
            Json::Arr(
                g.qubits
                    .iter()
                    .take(g.arity())
                    .map(|&q| Json::Num(q as f64))
                    .collect(),
            ),
        ),
        ("params", Json::nums(g.params)),
    ])
}

/// Decodes a gate; the kind tag must be a known OpenQASM mnemonic and
/// the qubit array must match the kind's arity.
pub fn gate_from_json(v: &Json) -> Result<Gate, WireError> {
    let name = str_field(v, "kind")?;
    let kind = GateKind::from_name(name)
        .ok_or_else(|| WireError::new(format!("unknown gate kind '{name}'")))?;
    let qs = array(v, "qubits")?;
    let ps = array(v, "params")?;
    if qs.len() != kind.arity() {
        return Err(WireError::new(format!(
            "gate '{name}' needs {} qubits, got {}",
            kind.arity(),
            qs.len()
        )));
    }
    if ps.len() != 3 {
        return Err(WireError::new("gate params must have 3 slots"));
    }
    // Same padding the Gate constructors use for single-qubit gates.
    let mut qubits = [usize::MAX; 2];
    for (slot, q) in qs.iter().enumerate() {
        qubits[slot] = uint_of(q, "qubits")? as usize;
    }
    let mut params = [0f64; 3];
    for (slot, p) in ps.iter().enumerate() {
        params[slot] = num_of(p, "params")?;
    }
    Ok(Gate {
        kind,
        qubits,
        params,
    })
}

/// Encodes a circuit.
pub fn circuit_to_json(c: &Circuit) -> Json {
    Json::obj([
        ("n_qubits", Json::Num(c.n_qubits() as f64)),
        (
            "gates",
            Json::Arr(c.gates().iter().map(gate_to_json).collect()),
        ),
    ])
}

/// Decodes a circuit, re-validating every gate against the register.
pub fn circuit_from_json(v: &Json) -> Result<Circuit, WireError> {
    let n = usize_field(v, "n_qubits")?;
    let mut c = Circuit::new(n);
    for g in array(v, "gates")? {
        let gate = gate_from_json(g)?;
        c.try_push(gate)
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    Ok(c)
}

/// Encodes a batch job (circuit plus optional shot budget).
pub fn job_to_json(job: &BatchJob) -> Json {
    Json::obj([
        ("circuit", circuit_to_json(&job.circuit)),
        (
            "shots",
            job.shots.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
    ])
}

/// Decodes a batch job.
pub fn job_from_json(v: &Json) -> Result<BatchJob, WireError> {
    Ok(BatchJob {
        circuit: circuit_from_json(field(v, "circuit")?)?,
        shots: opt_usize(v, "shots")?,
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
        (
            "shots_used",
            m.shots_used.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
    ])
}

/// Decodes measurements.
pub fn measurements_from_json(v: &Json) -> Result<Measurements, WireError> {
    let mut expectations = Vec::new();
    for e in array(v, "expectations")? {
        expectations.push(num_of(e, "expectations")?);
    }
    Ok(Measurements {
        expectations,
        shots_used: opt_usize(v, "shots_used")?,
    })
}

/// Encodes a typed backend error, preserving every field of all eleven
/// variants.
pub fn error_to_json(e: &BackendError) -> Json {
    match e {
        BackendError::QubitCount {
            needed,
            available,
            backend,
        } => Json::obj([
            ("kind", Json::Str("qubit_count".into())),
            ("needed", Json::Num(*needed as f64)),
            ("available", Json::Num(*available as f64)),
            ("backend", Json::Str(backend.clone())),
        ]),
        BackendError::UnmappedTwoQubitGate { gate_index, a, b } => Json::obj([
            ("kind", Json::Str("unmapped_two_qubit_gate".into())),
            ("gate_index", Json::Num(*gate_index as f64)),
            ("a", Json::Num(*a as f64)),
            ("b", Json::Num(*b as f64)),
        ]),
        BackendError::NonFiniteParameter { gate_index, slot } => Json::obj([
            ("kind", Json::Str("non_finite_parameter".into())),
            ("gate_index", Json::Num(*gate_index as f64)),
            ("slot", Json::Num(*slot as f64)),
        ]),
        BackendError::ShotBudget { requested } => Json::obj([
            ("kind", Json::Str("shot_budget".into())),
            ("requested", Json::Num(*requested as f64)),
        ]),
        BackendError::InvalidChannel { reason } => Json::obj([
            ("kind", Json::Str("invalid_channel".into())),
            ("reason", Json::Str(reason.clone())),
        ]),
        BackendError::InvalidConfig { reason } => Json::obj([
            ("kind", Json::Str("invalid_config".into())),
            ("reason", Json::Str(reason.clone())),
        ]),
        BackendError::TransientFailure { job, reason } => Json::obj([
            ("kind", Json::Str("transient_failure".into())),
            ("job", Json::Num(*job as f64)),
            ("reason", Json::Str(reason.clone())),
        ]),
        BackendError::QueueTimeout { job, waited_ms } => Json::obj([
            ("kind", Json::Str("queue_timeout".into())),
            ("job", Json::Num(*job as f64)),
            ("waited_ms", Json::Num(*waited_ms as f64)),
        ]),
        BackendError::DeadlineExceeded { job, needed_ms } => Json::obj([
            ("kind", Json::Str("deadline_exceeded".into())),
            ("job", Json::Num(*job as f64)),
            ("needed_ms", Json::Num(*needed_ms as f64)),
        ]),
        BackendError::CircuitOpen { backend } => Json::obj([
            ("kind", Json::Str("circuit_open".into())),
            ("backend", Json::Str(backend.clone())),
        ]),
        BackendError::Overloaded { reason } => Json::obj([
            ("kind", Json::Str("overloaded".into())),
            ("reason", Json::Str(reason.clone())),
        ]),
    }
}

/// Decodes a typed backend error.
pub fn error_from_json(v: &Json) -> Result<BackendError, WireError> {
    match str_field(v, "kind")? {
        "qubit_count" => Ok(BackendError::QubitCount {
            needed: usize_field(v, "needed")?,
            available: usize_field(v, "available")?,
            backend: str_field(v, "backend")?.to_owned(),
        }),
        "unmapped_two_qubit_gate" => Ok(BackendError::UnmappedTwoQubitGate {
            gate_index: usize_field(v, "gate_index")?,
            a: usize_field(v, "a")?,
            b: usize_field(v, "b")?,
        }),
        "non_finite_parameter" => Ok(BackendError::NonFiniteParameter {
            gate_index: usize_field(v, "gate_index")?,
            slot: usize_field(v, "slot")?,
        }),
        "shot_budget" => Ok(BackendError::ShotBudget {
            requested: usize_field(v, "requested")?,
        }),
        "invalid_channel" => Ok(BackendError::InvalidChannel {
            reason: str_field(v, "reason")?.to_owned(),
        }),
        "invalid_config" => Ok(BackendError::InvalidConfig {
            reason: str_field(v, "reason")?.to_owned(),
        }),
        "transient_failure" => Ok(BackendError::TransientFailure {
            job: uint(v, "job")?,
            reason: str_field(v, "reason")?.to_owned(),
        }),
        "queue_timeout" => Ok(BackendError::QueueTimeout {
            job: uint(v, "job")?,
            waited_ms: uint(v, "waited_ms")?,
        }),
        "deadline_exceeded" => Ok(BackendError::DeadlineExceeded {
            job: uint(v, "job")?,
            needed_ms: uint(v, "needed_ms")?,
        }),
        "circuit_open" => Ok(BackendError::CircuitOpen {
            backend: str_field(v, "backend")?.to_owned(),
        }),
        "overloaded" => Ok(BackendError::Overloaded {
            reason: str_field(v, "reason")?.to_owned(),
        }),
        other => Err(WireError::new(format!("unknown error kind '{other}'"))),
    }
}

fn failure_to_json(f: &FailureRecord) -> Json {
    Json::obj([
        ("job", Json::Num(f.job as f64)),
        ("attempt", Json::Num(f.attempt as f64)),
        ("error", error_to_json(&f.error)),
    ])
}

fn failure_from_json(v: &Json) -> Result<FailureRecord, WireError> {
    Ok(FailureRecord {
        job: uint(v, "job")?,
        attempt: usize_field(v, "attempt")?,
        error: error_from_json(field(v, "error")?)?,
    })
}

fn backend_usage_to_json(u: &BackendUsage) -> Json {
    Json::obj([
        ("attempts", Json::Num(u.attempts as f64)),
        ("retries", Json::Num(u.retries as f64)),
        (
            "validation_failures",
            Json::Num(u.validation_failures as f64),
        ),
        ("fast_failed_jobs", Json::Num(u.fast_failed_jobs as f64)),
        ("fallback_jobs", Json::Num(u.fallback_jobs as f64)),
        ("backoff_ms", Json::Num(u.backoff_ms as f64)),
    ])
}

fn backend_usage_from_json(v: &Json) -> Result<BackendUsage, WireError> {
    Ok(BackendUsage {
        attempts: usize_field(v, "attempts")?,
        retries: usize_field(v, "retries")?,
        validation_failures: usize_field(v, "validation_failures")?,
        fast_failed_jobs: usize_field(v, "fast_failed_jobs")?,
        fallback_jobs: usize_field(v, "fallback_jobs")?,
        backoff_ms: uint(v, "backoff_ms")?,
    })
}

/// Encodes an execution report, every counter and failure record intact.
pub fn report_to_json(r: &ExecutionReport) -> Json {
    Json::obj([
        ("jobs", Json::Num(r.jobs as f64)),
        ("attempts", Json::Num(r.attempts as f64)),
        ("retries", Json::Num(r.retries as f64)),
        ("fallback_jobs", Json::Num(r.fallback_jobs as f64)),
        (
            "short_circuited_jobs",
            Json::Num(r.short_circuited_jobs as f64),
        ),
        ("fast_failed_jobs", Json::Num(r.fast_failed_jobs as f64)),
        (
            "deadline_exceeded_jobs",
            Json::Num(r.deadline_exceeded_jobs as f64),
        ),
        ("degraded", Json::Bool(r.degraded)),
        ("total_backoff_ms", Json::Num(r.total_backoff_ms as f64)),
        ("shot_shortfall", Json::Num(r.shot_shortfall as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(failure_to_json).collect()),
        ),
        (
            "by_backend",
            obj_from(
                r.by_backend
                    .iter()
                    .map(|(name, usage)| (name.clone(), backend_usage_to_json(usage))),
            ),
        ),
    ])
}

/// Decodes an execution report.
pub fn report_from_json(v: &Json) -> Result<ExecutionReport, WireError> {
    let mut failures = Vec::new();
    for f in array(v, "failures")? {
        failures.push(failure_from_json(f)?);
    }
    // Lenient: peers predating per-backend attribution omit the field.
    let mut by_backend = BTreeMap::new();
    if let Some(Json::Obj(map)) = v.get("by_backend") {
        for (name, usage) in map {
            by_backend.insert(name.clone(), backend_usage_from_json(usage)?);
        }
    }
    Ok(ExecutionReport {
        jobs: usize_field(v, "jobs")?,
        attempts: usize_field(v, "attempts")?,
        retries: usize_field(v, "retries")?,
        fallback_jobs: usize_field(v, "fallback_jobs")?,
        short_circuited_jobs: usize_field(v, "short_circuited_jobs")?,
        fast_failed_jobs: usize_field(v, "fast_failed_jobs")?,
        deadline_exceeded_jobs: usize_field(v, "deadline_exceeded_jobs")?,
        degraded: boolean(v, "degraded")?,
        total_backoff_ms: uint(v, "total_backoff_ms")?,
        shot_shortfall: usize_field(v, "shot_shortfall")?,
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

/// Decodes a job result.
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
        result: result_from_json(field(v, "result")?)?,
        report: report_from_json(field(v, "report")?)?,
    })
}

// ---- requests and status mapping -------------------------------------

/// Builds the `POST /v1/jobs` request body.
pub fn submit_request_to_json(job: &BatchJob, lane: Lane) -> Json {
    Json::obj([
        ("job", job_to_json(job)),
        ("lane", Json::Str(lane_to_str(lane).into())),
    ])
}

/// Decodes the `POST /v1/jobs` request body.
pub fn submit_request_from_json(v: &Json) -> Result<(BatchJob, Lane), WireError> {
    let job = job_from_json(field(v, "job")?)?;
    let lane = lane_from_str(str_field(v, "lane")?)?;
    Ok((job, lane))
}

/// Parses a request body held as raw bytes into a JSON value.
pub fn parse_body(body: &[u8]) -> Result<Json, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::new("request body is not UTF-8"))?;
    Ok(Json::parse(text)?)
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
    let (kind, fields): (&str, Vec<(&'static str, Json)>) = match e {
        SubmitError::QueueFull { lane, capacity } => (
            "queue_full",
            vec![
                ("lane", Json::Str(lane_to_str(*lane).into())),
                ("capacity", Json::Num(*capacity as f64)),
            ],
        ),
        SubmitError::Shed { backend } => ("shed", vec![("backend", Json::Str(backend.clone()))]),
        SubmitError::Stopping => ("stopping", vec![]),
    };
    let mut pairs = vec![
        ("kind", Json::Str(kind.into())),
        ("message", Json::Str(e.to_string())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
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

// ---- mitigation sweeps -----------------------------------------------

/// Encodes a 2×2 readout confusion matrix as two number rows
/// (`m[true][observed]`, row-stochastic).
pub fn confusion_to_json(m: &Confusion) -> Json {
    Json::Arr(vec![Json::nums(m[0]), Json::nums(m[1])])
}

/// Decodes a 2×2 readout confusion matrix.
pub fn confusion_from_json(v: &Json) -> Result<Confusion, WireError> {
    let rows = v
        .as_array()
        .ok_or_else(|| WireError::new("confusion matrix is not an array"))?;
    if rows.len() != 2 {
        return Err(WireError::new("confusion matrix needs exactly 2 rows"));
    }
    let mut m: Confusion = [[0.0; 2]; 2];
    for (r, row) in rows.iter().enumerate() {
        let cells = row
            .as_array()
            .ok_or_else(|| WireError::new("confusion row is not an array"))?;
        if cells.len() != 2 {
            return Err(WireError::new("confusion row needs exactly 2 entries"));
        }
        for (c, cell) in cells.iter().enumerate() {
            m[r][c] = num_of(cell, "confusion entry")?;
        }
    }
    Ok(m)
}

/// Builds the `POST /v1/mitigate` request body: the unfolded circuit
/// plus the full mitigation recipe (scales, fold strategy, ZNE method,
/// optional per-qubit readout confusions) and the sweep's replay seed.
pub fn mitigate_request_to_json(job: &MitigatedJob, seed: u64) -> Json {
    Json::obj([
        ("circuit", circuit_to_json(&job.circuit)),
        (
            "shots",
            job.shots.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
        (
            "scales",
            Json::Arr(job.scales.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("strategy", Json::Str(job.strategy.name().into())),
        ("method", Json::Str(job.method.name().into())),
        (
            "readout",
            match &job.readout {
                None => Json::Null,
                Some(r) => Json::Arr(r.iter().map(confusion_to_json).collect()),
            },
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Decodes the `POST /v1/mitigate` request body. `seed` is optional on
/// the wire and defaults to 0 — the sweep still replays bitwise, just
/// from the default seed.
pub fn mitigate_request_from_json(v: &Json) -> Result<(MitigatedJob, u64), WireError> {
    let circuit = circuit_from_json(field(v, "circuit")?)?;
    let shots = opt_usize(v, "shots")?;
    let mut scales = Vec::new();
    for s in array(v, "scales")? {
        scales.push(uint_of(s, "scales")? as usize);
    }
    let strategy_name = str_field(v, "strategy")?;
    let strategy = FoldStrategy::from_name(strategy_name)
        .ok_or_else(|| WireError::new(format!("unknown fold strategy '{strategy_name}'")))?;
    let method_name = str_field(v, "method")?;
    let method = ZneMethod::from_name(method_name)
        .ok_or_else(|| WireError::new(format!("unknown ZNE method '{method_name}'")))?;
    let readout = match v.get("readout") {
        None | Some(Json::Null) => None,
        Some(r) => {
            let rows = r
                .as_array()
                .ok_or_else(|| WireError::new("'readout' is not an array"))?;
            Some(
                rows.iter()
                    .map(confusion_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
    };
    let seed = match v.get("seed") {
        None | Some(Json::Null) => 0,
        Some(other) => uint_of(other, "seed")?,
    };
    Ok((
        MitigatedJob {
            circuit,
            shots,
            scales,
            strategy,
            method,
            readout,
        },
        seed,
    ))
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
    let (kind, fields): (&str, Vec<(&'static str, Json)>) = match e {
        MitigatedSubmitError::TooFewScales { got } => {
            ("too_few_scales", vec![("got", Json::Num(*got as f64))])
        }
        MitigatedSubmitError::DuplicateScale { scale } => {
            ("duplicate_scale", vec![("scale", Json::Num(*scale as f64))])
        }
        MitigatedSubmitError::Fold(_) => ("fold", vec![]),
        MitigatedSubmitError::ReadoutShape { expected, got } => (
            "readout_shape",
            vec![
                ("expected", Json::Num(*expected as f64)),
                ("got", Json::Num(*got as f64)),
            ],
        ),
        MitigatedSubmitError::Submit(inner) => {
            ("submit", vec![("error", submit_error_to_json(inner))])
        }
    };
    let mut pairs = vec![
        ("kind", Json::Str(kind.into())),
        ("message", Json::Str(e.to_string())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Encodes a typed mitigation-math error, preserving every variant's
/// fields so degenerate fits and singular confusions stay diagnosable
/// on the wire.
pub fn mitigate_error_to_json(e: &MitigateError) -> Json {
    let (kind, fields): (&str, Vec<(&'static str, Json)>) = match e {
        MitigateError::NotEnoughPoints { points } => (
            "not_enough_points",
            vec![("points", Json::Num(*points as f64))],
        ),
        MitigateError::ShapeMismatch { xs, ys } => (
            "shape_mismatch",
            vec![("xs", Json::Num(*xs as f64)), ("ys", Json::Num(*ys as f64))],
        ),
        MitigateError::RaggedRow {
            index,
            expected,
            got,
        } => (
            "ragged_row",
            vec![
                ("index", Json::Num(*index as f64)),
                ("expected", Json::Num(*expected as f64)),
                ("got", Json::Num(*got as f64)),
            ],
        ),
        MitigateError::DegenerateFit { denom } => {
            ("degenerate_fit", vec![("denom", Json::Num(*denom))])
        }
        MitigateError::NonFinite { what } => {
            ("non_finite", vec![("what", Json::Str((*what).into()))])
        }
        MitigateError::SingularConfusion { det } => {
            ("singular_confusion", vec![("det", Json::Num(*det))])
        }
    };
    let mut pairs = vec![
        ("kind", Json::Str(kind.into())),
        ("message", Json::Str(e.to_string())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
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
    match e {
        MitigationError::SubRun { scale, error } => Json::obj([
            ("kind", Json::Str("sub_run".into())),
            ("message", Json::Str(e.to_string())),
            ("scale", Json::Num(*scale as f64)),
            ("error", error_to_json(error)),
        ]),
        MitigationError::Math(inner) => Json::obj([
            ("kind", Json::Str("mitigation_math".into())),
            ("message", Json::Str(e.to_string())),
            ("error", mitigate_error_to_json(inner)),
        ]),
    }
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
        (
            "raw",
            match &o.raw {
                None => Json::Null,
                Some(zs) => Json::nums(zs.iter().copied()),
            },
        ),
        (
            "scales",
            Json::Arr(o.runs.iter().map(|r| Json::Num(r.scale as f64)).collect()),
        ),
        (
            "tickets",
            Json::Arr(o.runs.iter().map(|r| Json::Num(r.ticket as f64)).collect()),
        ),
        ("report", report_to_json(&o.report)),
    ])
}

/// Decodes a mitigated sweep's **success** response. A body whose
/// `mitigated` carries `err` is a decode error here — failed sweeps
/// travel with a non-2xx status and surface client-side as
/// `ClientError::Status` with the typed body preserved.
pub fn mitigated_result_from_json(v: &Json) -> Result<MitigatedResult, WireError> {
    let mitigated = field(v, "mitigated")?;
    let Some(ok) = mitigated.get("ok") else {
        return Err(WireError::new(
            "mitigated sweep response carries 'err', not 'ok'",
        ));
    };
    let raw = match field(v, "raw")? {
        Json::Null => None,
        other => {
            let mut zs = Vec::new();
            for z in other
                .as_array()
                .ok_or_else(|| WireError::new("'raw' is not an array"))?
            {
                zs.push(num_of(z, "raw")?);
            }
            Some(zs)
        }
    };
    let mut scales = Vec::new();
    for s in array(v, "scales")? {
        scales.push(uint_of(s, "scales")? as usize);
    }
    let mut tickets = Vec::new();
    for t in array(v, "tickets")? {
        tickets.push(uint_of(t, "tickets")? as Ticket);
    }
    Ok(MitigatedResult {
        mitigated: measurements_from_json(ok)?,
        raw,
        scales,
        tickets,
        report: report_from_json(field(v, "report")?)?,
    })
}

/// Renders a breaker state for `/healthz`.
pub fn breaker_state_to_json(state: &BreakerState) -> Json {
    match state {
        BreakerState::Closed => Json::obj([("state", Json::Str("closed".into()))]),
        BreakerState::Open { cooldown_left } => Json::obj([
            ("state", Json::Str("open".into())),
            ("cooldown_left", Json::Num(*cooldown_left as f64)),
        ]),
        BreakerState::HalfOpen => Json::obj([("state", Json::Str("half_open".into()))]),
    }
}

/// Renders one breaker snapshot for `/healthz`: the state document plus
/// its counters.
pub fn breaker_snapshot_to_json(snap: &BreakerSnapshot) -> Json {
    Json::obj([
        ("state", breaker_state_to_json(&snap.state)),
        ("trips", Json::Num(snap.trips as f64)),
        ("recoveries", Json::Num(snap.recoveries as f64)),
        ("short_circuited", Json::Num(snap.short_circuited as f64)),
    ])
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
                    ("name", Json::Str(d.name.clone())),
                    ("quarantined", Json::Bool(d.quarantined)),
                    (
                        "load",
                        Json::obj([
                            (
                                "queued_interactive",
                                Json::Num(d.load.queued_interactive as f64),
                            ),
                            ("queued_bulk", Json::Num(d.load.queued_bulk as f64)),
                            ("running", Json::Num(d.load.running as f64)),
                        ]),
                    ),
                    (
                        "breaker",
                        match &d.breaker {
                            Some(snap) => breaker_snapshot_to_json(snap),
                            None => Json::Null,
                        },
                    ),
                    ("noise_estimate", Json::Num(d.noise_estimate)),
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
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        (
            "devices",
            Json::Arr(
                health
                    .devices
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::Str(d.name.clone())),
                            ("estimate", opt(d.estimate)),
                            ("routing_estimate", opt(d.routing_estimate)),
                            ("residual", Json::Num(d.residual)),
                            ("window_fill", Json::Num(d.window_fill)),
                            ("observations", Json::Num(d.observations as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("applied", Json::Num(health.applied as f64)),
        ("pending", Json::Num(health.pending as f64)),
    ])
}

/// Renders the transport-level overload counters as the `/healthz`
/// `transport` section — the observable half of the keep-alive /
/// shedding contract (ISSUE 8). The snapshot-exactness test pins every
/// field, so a counter added to [`crate::server::TransportSnapshot`]
/// must be added here too.
pub fn transport_snapshot_to_json(snap: &crate::server::TransportSnapshot) -> Json {
    Json::obj([
        (
            "active_connections",
            Json::Num(snap.active_connections as f64),
        ),
        (
            "connections_accepted",
            Json::Num(snap.connections_accepted as f64),
        ),
        ("connections_shed", Json::Num(snap.connections_shed as f64)),
        ("keepalive_reuses", Json::Num(snap.keepalive_reuses as f64)),
        ("requests_served", Json::Num(snap.requests_served as f64)),
        ("timeouts_408", Json::Num(snap.timeouts_408 as f64)),
        ("bad_requests_400", Json::Num(snap.bad_requests_400 as f64)),
        ("rejected_429", Json::Num(snap.rejected_429 as f64)),
        ("unavailable_503", Json::Num(snap.unavailable_503 as f64)),
    ])
}

/// Convenience: an object from owned-key pairs (healthz breaker maps).
pub fn obj_from(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(pairs.into_iter().collect::<BTreeMap<_, _>>())
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
