//! Pins the bytes of the served documents and the decoders' verdicts.
//!
//! The goldens under `golden/` were written by the encoders as they stood
//! when the files were recorded:
//!
//! * `ready_ok.json` / `ready_err.json` — the `GET /v1/jobs/{t}/wait`
//!   bodies for a successful job and for one that failed with a typed
//!   `BackendError`, as a live server sends them;
//! * `mitigate_request.json` — a `POST /v1/mitigate` body;
//! * `mitigated_ok.json` — the server's answer to that body.
//!
//! The malformed-document table feeds the public decoders one broken
//! field at a time and pins accept or reject for each row: non-integer,
//! negative and out-of-range numbers, wrong types, and missing versus
//! null required fields, lenient fields included.

use qnat_compiler::folding::FoldStrategy;
use qnat_core::batch::BatchJob;
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_core::mitigate::ZneMethod;
use qnat_noise::backend::{BackendError, EmulatorBackend};
use qnat_noise::presets;
use qnat_serve::engine::{Lane, ServeConfig, ServeEngine};
use qnat_serve::MitigatedJob;
use qnat_sim::circuit::Circuit;
use qnat_sim::gate::Gate;
use qnat_transport::{wire, TransportClient, TransportConfig, TransportServer};
use std::io::{BufReader, Write};
use std::net::SocketAddr;

const READY_OK: &str = include_str!("golden/ready_ok.json");
const READY_ERR: &str = include_str!("golden/ready_err.json");
const MITIGATE_REQUEST: &str = include_str!("golden/mitigate_request.json");
const MITIGATED_OK: &str = include_str!("golden/mitigated_ok.json");

/// A front door over Santiago's density-matrix emulator.
fn santiago_server() -> TransportServer {
    let device = presets::santiago();
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 1,
            seed: 21,
            ..ServeConfig::default()
        },
        move |_job, seed| -> Result<ResilientExecutor, BackendError> {
            Ok(ResilientExecutor::new(
                Box::new(EmulatorBackend::new(&device, seed)?),
                RetryPolicy::default(),
            ))
        },
    );
    TransportServer::bind("127.0.0.1:0", TransportConfig::default(), engine).expect("bind")
}

/// One request on a fresh connection; returns the status and body text.
fn raw(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(body).expect("body");
    let resp = qnat_transport::http::read_response(&mut BufReader::new(stream)).expect("response");
    (resp.status, resp.text().expect("utf-8 body").to_owned())
}

fn bell(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Gate::ry(0, 0.1 + 0.2));
    c.push(Gate::cx(0, 1));
    c.push(Gate::u3(1, 0.5, -1.25, 3.75));
    c
}

fn mitigated_job() -> MitigatedJob {
    MitigatedJob {
        circuit: bell(2),
        shots: None,
        scales: vec![1, 3, 5],
        strategy: FoldStrategy::PerGate,
        method: ZneMethod::Richardson,
        readout: Some(vec![
            [[0.97, 0.03], [0.05, 0.95]],
            [[0.99, 0.01], [0.02, 0.98]],
        ]),
    }
}

#[test]
fn ready_documents_match_the_goldens() {
    let server = santiago_server();
    let client = TransportClient::new(server.local_addr());

    let ok = client
        .submit(
            &BatchJob {
                circuit: bell(2),
                shots: Some(256),
            },
            Lane::Interactive,
        )
        .expect("submit");
    let (status, body) = raw(
        server.local_addr(),
        "GET",
        &format!("/v1/jobs/{ok}/wait"),
        b"",
    );
    assert_eq!(status, 200);
    assert_eq!(body, READY_OK.trim_end(), "ready (ok) bytes changed");

    // Six qubits on a five-qubit device: a typed QubitCount failure.
    let err = client
        .submit(&BatchJob::exact(bell(6)), Lane::Bulk)
        .expect("submit");
    let (status, body) = raw(
        server.local_addr(),
        "GET",
        &format!("/v1/jobs/{err}/wait"),
        b"",
    );
    assert_eq!(status, 500);
    assert_eq!(body, READY_ERR.trim_end(), "ready (err) bytes changed");

    // The client decodes both documents back to the outcomes served.
    let decoded = wire::outcome_from_json(
        wire::parse_body(READY_ERR.as_bytes())
            .expect("parses")
            .get("outcome")
            .expect("outcome"),
    )
    .expect("decodes");
    assert!(matches!(
        decoded.result,
        Err(BackendError::QubitCount {
            needed: 6,
            available: 5,
            ..
        })
    ));
    server.shutdown();
}

#[test]
fn mitigate_documents_match_the_goldens() {
    let request = wire::mitigate_request_to_json(&mitigated_job(), 0xFEED).to_json();
    assert_eq!(
        request,
        MITIGATE_REQUEST.trim_end(),
        "request bytes changed"
    );

    let server = santiago_server();
    let (status, body) = raw(
        server.local_addr(),
        "POST",
        "/v1/mitigate",
        request.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(body, MITIGATED_OK.trim_end(), "mitigated bytes changed");

    let result =
        wire::mitigated_result_from_json(&wire::parse_body(body.as_bytes()).expect("parses"))
            .expect("decodes");
    assert_eq!(result.scales, vec![1, 3, 5]);
    server.shutdown();
}

/// Replaces the value at `path` (object keys, `#n` for an array index)
/// in `base` with `value`, or removes the key when `value` is
/// `<absent>`; returns the edited document's text.
fn edit(base: &str, path: &[&str], value: &str) -> String {
    fn walk(v: &mut qnat_json::Json, path: &[&str], value: &str) {
        let (head, rest) = path.split_first().expect("non-empty path");
        if let Some(index) = head.strip_prefix('#') {
            let qnat_json::Json::Arr(items) = v else {
                panic!("{head} indexes a non-array")
            };
            let slot = &mut items[index.parse::<usize>().expect("index")];
            if rest.is_empty() {
                *slot = qnat_json::Json::parse(value).expect("replacement parses");
            } else {
                walk(slot, rest, value);
            }
            return;
        }
        let qnat_json::Json::Obj(map) = v else {
            panic!("{head} looks up a non-object")
        };
        if rest.is_empty() {
            if value == "<absent>" {
                map.remove(*head);
            } else {
                map.insert(
                    (*head).to_owned(),
                    qnat_json::Json::parse(value).expect("replacement parses"),
                );
            }
        } else {
            walk(map.get_mut(*head).expect("path exists"), rest, value);
        }
    }
    let mut doc = qnat_json::Json::parse(base).expect("base parses");
    walk(&mut doc, path, value);
    doc.to_json()
}

const SUBMIT: &str = r#"{"job":{"circuit":{"n_qubits":2,"gates":[
    {"kind":"ry","qubits":[0],"params":[0.5,0,0]},
    {"kind":"cx","qubits":[0,1],"params":[0,0,0]}]},"shots":null},
    "lane":"bulk"}"#;

const MITIGATE: &str = r#"{"circuit":{"n_qubits":2,"gates":[
    {"kind":"ry","qubits":[0],"params":[0.5,0,0]}]},"shots":64,
    "scales":[1,3,5],"strategy":"global","method":"richardson",
    "readout":[[[0.97,0.03],[0.05,0.95]],[[1,0],[0,1]]],"seed":7}"#;

const REPORT: &str = r#"{"jobs":1,"attempts":2,"retries":1,"fallback_jobs":0,
    "short_circuited_jobs":0,"fast_failed_jobs":0,"deadline_exceeded_jobs":0,
    "degraded":false,"total_backoff_ms":5,"shot_shortfall":0,
    "failures":[{"job":0,"attempt":0,"error":{"kind":"queue_timeout","job":0,"waited_ms":12}}],
    "by_backend":{"emulator":{"attempts":2,"retries":1,"validation_failures":0,
        "fast_failed_jobs":0,"fallback_jobs":0,"backoff_ms":5}}}"#;

fn outcome() -> String {
    format!(
        r#"{{"result":{{"ok":{{"expectations":[0.5,-0.25],"shots_used":64}}}},"report":{REPORT}}}"#
    )
}

fn mitigated() -> String {
    format!(
        r#"{{"mitigated":{{"ok":{{"expectations":[0.5],"shots_used":null}}}},
            "raw":[0.4],"scales":[1,3],"tickets":[7,8],"report":{REPORT}}}"#
    )
}

type Decoder = fn(&str) -> bool;

/// `(name, decoder, base document, path, replacement, accepted)`.
type Row<'a> = (&'a str, Decoder, &'a str, Vec<&'a str>, &'a str, bool);

fn submit_ok(text: &str) -> bool {
    wire::parse_body(text.as_bytes())
        .and_then(|v| wire::submit_request_from_json(&v))
        .is_ok()
}

fn mitigate_ok(text: &str) -> bool {
    wire::parse_body(text.as_bytes())
        .and_then(|v| wire::mitigate_request_from_json(&v))
        .is_ok()
}

fn outcome_ok(text: &str) -> bool {
    wire::parse_body(text.as_bytes())
        .and_then(|v| wire::outcome_from_json(&v))
        .is_ok()
}

fn mitigated_ok(text: &str) -> bool {
    wire::parse_body(text.as_bytes())
        .and_then(|v| wire::mitigated_result_from_json(&v))
        .is_ok()
}

#[test]
fn malformed_documents_keep_their_verdicts() {
    let outcome = outcome();
    let mitigated = mitigated();
    let report = |path: &[&'static str]| -> Vec<&'static str> {
        let mut p = vec!["report"];
        p.extend_from_slice(path);
        p
    };
    #[rustfmt::skip]
    let table: Vec<Row> = vec![
        ("submit: base", submit_ok, SUBMIT, vec!["lane"], r#""bulk""#, true),
        ("submit: n_qubits fraction", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "2.5", false),
        ("submit: n_qubits negative", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "-2", false),
        ("submit: n_qubits past 2^53", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "1e16", false),
        ("submit: n_qubits 1e300", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "1e300", false),
        ("submit: n_qubits string", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], r#""2""#, false),
        ("submit: n_qubits null", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "null", false),
        ("submit: n_qubits absent", submit_ok, SUBMIT, vec!["job", "circuit", "n_qubits"], "<absent>", false),
        ("submit: shots null", submit_ok, SUBMIT, vec!["job", "shots"], "null", true),
        ("submit: shots integer", submit_ok, SUBMIT, vec!["job", "shots"], "128", true),
        ("submit: shots 2^53", submit_ok, SUBMIT, vec!["job", "shots"], "9007199254740992", true),
        ("submit: shots past 2^53", submit_ok, SUBMIT, vec!["job", "shots"], "18014398509481984", false),
        ("submit: shots absent", submit_ok, SUBMIT, vec!["job", "shots"], "<absent>", false),
        ("submit: shots fraction", submit_ok, SUBMIT, vec!["job", "shots"], "1.5", false),
        ("submit: shots negative", submit_ok, SUBMIT, vec!["job", "shots"], "-3", false),
        ("submit: shots bool", submit_ok, SUBMIT, vec!["job", "shots"], "true", false),
        ("submit: gates absent", submit_ok, SUBMIT, vec!["job", "circuit", "gates"], "<absent>", false),
        ("submit: gates object", submit_ok, SUBMIT, vec!["job", "circuit", "gates"], "{}", false),
        ("submit: gate kind unknown", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "kind"], r#""zz""#, false),
        ("submit: gate kind number", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "kind"], "3", false),
        ("submit: gate qubit fraction", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "qubits"], "[0.5]", false),
        ("submit: gate qubit negative", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "qubits"], "[-1]", false),
        ("submit: gate qubit string", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "qubits"], r#"["0"]"#, false),
        ("submit: gate qubit out of register", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "qubits"], "[2]", false),
        ("submit: gate arity", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#1", "qubits"], "[0]", false),
        ("submit: gate params short", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "params"], "[0.5,0]", false),
        ("submit: gate params long", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "params"], "[0.5,0,0,0]", false),
        ("submit: gate param null", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "params"], "[0.5,null,0]", false),
        ("submit: gate params absent", submit_ok, SUBMIT, vec!["job", "circuit", "gates", "#0", "params"], "<absent>", false),
        ("submit: lane unknown", submit_ok, SUBMIT, vec!["lane"], r#""fast""#, false),
        ("submit: lane null", submit_ok, SUBMIT, vec!["lane"], "null", false),
        ("submit: lane absent", submit_ok, SUBMIT, vec!["lane"], "<absent>", false),
        ("submit: job absent", submit_ok, SUBMIT, vec!["job"], "<absent>", false),
        ("submit: job number", submit_ok, SUBMIT, vec!["job"], "1", false),

        ("mitigate: base", mitigate_ok, MITIGATE, vec!["seed"], "7", true),
        ("mitigate: seed absent", mitigate_ok, MITIGATE, vec!["seed"], "<absent>", true),
        ("mitigate: seed null", mitigate_ok, MITIGATE, vec!["seed"], "null", true),
        ("mitigate: seed 2^53", mitigate_ok, MITIGATE, vec!["seed"], "9007199254740992", true),
        ("mitigate: seed past 2^53", mitigate_ok, MITIGATE, vec!["seed"], "1e16", false),
        ("mitigate: seed 1e300", mitigate_ok, MITIGATE, vec!["seed"], "1e300", false),
        ("mitigate: seed negative", mitigate_ok, MITIGATE, vec!["seed"], "-1", false),
        ("mitigate: seed fraction", mitigate_ok, MITIGATE, vec!["seed"], "1.5", false),
        ("mitigate: seed string", mitigate_ok, MITIGATE, vec!["seed"], r#""7""#, false),
        ("mitigate: readout absent", mitigate_ok, MITIGATE, vec!["readout"], "<absent>", true),
        ("mitigate: readout null", mitigate_ok, MITIGATE, vec!["readout"], "null", true),
        ("mitigate: readout empty", mitigate_ok, MITIGATE, vec!["readout"], "[]", true),
        ("mitigate: readout object", mitigate_ok, MITIGATE, vec!["readout"], "{}", false),
        ("mitigate: readout flat matrix", mitigate_ok, MITIGATE, vec!["readout"], "[[1,0],[0,1]]", false),
        ("mitigate: readout three rows", mitigate_ok, MITIGATE, vec!["readout", "#0"], "[[1,0],[0,1],[0,1]]", false),
        ("mitigate: readout short row", mitigate_ok, MITIGATE, vec!["readout", "#0"], "[[1,0],[0]]", false),
        ("mitigate: readout string entry", mitigate_ok, MITIGATE, vec!["readout", "#0"], r#"[[1,0],[0,"1"]]"#, false),
        ("mitigate: readout null entry", mitigate_ok, MITIGATE, vec!["readout", "#0"], "[[1,0],[0,null]]", false),
        ("mitigate: readout null matrix", mitigate_ok, MITIGATE, vec!["readout", "#0"], "null", false),
        ("mitigate: shots absent", mitigate_ok, MITIGATE, vec!["shots"], "<absent>", false),
        ("mitigate: shots null", mitigate_ok, MITIGATE, vec!["shots"], "null", true),
        ("mitigate: shots fraction", mitigate_ok, MITIGATE, vec!["shots"], "6.4", false),
        ("mitigate: scale fraction", mitigate_ok, MITIGATE, vec!["scales"], "[1,2.5]", false),
        ("mitigate: scale negative", mitigate_ok, MITIGATE, vec!["scales"], "[1,-3]", false),
        ("mitigate: scales null", mitigate_ok, MITIGATE, vec!["scales"], "null", false),
        ("mitigate: scales absent", mitigate_ok, MITIGATE, vec!["scales"], "<absent>", false),
        ("mitigate: strategy unknown", mitigate_ok, MITIGATE, vec!["strategy"], r#""local""#, false),
        ("mitigate: strategy absent", mitigate_ok, MITIGATE, vec!["strategy"], "<absent>", false),
        ("mitigate: method null", mitigate_ok, MITIGATE, vec!["method"], "null", false),
        ("mitigate: circuit absent", mitigate_ok, MITIGATE, vec!["circuit"], "<absent>", false),

        ("outcome: base", outcome_ok, &outcome, vec!["result"], r#"{"ok":{"expectations":[0.5],"shots_used":null}}"#, true),
        ("outcome: result neither", outcome_ok, &outcome, vec!["result"], "{}", false),
        ("outcome: result both", outcome_ok, &outcome, vec!["result"], r#"{"ok":{"expectations":[],"shots_used":null},"err":{"kind":"melted"}}"#, true),
        ("outcome: result err", outcome_ok, &outcome, vec!["result"], r#"{"err":{"kind":"shot_budget","requested":0}}"#, true),
        ("outcome: err kind unknown", outcome_ok, &outcome, vec!["result"], r#"{"err":{"kind":"melted"}}"#, false),
        ("outcome: err field fraction", outcome_ok, &outcome, vec!["result"], r#"{"err":{"kind":"queue_timeout","job":1,"waited_ms":1.5}}"#, false),
        ("outcome: err field absent", outcome_ok, &outcome, vec!["result"], r#"{"err":{"kind":"circuit_open"}}"#, false),
        ("outcome: err kind absent", outcome_ok, &outcome, vec!["result"], r#"{"err":{"reason":"x"}}"#, false),
        ("outcome: expectation null", outcome_ok, &outcome, vec!["result", "ok", "expectations"], "[0.5,null]", false),
        ("outcome: expectations absent", outcome_ok, &outcome, vec!["result", "ok", "expectations"], "<absent>", false),
        ("outcome: shots_used absent", outcome_ok, &outcome, vec!["result", "ok", "shots_used"], "<absent>", false),
        ("outcome: shots_used fraction", outcome_ok, &outcome, vec!["result", "ok", "shots_used"], "6.5", false),
        ("outcome: report absent", outcome_ok, &outcome, vec!["report"], "<absent>", false),
        ("outcome: jobs negative", outcome_ok, &outcome, report(&["jobs"]), "-1", false),
        ("outcome: jobs 1e300", outcome_ok, &outcome, report(&["jobs"]), "1e300", false),
        ("outcome: jobs absent", outcome_ok, &outcome, report(&["jobs"]), "<absent>", false),
        ("outcome: backoff past 2^53", outcome_ok, &outcome, report(&["total_backoff_ms"]), "1e16", false),
        ("outcome: degraded string", outcome_ok, &outcome, report(&["degraded"]), r#""no""#, false),
        ("outcome: degraded null", outcome_ok, &outcome, report(&["degraded"]), "null", false),
        ("outcome: failures absent", outcome_ok, &outcome, report(&["failures"]), "<absent>", false),
        ("outcome: failure attempt fraction", outcome_ok, &outcome, report(&["failures", "#0", "attempt"]), "0.5", false),
        ("outcome: by_backend absent", outcome_ok, &outcome, report(&["by_backend"]), "<absent>", true),
        ("outcome: by_backend null", outcome_ok, &outcome, report(&["by_backend"]), "null", true),
        ("outcome: by_backend empty", outcome_ok, &outcome, report(&["by_backend"]), "{}", true),
        ("outcome: by_backend not an object", outcome_ok, &outcome, report(&["by_backend"]), "[1]", false),
        ("outcome: by_backend number", outcome_ok, &outcome, report(&["by_backend"]), "5", false),
        ("outcome: by_backend string", outcome_ok, &outcome, report(&["by_backend"]), r#""x""#, false),
        ("outcome: by_backend usage fraction", outcome_ok, &outcome, report(&["by_backend", "emulator", "attempts"]), "1.5", false),
        ("outcome: by_backend usage absent", outcome_ok, &outcome, report(&["by_backend", "emulator", "backoff_ms"]), "<absent>", false),

        ("mitigated: base", mitigated_ok, &mitigated, vec!["raw"], "[0.4]", true),
        ("mitigated: raw null", mitigated_ok, &mitigated, vec!["raw"], "null", true),
        ("mitigated: raw absent", mitigated_ok, &mitigated, vec!["raw"], "<absent>", false),
        ("mitigated: raw entry bool", mitigated_ok, &mitigated, vec!["raw"], "[true]", false),
        ("mitigated: ticket negative", mitigated_ok, &mitigated, vec!["tickets"], "[-1,8]", false),
        ("mitigated: ticket fraction", mitigated_ok, &mitigated, vec!["tickets"], "[7.5,8]", false),
        ("mitigated: ticket 1e300", mitigated_ok, &mitigated, vec!["tickets"], "[1e300,8]", false),
        ("mitigated: tickets absent", mitigated_ok, &mitigated, vec!["tickets"], "<absent>", false),
        ("mitigated: scale string", mitigated_ok, &mitigated, vec!["scales"], r#"["1",3]"#, false),
        ("mitigated: aggregate err", mitigated_ok, &mitigated, vec!["mitigated"], r#"{"err":{"kind":"sub_run"}}"#, false),
        ("mitigated: aggregate absent", mitigated_ok, &mitigated, vec!["mitigated"], "<absent>", false),
        ("mitigated: report absent", mitigated_ok, &mitigated, vec!["report"], "<absent>", false),
    ];
    for (name, decode, base, path, value, accepted) in &table {
        let text = edit(base, path, value);
        assert_eq!(decode(&text), *accepted, "{name}: {text}");
    }
}
