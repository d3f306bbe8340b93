//! Pins the wire bytes of the `POST /v1/jobs` body and the codec's cost
//! shape on bodies far larger than the served ones.
//!
//! `golden/submit_4_2.json` is the §4.2 submit body exactly as the
//! encoder wrote it before the linear-time codec rewrite; the encoder
//! must keep producing it byte for byte.

use qnat_core::batch::BatchJob;
use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::presets;
use qnat_serve::Lane;
use qnat_sim::circuit::Circuit;
use qnat_transport::wire;

const GOLDEN_SUBMIT: &str = include_str!("golden/submit_4_2.json");

/// The §4.2 QNN block: the standard 16-feature / 4-qubit model's first
/// block, routed for Santiago at transpile level 2, with one encoder
/// row and the initial parameters bound in.
fn block_circuit() -> Circuit {
    let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 7);
    let plans = qnn
        .route_plan(&presets::santiago(), 2)
        .expect("santiago fits the standard model");
    let block = &qnn.blocks()[0];
    let row: Vec<f64> = (0..16).map(|j| (j as f64 * 0.013).sin()).collect();
    let mut params = block.encoder.angles(&row);
    params.extend_from_slice(qnn.block_params(0));
    plans[0].lowered.bind(&params)
}

fn submit_body(job: &BatchJob) -> String {
    wire::submit_request_to_json(job, Lane::Interactive).to_json()
}

#[test]
fn submit_body_bytes_match_the_golden_encoding() {
    let job = BatchJob::exact(block_circuit());
    let body = submit_body(&job);
    assert_eq!(body, GOLDEN_SUBMIT.trim_end(), "wire bytes changed");

    let (decoded, lane) = wire::submit_request_from_json(
        &wire::parse_body(GOLDEN_SUBMIT.as_bytes()).expect("golden body parses"),
    )
    .expect("golden body decodes");
    assert_eq!(decoded, job);
    assert_eq!(lane, Lane::Interactive);
}

/// A ≥ 1 MiB body — the §4.2 block's gate list doubled until the body
/// passes a mebibyte — decodes back to the job it encodes and
/// re-encodes to the same bytes. A parser that rescans the rest of the
/// document per string character would take minutes here.
#[test]
fn mebibyte_submit_body_round_trips() {
    let mut job = BatchJob {
        circuit: block_circuit(),
        shots: Some(4096),
    };
    let mut body = submit_body(&job);
    while body.len() < 1 << 20 {
        let gates = job.circuit.gates().to_vec();
        for g in gates {
            job.circuit.push(g);
        }
        body = submit_body(&job);
    }

    let value = wire::parse_body(body.as_bytes()).expect("mebibyte body parses");
    let (decoded, lane) = wire::submit_request_from_json(&value).expect("decodes");
    assert_eq!(decoded, job);
    assert_eq!(lane, Lane::Interactive);
    assert_eq!(value.to_json(), body, "re-encoding is byte-identical");
}
