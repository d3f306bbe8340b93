//! The client reads tickets and statuses through the wire format's
//! checked integers: a server (or a proxy in between) answering `-1`,
//! `1.5` or `1e300` where a ticket or a status belongs is a decode
//! error, not a ticket 0, 1 or `u64::MAX`.

use qnat_core::batch::BatchJob;
use qnat_serve::engine::Lane;
use qnat_sim::circuit::Circuit;
use qnat_transport::http::{read_request, write_response_conn};
use qnat_transport::{ClientError, StreamSubmit, TransportClient};
use std::io::BufReader;
use std::net::TcpListener;
use std::thread::JoinHandle;

/// A one-shot server: accepts one connection, reads one request and
/// answers `body` with status 200.
fn canned(body: &'static str) -> (TransportClient, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = TransportClient::new(listener.local_addr().expect("addr"));
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_request(&mut reader).expect("request");
        write_response_conn(&mut stream, 200, body, true).expect("response");
    });
    (client, server)
}

fn job() -> BatchJob {
    BatchJob::exact(Circuit::new(1))
}

fn assert_wire_error<T: std::fmt::Debug>(body: &str, got: Result<T, ClientError>) {
    match got {
        Err(ClientError::Wire(_)) => {}
        other => panic!("{body}: expected a wire decode error, got {other:?}"),
    }
}

#[test]
fn submit_rejects_tickets_that_are_not_checked_integers() {
    for body in [
        r#"{"ticket":-1,"lane":"bulk"}"#,
        r#"{"ticket":1.5,"lane":"bulk"}"#,
        r#"{"ticket":1e300,"lane":"bulk"}"#,
        r#"{"ticket":"7","lane":"bulk"}"#,
        r#"{"lane":"bulk"}"#,
    ] {
        let (client, server) = canned(body);
        assert_wire_error(body, client.submit(&job(), Lane::Bulk));
        server.join().expect("server");
    }
    let (client, server) = canned(r#"{"ticket":7,"lane":"bulk"}"#);
    assert_eq!(client.submit(&job(), Lane::Bulk).expect("valid ack"), 7);
    server.join().expect("server");
}

#[test]
fn stream_rejects_event_tickets_that_are_not_checked_integers() {
    for body in [
        "{\"ticket\":-1,\"result\":{\"ok\":{\"expectations\":[],\"shots_used\":null}}}\n",
        "{\"ticket\":1.5,\"result\":{\"ok\":{\"expectations\":[],\"shots_used\":null}}}\n",
        "{\"ticket\":1e300,\"result\":{\"ok\":{\"expectations\":[],\"shots_used\":null}}}\n",
    ] {
        let (client, server) = canned(body);
        assert_wire_error(body, client.stream(1));
        server.join().expect("server");
    }
    let (client, server) =
        canned("{\"ticket\":3,\"result\":{\"ok\":{\"expectations\":[],\"shots_used\":null}}}\n");
    let events = client.stream(1).expect("valid event");
    assert_eq!(events[0].ticket, 3);
    server.join().expect("server");
}

#[test]
fn streamed_submit_rejects_verdicts_that_are_not_checked_integers() {
    for body in [
        r#"{"results":[{"ticket":-1,"lane":"bulk"}],"accepted":1,"refused":0}"#,
        r#"{"results":[{"ticket":1.5,"lane":"bulk"}],"accepted":1,"refused":0}"#,
        r#"{"results":[{"ticket":1e300,"lane":"bulk"}],"accepted":1,"refused":0}"#,
        r#"{"results":[{"status":-1,"error":{}}],"accepted":0,"refused":1}"#,
        r#"{"results":[{"status":429.5,"error":{}}],"accepted":0,"refused":1}"#,
        r#"{"results":[{"status":1e300,"error":{}}],"accepted":0,"refused":1}"#,
        r#"{"results":[{"status":65536,"error":{}}],"accepted":0,"refused":1}"#,
        r#"{"results":[{"error":{}}],"accepted":0,"refused":1}"#,
    ] {
        let (client, server) = canned(body);
        assert_wire_error(body, client.submit_stream(&[(job(), Lane::Bulk)]));
        server.join().expect("server");
    }
    let (client, server) = canned(
        r#"{"results":[{"ticket":4,"lane":"bulk"},{"status":429,"error":{"kind":"queue_full"}}],"accepted":1,"refused":1}"#,
    );
    let verdicts = client
        .submit_stream(&[(job(), Lane::Bulk), (job(), Lane::Bulk)])
        .expect("valid verdicts");
    assert_eq!(verdicts[0], StreamSubmit::Accepted(4));
    assert_eq!(
        verdicts[1],
        StreamSubmit::Refused {
            status: 429,
            body: r#"{"kind":"queue_full"}"#.into()
        }
    );
    server.join().expect("server");
}
