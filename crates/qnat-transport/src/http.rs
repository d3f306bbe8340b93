//! Minimal HTTP/1.1 over `std::io`: just enough protocol for the front
//! door and its in-repo client, with hard limits instead of trust.
//!
//! The server speaks persistent-connection HTTP/1.1: responses default
//! to `Connection: keep-alive` and the connection serves many requests
//! until the client sends `Connection: close`, the idle timeout fires,
//! or the per-connection request cap is reached (the final response
//! then carries `Connection: close`). `GET /v1/stream` holds the
//! connection open and pushes completions with chunked
//! transfer-encoding; chunked request *bodies* are also accepted, which
//! is how the streaming batch submit ships many jobs on one connection.
//! Requests are parsed from any `BufRead` and responses written to any
//! `Write`, so the codec unit-tests run on in-memory buffers; sockets
//! only appear in the server and client.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A protocol-level failure while reading a request or response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpError {
    /// What was malformed or over limit.
    pub reason: String,
    /// `true` when the underlying socket timed out (deadline expired) —
    /// the server answers 408 instead of 400.
    pub timed_out: bool,
}

impl HttpError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        HttpError {
            reason: reason.into(),
            timed_out: false,
        }
    }

    pub(crate) fn from_io(e: &std::io::Error) -> Self {
        HttpError {
            reason: e.to_string(),
            timed_out: matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http error: {}", self.reason)
    }
}

impl Error for HttpError {}

/// One parsed request: method, split target, headers, body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Raw query string (no leading `?`), if any.
    pub query: Option<String>,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of `key` in the query string (`k=v` pairs split on `&`;
    /// no percent-decoding — the wire format never needs it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// `true` when the client asked the server to close the connection
    /// after this response (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one CRLF- (or LF-) terminated line, enforcing
/// [`MAX_LINE_BYTES`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = reader.read(&mut byte).map_err(|e| HttpError::from_io(&e))?;
        if n == 0 {
            return if line.is_empty() {
                Ok(None) // clean EOF between requests
            } else {
                Err(HttpError::new("connection closed mid-line"))
            };
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text =
                String::from_utf8(line).map_err(|_| HttpError::new("header line is not UTF-8"))?;
            return Ok(Some(text));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::new("header line over limit"));
        }
    }
}

/// Reads one request off the stream. `Ok(None)` means the peer closed
/// the connection cleanly before sending anything.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(start) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(HttpError::new(format!("malformed request line '{start}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(format!("unsupported version '{version}'")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };

    let mut headers = Vec::new();
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| HttpError::new("connection closed in headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::new("too many headers"));
        }
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        body = read_chunked_body(reader)?;
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::new(format!("bad content-length '{v}'")))
        })
        .transpose()?
    {
        if len > MAX_BODY_BYTES {
            return Err(HttpError::new("request body over limit"));
        }
        body.resize(len, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| HttpError::from_io(&e))?;
    }

    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
    }))
}

/// Reassembles a chunked request body, rejecting the malformed shapes a
/// hostile client can send: a non-hex chunk-size line, an oversized
/// chunk (alone or cumulatively past [`MAX_BODY_BYTES`]), chunk data
/// not terminated by CRLF, and a stream that ends before the
/// zero-length terminator chunk ("truncated trailer").
fn read_chunked_body(reader: &mut impl BufRead) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader)?
            .ok_or_else(|| HttpError::new("connection closed before chunk terminator"))?;
        // Chunk extensions (";ext=val") are allowed by the RFC; strip
        // them rather than trusting them.
        let size_token = size_line.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| HttpError::new(format!("bad chunk size '{size_line}'")))?;
        if size == 0 {
            // Trailer section: zero or more header lines, then an empty
            // line. EOF before the blank line is a truncated trailer.
            loop {
                let trailer = read_line(reader)?
                    .ok_or_else(|| HttpError::new("connection closed in chunk trailer"))?;
                if trailer.is_empty() {
                    return Ok(body);
                }
            }
        }
        if size > MAX_BODY_BYTES || body.len() + size > MAX_BODY_BYTES {
            return Err(HttpError::new("chunked body over limit"));
        }
        let mut chunk = vec![0u8; size + 2]; // data + CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| HttpError::from_io(&e))?;
        if &chunk[size..] != b"\r\n" {
            return Err(HttpError::new("chunk data not CRLF-terminated"));
        }
        chunk.truncate(size);
        body.append(&mut chunk);
    }
}

/// Reason phrase for the status codes this transport emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete response (`Content-Type: application/json`) with
/// an explicit connection disposition: `close: false` advertises
/// `Connection: keep-alive` so the peer may send another request on the
/// same socket, `close: true` tells it this response is the last.
pub fn write_response_conn(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    close: bool,
) -> Result<(), HttpError> {
    // One write for head + body: a split write on a keep-alive
    // connection trips Nagle + delayed-ACK (~40 ms per request).
    let message = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{body}",
        status_text(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    writer
        .write_all(message.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

/// Starts a chunked (streaming) response; follow with [`write_chunk`]
/// and [`finish_chunks`].
pub fn write_chunked_head(writer: &mut impl Write, status: u16) -> Result<(), HttpError> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        status_text(status),
    );
    writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

/// Writes one chunk of a streaming response and flushes it so the
/// subscriber sees the completion promptly.
pub fn write_chunk(writer: &mut impl Write, data: &str) -> Result<(), HttpError> {
    // Single write per chunk (size line + payload + terminator) for the
    // same Nagle reason as `write_response_conn`.
    writer
        .write_all(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

/// Terminates a chunked response.
pub fn finish_chunks(writer: &mut impl Write) -> Result<(), HttpError> {
    writer
        .write_all(b"0\r\n\r\n")
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

/// One parsed response, as the in-repo blocking client sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Decoded body — chunked transfer-encoding already reassembled.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8.
    pub fn text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::new("response body is not UTF-8"))
    }
}

/// Reads one full response, reassembling a chunked body if the server
/// streamed it.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, HttpError> {
    let start = read_line(reader)?.ok_or_else(|| HttpError::new("no response"))?;
    let mut parts = start.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::new(format!("bad status '{code}'")))?,
        _ => return Err(HttpError::new(format!("malformed status line '{start}'"))),
    };

    let mut headers = Vec::new();
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| HttpError::new("connection closed in headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader)?
                .ok_or_else(|| HttpError::new("connection closed in chunk size"))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| HttpError::new(format!("bad chunk size '{size_line}'")))?;
            if body.len() + size > MAX_BODY_BYTES {
                return Err(HttpError::new("chunked body over limit"));
            }
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader
                .read_exact(&mut chunk)
                .map_err(|e| HttpError::from_io(&e))?;
            if size == 0 {
                break;
            }
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::new(format!("bad content-length '{v}'")))
        })
        .transpose()?
    {
        if len > MAX_BODY_BYTES {
            return Err(HttpError::new("response body over limit"));
        }
        body.resize(len, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| HttpError::from_io(&e))?;
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Writes a request as the client sends it. The pooled client keeps
/// its connection, so requests advertise `Connection: keep-alive`.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(), HttpError> {
    // Head and body go out in one write — see `write_response_conn` on
    // the Nagle + delayed-ACK trap split writes set on reused
    // connections.
    let mut message = format!(
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    message.extend_from_slice(body);
    writer
        .write_all(&message)
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

/// Starts a chunked (streaming) request — the streaming batch submit's
/// head. Follow with [`write_chunk`] per payload line and
/// [`finish_chunks`] to terminate the body.
pub fn write_chunked_request_head(
    writer: &mut impl Write,
    method: &str,
    target: &str,
) -> Result<(), HttpError> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ntransfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n",
    );
    writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| HttpError::from_io(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = b"POST /v1/jobs?lane=bulk HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .expect("read")
            .expect("a request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query_param("lane"), Some("bulk"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_an_error() {
        assert_eq!(
            read_request(&mut BufReader::new(&b""[..])).expect("eof"),
            None
        );
        assert!(read_request(&mut BufReader::new(&b"NOT HTTP\r\n\r\n"[..])).is_err());
        let long = vec![b'a'; MAX_LINE_BYTES + 10];
        assert!(read_request(&mut BufReader::new(&long[..])).is_err());
    }

    #[test]
    fn response_round_trips_fixed_and_chunked() {
        let mut out = Vec::new();
        write_response_conn(&mut out, 429, r#"{"kind":"queue_full"}"#, true).expect("write");
        let resp = read_response(&mut BufReader::new(&out[..])).expect("read");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.text().expect("utf8"), r#"{"kind":"queue_full"}"#);

        let mut out = Vec::new();
        write_chunked_head(&mut out, 200).expect("head");
        write_chunk(&mut out, "{\"a\":1}\n").expect("chunk");
        write_chunk(&mut out, "{\"b\":2}\n").expect("chunk");
        finish_chunks(&mut out).expect("finish");
        let resp = read_response(&mut BufReader::new(&out[..])).expect("read");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().expect("utf8"), "{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn chunked_request_body_reassembles() {
        let raw = b"POST /v1/jobs/stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nabcd\r\n3;ext=1\r\nefg\r\n0\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .expect("read")
            .expect("a request");
        assert_eq!(req.body, b"abcdefg");
    }

    #[test]
    fn malformed_chunked_bodies_are_typed_errors() {
        let parse = |raw: &[u8]| {
            let framed = [
                b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".as_slice(),
                raw,
            ]
            .concat();
            read_request(&mut BufReader::new(&framed[..]))
        };
        // Bad chunk-size line: not hex.
        let e = parse(b"zz\r\nabcd\r\n0\r\n\r\n").expect_err("bad size");
        assert!(e.reason.contains("bad chunk size"), "{e}");
        // Truncated trailer: stream ends before the blank line.
        let e = parse(b"4\r\nabcd\r\n0\r\n").expect_err("truncated trailer");
        assert!(e.reason.contains("trailer"), "{e}");
        // Stream ends before the zero chunk at all.
        let e = parse(b"4\r\nabcd\r\n").expect_err("no terminator");
        assert!(e.reason.contains("terminator"), "{e}");
        // Oversized chunk.
        let e = parse(format!("{:x}\r\n", MAX_BODY_BYTES + 1).as_bytes()).expect_err("oversized");
        assert!(e.reason.contains("over limit"), "{e}");
        // Chunk data not CRLF-terminated (size lies short).
        let e = parse(b"2\r\nabcd\r\n0\r\n\r\n").expect_err("bad terminator");
        assert!(e.reason.contains("CRLF"), "{e}");
    }

    #[test]
    fn keep_alive_framing_round_trips_two_requests() {
        let mut out = Vec::new();
        write_request(&mut out, "GET", "/healthz", b"").expect("write");
        write_request(&mut out, "GET", "/v1/jobs/3", b"").expect("write");
        let mut reader = BufReader::new(&out[..]);
        let first = read_request(&mut reader).expect("read").expect("first");
        let second = read_request(&mut reader).expect("read").expect("second");
        assert_eq!(first.path, "/healthz");
        assert_eq!(second.path, "/v1/jobs/3");
        assert!(!first.wants_close(), "client requests keep the connection");
        assert_eq!(read_request(&mut reader).expect("eof"), None);

        let mut out = Vec::new();
        write_response_conn(&mut out, 200, "{}", false).expect("keep");
        write_response_conn(&mut out, 200, "{}", true).expect("close");
        let mut reader = BufReader::new(&out[..]);
        let kept = read_response(&mut reader).expect("read");
        let closed = read_response(&mut reader).expect("read");
        assert_eq!(kept.header("connection"), Some("keep-alive"));
        assert_eq!(closed.header("connection"), Some("close"));
    }

    #[test]
    fn client_request_parses_back() {
        let mut out = Vec::new();
        write_request(&mut out, "GET", "/healthz", b"").expect("write");
        let req = read_request(&mut BufReader::new(&out[..]))
            .expect("read")
            .expect("a request");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(req.body.is_empty());
    }
}
