//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer's public functions, written out when the run ends.
//!
//! A span names the layer call it times, the request (training step,
//! ticket or sweep) it belongs to, and the span that caused it. Spans
//! are only recorded in the traced run; the untraced run never touches
//! a [`Tracer`].

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `noise.emulator`.
    pub name: &'static str,
    /// The request it served (step, ticket or sweep number).
    pub req: u64,
    /// The span that caused it, by name.
    pub parent: &'static str,
    /// Start, nanoseconds after the process's first timestamp.
    pub start_ns: u64,
    /// End, nanoseconds after the process's first timestamp.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first timestamp.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// A thread-safe span sink.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Durations in microseconds of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"name":"{}","req":{},"parent":"{}","start_ns":{},"end_ns":{}}}"#,
            s.name, s.req, s.parent, s.start_ns, s.end_ns
        );
    }
    out
}
