//! # qnat-transport — HTTP front door for the serving engine
//!
//! The network edge of the deployment stack (DESIGN.md §11): a
//! dependency-free HTTP/1.1 server over `std::net` that exposes a
//! [`qnat_serve::engine::ServeEngine`] to remote callers, plus the
//! blocking client the tests and benches drive.
//!
//! Layering:
//!
//! * [`wire`] — the `qnat-json` wire format, owner of every document
//!   the server and client exchange (one encoder each, one decoder for
//!   each the client reads). Lossless by construction: full gate
//!   arrays, exact `f64`s, all eleven typed error variants — which is
//!   what lets `tests/transport_e2e.rs` demand bitwise replay parity
//!   between a served workload and the same jobs through
//!   `deploy_batch`.
//! * [`http`] — a minimal request/response/chunked codec over
//!   `BufRead`/`Write`, with hard size limits; keep-alive framing and
//!   chunked request bodies included.
//! * [`server`] — the bounded accept/worker loop serving persistent
//!   (keep-alive) connections, route dispatch, per-request
//!   [`qnat_core::health::DeadlineBudget`] re-arming with a total
//!   read-time slow-loris guard, accept-edge 503 shedding at the
//!   connection limit, overload counters, graceful drain (DESIGN.md
//!   §14).
//! * [`client`] — blocking client with a pooled keep-alive connection
//!   (transparent reconnect-on-stale, idempotent-GET retry), a chunked
//!   streaming submit, and typed errors that preserve the 429/503
//!   contract.
//! * [`chaos`] — a seed-deterministic fault-injecting stream wrapper
//!   (resets, slow-loris pacing, stalls, corruption) that the
//!   `transport_chaos` suite drives against a live server.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chaos;
pub mod client;
pub mod http;
pub mod server;
pub mod wire;

pub use chaos::{ChaosMode, ChaosPlan, ChaosStream};
pub use client::{
    ClientError, StreamEvent, StreamSubmit, TicketStatus, TimeoutPhase, TransportClient,
};
pub use http::{HttpError, Request, Response};
pub use server::{
    HealthSection, TransportConfig, TransportMetrics, TransportServer, TransportSnapshot,
};
pub use wire::WireError;
