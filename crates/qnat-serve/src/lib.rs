//! # qnat-serve — long-lived serving layer over the QuantumNAT batch pool
//!
//! The deployment story of QuantumNAT (Wang et al., DAC 2022) assumes
//! inference requests arrive *continuously* against drifting,
//! failure-prone devices, but
//! [`qnat_core::batch::BatchExecutor`] blocks the caller until an entire
//! batch drains. This crate adds the missing serving layer:
//!
//! * [`engine::ServeEngine`] — a bounded multi-producer job queue
//!   (`submit → Ticket`) over a persistent worker pool, with non-blocking
//!   `poll`, blocking `wait`, and a `subscribe` result stream in
//!   completion order. Circuit-breaker admission control at enqueue time,
//!   per-lane backpressure (`Block | RejectWhenFull | ShedOldest`) and
//!   priority lanes (interactive before bulk).
//! * [`qnn::ServingQnn`] — a QNN deployed onto per-block engines, a
//!   [`Deployment`](qnat_core::infer::Deployment) that
//!   [`qnat_core::infer::infer`] reaches through
//!   [`InferenceBackend::Deployed`](qnat_core::infer::InferenceBackend).
//!   It shares the batch layer's block plans, job factory and per-block
//!   seeds, so the first served workload is **bitwise identical** to the
//!   same deployment run through [`Qnn::deploy_batch`] — per-job seeds
//!   derive from tickets exactly as the batch layer derives them from job
//!   indices.
//! * [`bulk::bulk_grid_sweep`] — the §4.2 hyper-parameter grid of
//!   [`qnat_core::sweep::SweepConfig`], served through the bulk lane so
//!   background sweeps never starve interactive traffic.
//! * [`mitigate::submit_mitigated`] — error-mitigation sweeps: one
//!   logical [`mitigate::MitigatedJob`] fans out into one folded run per
//!   noise scale on the bulk lane (seeds pinned to the repo-wide
//!   splitmix64 schedule, so sweeps replay bitwise) and aggregates the
//!   runs — readout inversion, then zero-noise extrapolation — into a
//!   single mitigated result.
//!
//! [`Qnn::deploy_batch`]: qnat_core::model::Qnn

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bulk;
pub mod engine;
pub mod mitigate;
pub mod qnn;

pub use bulk::{bulk_grid_sweep, BulkSweepRecord};
pub use engine::{
    AdmissionControl, BackpressurePolicy, EngineLoad, EngineStats, JobOutcome, Lane, LaneConfig,
    OpenAction, Poll, ServeConfig, ServeEngine, SubmitError, Ticket, WaitError,
};
pub use mitigate::{
    aggregate_sweep, sub_seed, submit_mitigated, MitigatedJob, MitigatedOutcome,
    MitigatedSubmitError, MitigatedSweep, MitigationError, ScaleRun,
};
pub use qnn::{DeployServing, ServeAdmission, ServingOptions, ServingQnn};
