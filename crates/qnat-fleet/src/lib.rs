//! # qnat-fleet — noise-aware routing over a fleet of serving engines
//!
//! QuantumNAT (Wang et al., DAC 2022) trains models that stay accurate
//! *on a specific noisy device*; real deployments have **many** devices
//! with different calibrations, each drifting and failing independently.
//! This crate adds the fleet layer on top of `qnat-serve`:
//!
//! * [`FleetDevice`] — one routable device: a name (its breaker key), a
//!   calibration model plus optional drift spec for scoring, and the
//!   standard `(global, seed) -> executor` factory.
//! * [`FleetRouter`] — one `ServeEngine` per device behind a shared
//!   `HealthRegistry`; every submission is scored per device by lane
//!   depth, breaker state and the *current drifted* error-rate estimate,
//!   routed to the best candidate, **failed over** to the next-best on
//!   refusal or error, optionally **hedged** onto a second device when
//!   slow, and quarantine-managed so a flapping device is evicted and
//!   probe-readmitted. The fleet degrades gracefully to its last healthy
//!   engine; only with none left does [`FleetRouter::submit`] refuse
//!   with [`FleetError::AllDevicesDown`].
//! * [`replay_job`] — bitwise re-execution of any delivered attempt from
//!   its recorded [`RoutingTrace`], because per-job seeds stay
//!   `splitmix64(seed ^ splitmix64(job))` no matter which device ran the
//!   job (property-pinned in `tests/fleet_props.rs`).
//! * [`ScorePolicy`] — the routing score's noise source: `Static`
//!   (declared calibration, drifted along the declared cursor) or
//!   `Predicted` (the `qnat-calib` [`qnat_calib::CalibrationTracker`]'s
//!   learned estimate from the live report stream, with static fallback
//!   while cold). The tracker observes deliveries in fleet-ticket order
//!   under both policies; predicted decisions are recorded in a
//!   replayable [`qnat_calib::CalibTrace`]
//!   ([`FleetRouter::calib_trace`]).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod device;
pub mod router;

pub use device::{DeviceFactory, FleetDevice};
pub use qnat_calib::{
    replay_decision, CalibConfig, CalibDecision, CalibTrace, CalibrationHealth, CandidateScore,
    DeviceCalibrationView, NoiseSource,
};
pub use router::{
    replay_job, AttemptKind, AttemptTrace, DeviceHealthView, Disposition, FleetConfig, FleetError,
    FleetHealth, FleetOutcome, FleetPoll, FleetRouter, FleetStats, FleetTicket, HedgePolicy,
    JobTrace, QuarantinePolicy, RoutingTrace, ScorePolicy,
};
