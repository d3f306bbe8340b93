//! Serving deployment of a QNN: one [`ServeEngine`] per block, wired into
//! the inference pipeline as a [`Deployment`].
//!
//! ## Replay contract
//!
//! [`DeployServing::deploy_serving`] mirrors
//! [`Qnn::deploy_batch`](qnat_core::model::Qnn::deploy_batch) exactly: the
//! same [`Qnn::route_plan`](qnat_core::model::Qnn::route_plan) routing, the
//! same per-job executors ([`BlockPlan::job_factory`]) and the same
//! per-block seeds ([`block_seed`]). Each block's engine numbers its
//! tickets from zero, so the *first* inference through a fresh
//! [`ServingQnn`] is bitwise identical to the same batch through a fresh
//! `deploy_batch` deployment — pinned by `qnat-serve/tests/serving_e2e.rs`.
//! Later inferences keep advancing the ticket counter (a serving queue is
//! a stream, not a batch), so replaying them as a batch requires replaying
//! the whole served history.

use crate::engine::{
    AdmissionControl, EngineStats, Lane, LaneConfig, OpenAction, ServeConfig, ServeEngine,
};
use qnat_core::batch::BatchJob;
use qnat_core::compile_cache::PlanCache;
use qnat_core::executor::{ExecutionReport, RetryPolicy};
use qnat_core::health::{BreakerPolicy, HealthRegistry};
use qnat_core::infer::{block_seed, BlockPlan, Deployment};
use qnat_core::model::Qnn;
use qnat_noise::backend::BackendError;
use qnat_noise::device::{DeviceModel, InvalidDeviceError};
use qnat_noise::fault::FaultSpec;
use rand::RngCore;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Admission control template for a serving deployment — the per-block
/// breaker keys are derived from the routed device windows.
#[derive(Debug, Clone)]
pub struct ServeAdmission {
    /// Breaker thresholds shared by every block's breaker.
    pub policy: BreakerPolicy,
    /// What an open breaker does to new submissions.
    pub on_open: OpenAction,
}

/// Serving-engine knobs of a deployment (everything
/// [`Qnn::deploy_batch`](qnat_core::model::Qnn::deploy_batch) does not
/// already take).
#[derive(Debug, Clone)]
pub struct ServingOptions {
    /// Persistent workers per block engine (clamped to ≥ 1).
    pub workers: usize,
    /// Deployment seed — block `b`'s engine seed is
    /// [`block_seed`]`(seed, b)`, the batch layer's per-block pool seed.
    pub seed: u64,
    /// The interactive lane of every block engine.
    pub interactive: LaneConfig,
    /// The bulk lane of every block engine.
    pub bulk: LaneConfig,
    /// Optional per-job backoff budget in milliseconds. Leave `None` for
    /// bitwise batch-replay equality (the batch layer attaches deadlines
    /// only through its health policy).
    pub deadline_ms: Option<u64>,
    /// Optional enqueue-time admission control (one breaker per block).
    pub admission: Option<ServeAdmission>,
    /// Optional shared compiled-circuit cache: block plans are looked up
    /// by `(circuit, device-calibration, opt-level)` fingerprint through
    /// [`Qnn::route_plan_cached`](qnat_core::model::Qnn::route_plan_cached),
    /// so repeated deployments of the same model on the same device skip
    /// transpilation entirely. Hits share the compiled plan and cannot
    /// change results. `None` compiles fresh every deployment.
    pub plan_cache: Option<Arc<PlanCache>>,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            workers: 4,
            seed: 0,
            interactive: LaneConfig::default(),
            bulk: LaneConfig::default(),
            deadline_ms: None,
            admission: None,
            plan_cache: None,
        }
    }
}

/// A QNN deployed onto long-lived per-block serving engines. Use through
/// [`InferenceBackend::Deployed`](qnat_core::infer::InferenceBackend) or
/// submit block batches directly via [`Deployment::run_block`].
pub struct ServingQnn<'a> {
    qnn: &'a Qnn,
    plans: Vec<BlockPlan>,
    engines: Vec<ServeEngine>,
    registry: Arc<HealthRegistry>,
    /// Finite-shot sampling (`None` = exact expectations).
    pub shots: Option<usize>,
    lane: Cell<Lane>,
    report: RefCell<ExecutionReport>,
}

/// Extension trait deploying a [`Qnn`] onto serving engines — lives here
/// because `qnat-core` cannot depend on `qnat-serve`.
pub trait DeployServing {
    /// Routes the model for `device` and starts one [`ServeEngine`] per
    /// block: hardware emulator primary, Pauli noise-model fallback,
    /// `faults` (if given) injected into the primary, every job behind a
    /// fresh ticket-seeded
    /// [`ResilientExecutor`](qnat_core::executor::ResilientExecutor).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small.
    fn deploy_serving<'a>(
        &'a self,
        device: &DeviceModel,
        opt_level: u8,
        policy: RetryPolicy,
        faults: Option<FaultSpec>,
        opts: &ServingOptions,
    ) -> Result<ServingQnn<'a>, InvalidDeviceError>;
}

impl DeployServing for Qnn {
    fn deploy_serving<'a>(
        &'a self,
        device: &DeviceModel,
        opt_level: u8,
        policy: RetryPolicy,
        faults: Option<FaultSpec>,
        opts: &ServingOptions,
    ) -> Result<ServingQnn<'a>, InvalidDeviceError> {
        let plans = match &opts.plan_cache {
            Some(cache) => self.route_plan_cached(device, opt_level, cache)?,
            None => self.route_plan(device, opt_level)?,
        };
        let registry = Arc::new(HealthRegistry::new());
        let engines = plans
            .iter()
            .enumerate()
            .map(|(bi, plan)| {
                let config = ServeConfig {
                    workers: opts.workers,
                    seed: block_seed(opts.seed, bi),
                    interactive: opts.interactive.clone(),
                    bulk: opts.bulk.clone(),
                    deadline_ms: opts.deadline_ms,
                    admission: opts.admission.as_ref().map(|a| AdmissionControl {
                        key: plan.breaker_key(bi),
                        policy: a.policy.clone(),
                        on_open: a.on_open,
                    }),
                };
                let factory = plan.job_factory(&policy, faults);
                ServeEngine::with_registry(config, factory, Arc::clone(&registry))
            })
            .collect();
        Ok(ServingQnn {
            qnn: self,
            plans,
            engines,
            registry,
            shots: None,
            lane: Cell::new(Lane::Interactive),
            report: RefCell::new(ExecutionReport::default()),
        })
    }
}

impl ServingQnn<'_> {
    /// The deployed model.
    pub fn qnn(&self) -> &Qnn {
        self.qnn
    }

    /// The lane subsequent block batches are submitted on (defaults to
    /// [`Lane::Interactive`]).
    pub fn lane(&self) -> Lane {
        self.lane.get()
    }

    /// Routes subsequent block batches onto `lane`.
    pub fn set_lane(&self, lane: Lane) {
        self.lane.set(lane);
    }

    /// Cumulative merged execution report of every served block batch.
    pub fn report(&self) -> ExecutionReport {
        self.report.borrow().clone()
    }

    /// The block's serving engine (for direct `submit`/`poll`/`wait`/
    /// `subscribe` access).
    pub fn engine(&self, block_idx: usize) -> &ServeEngine {
        &self.engines[block_idx]
    }

    /// Per-block engine stats, block-index order.
    pub fn stats(&self) -> Vec<EngineStats> {
        self.engines.iter().map(ServeEngine::stats).collect()
    }

    /// The registry holding every block's circuit breaker.
    pub fn health_registry(&self) -> &Arc<HealthRegistry> {
        &self.registry
    }

    /// Registry key of `block_idx`'s breaker — the batch health layer's
    /// key ([`BlockPlan::breaker_key`]), so shared registries line up.
    pub fn breaker_key(&self, block_idx: usize) -> String {
        self.plans[block_idx].breaker_key(block_idx)
    }

    /// Gracefully drains every block engine (queued jobs finish) and
    /// returns the final per-block stats.
    pub fn drain(self) -> Vec<EngineStats> {
        self.engines.into_iter().map(ServeEngine::drain).collect()
    }
}

impl Deployment for ServingQnn<'_> {
    fn run_block(
        &self,
        block_idx: usize,
        rows: &[Vec<f64>],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<f64>>, BackendError> {
        let plan = &self.plans[block_idx];
        let engine = &self.engines[block_idx];
        let lane = self.lane.get();
        let mut tickets = Vec::with_capacity(rows.len());
        let mut refused = None;
        for row in rows {
            let job = BatchJob {
                circuit: plan.bind(self.qnn, block_idx, row),
                shots: self.shots,
            };
            match engine.submit(job, lane) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    refused = Some(BackendError::from(e));
                    break;
                }
            }
        }
        // Wait in ticket order and merge reports the same way — matching
        // the batch layer's job-index-ordered merge, so a served batch's
        // report equals the pooled batch's report. A refused submission
        // still waits out the tickets already issued, so their outcomes
        // are not left behind in the engine and their reports count.
        let mut merged = ExecutionReport::default();
        let mut results = Vec::with_capacity(tickets.len());
        for &t in &tickets {
            match engine.wait(t) {
                Some(outcome) => {
                    merged.merge(&outcome.report);
                    results.push(outcome.result);
                }
                None => results.push(Err(BackendError::Overloaded {
                    reason: format!("ticket {t} discarded before completion"),
                })),
            }
        }
        self.report.borrow_mut().merge(&merged);
        if let Some(e) = refused {
            return Err(e);
        }
        results
            .into_iter()
            .map(|result| Ok(plan.observe(&result?.expectations)))
            .collect()
    }

    fn report(&self) -> Option<ExecutionReport> {
        Some(ServingQnn::report(self))
    }
}
