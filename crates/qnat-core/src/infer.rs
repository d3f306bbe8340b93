//! Inference pipelines: noise-free, noise-model-based and (emulated)
//! hardware deployment.
//!
//! Deployment follows the paper's flow: the logical model is transpiled for
//! the target device (trivial layout at Qiskit-style optimization level ≤ 2,
//! noise-adaptive layout at level 3 — Table 7), run on the density-matrix
//! hardware emulator with readout error and optional finite shots, and the
//! measurement outcomes pass through post-measurement normalization (batch
//! or validation statistics) and quantization before re-upload.
//!
//! Every device deployment has one shape: the [`BlockPlan`]s of
//! [`Qnn::route_plan`] (each block routed, windowed and lowered for the
//! device) plus the thing that runs them. [`infer`] reaches all of them
//! through the [`Deployment`] trait ([`InferenceBackend::Deployed`]):
//!
//! * [`Qnn::deploy`] — the direct emulator path, one [`ModelEngine`] per
//!   block, which surfaces any [`BackendError`] to the caller.
//! * [`Qnn::deploy_resilient`] — every block behind one long-lived
//!   [`ResilientExecutor`] (retry/backoff, optional fault injection, and
//!   graceful degradation from the hardware emulator to the Pauli
//!   noise-model simulator).
//! * [`Qnn::deploy_batch`] — each block's whole batch fanned across a
//!   [`BatchExecutor`] worker pool, every job behind a fresh executor from
//!   [`BlockPlan::job_factory`]. Per-job seeding keeps results bitwise
//!   identical to the single-worker path regardless of pool size, also
//!   with the health layer on ([`BatchedQnn::with_health`]: a private
//!   breaker per block plus per-job deadline budgets).
//! * `qnat-serve`'s `ServingQnn` — blocks submitted to long-lived serving
//!   engines built over the same job factory and per-block seeds
//!   ([`block_seed`]), so a first served batch replays the pooled one.
//!
//! The last three report retries, backoff and degradation through
//! [`Deployment::report`], which [`infer`] surfaces on the result.
//!
//! The whole pipeline is fallible: [`infer`] returns [`InferError`] instead
//! of panicking, so a flaky backend can never take down a deployment loop.

use crate::batch::{BatchExecutor, BatchJob};
use crate::executor::{splitmix64, ExecutionReport, ResilientExecutor, RetryPolicy};
use crate::forward::{block_forward, QuantizeSpec};
use crate::head::apply_head;
use crate::health::{HealthPolicy, HealthRegistry};
use crate::model::{Block, BlockNoise, NoiseSource, Qnn};
use crate::normalize::{try_normalize_batch, NormError, NormStats};
use qnat_autodiff::tape::quantize_value;
use qnat_compiler::mapping::{noise_adaptive_layout, Layout};
use qnat_compiler::symbolic::{lower_symbolic, SymbolicLowered};
use qnat_compiler::transpile::route_and_window;
use qnat_noise::backend::{
    BackendError, EmulatorBackend, ModelEngine, NoiseModelBackend, QuantumBackend,
};
use qnat_noise::device::{DeviceModel, InvalidDeviceError};
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use qnat_sim::circuit::Circuit;
use rand::{Rng, RngCore};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

pub use qnat_noise::backend::{DEFAULT_TRAJECTORIES, DENSITY_MATRIX_LIMIT};

/// How normalization statistics are obtained at inference time.
#[derive(Debug, Clone, PartialEq)]
pub enum NormMode {
    /// No normalization (the raw baseline).
    Off,
    /// Each batch uses its own statistics (the paper's default).
    BatchStats,
    /// Fixed per-block statistics profiled on the validation set
    /// (Appendix A.3.7 — for small test batches).
    FixedStats(Vec<NormStats>),
}

/// Inference-time pipeline settings.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOptions {
    /// Normalization mode between blocks.
    pub normalize: NormMode,
    /// Quantization between blocks.
    pub quantize: Option<QuantizeSpec>,
    /// Also process the last block's outcomes (fully-quantum models,
    /// Appendix A.3.3).
    pub process_last: bool,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        InferenceOptions {
            normalize: NormMode::BatchStats,
            quantize: Some(QuantizeSpec::levels(5)),
            process_last: false,
        }
    }
}

impl InferenceOptions {
    /// Raw pipeline: no normalization, no quantization.
    pub fn baseline() -> Self {
        InferenceOptions {
            normalize: NormMode::Off,
            quantize: None,
            process_last: false,
        }
    }
}

/// Why an inference run could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum InferError {
    /// A backend job failed past every retry and fallback.
    Backend(BackendError),
    /// Normalization statistics could not be computed (empty/ragged batch
    /// or non-finite outcomes leaking from a fault).
    Norm(NormError),
    /// `FixedStats` supplied the wrong number of per-block statistics.
    StatsMismatch {
        /// Blocks that needed statistics.
        expected: usize,
        /// Statistics provided.
        got: usize,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Backend(e) => write!(f, "backend failure: {e}"),
            InferError::Norm(e) => write!(f, "normalization failure: {e}"),
            InferError::StatsMismatch { expected, got } => write!(
                f,
                "need one NormStats per processed block ({expected}), got {got}"
            ),
        }
    }
}

impl Error for InferError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InferError::Backend(e) => Some(e),
            InferError::Norm(e) => Some(e),
            InferError::StatsMismatch { .. } => None,
        }
    }
}

impl From<BackendError> for InferError {
    fn from(e: BackendError) -> Self {
        InferError::Backend(e)
    }
}

impl From<NormError> for InferError {
    fn from(e: NormError) -> Self {
        InferError::Norm(e)
    }
}

/// Result of an inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Class logits per sample.
    pub logits: Vec<Vec<f64>>,
    /// Raw (pre-normalization) measurement outcomes of each block:
    /// `block_outputs[block][sample][qubit]`.
    pub block_outputs: Vec<Vec<Vec<f64>>>,
    /// Cumulative execution report of the deployment's resilient
    /// executors ([`Deployment::report`]: retries, backoff and degradation
    /// events since the model was deployed), if it tracks one.
    pub report: Option<ExecutionReport>,
}

impl InferenceResult {
    /// Accuracy against labels.
    pub fn accuracy(&self, labels: &[usize]) -> f64 {
        crate::metrics::accuracy(&self.logits, labels)
    }
}

/// One block routed, windowed and lowered for a device — the shape every
/// device deployment shares ([`Qnn::route_plan`]). The routed window is
/// kept so backends can be built over it at any time, including inside a
/// worker pool long after deployment.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// The routed, windowed circuit lowered to symbolic parameters.
    pub lowered: SymbolicLowered,
    /// Window indices of the observable qubits, in logical order.
    pub obs: Vec<usize>,
    /// The routed device window backends are built over.
    pub view: DeviceModel,
}

impl BlockPlan {
    /// The circuit block `block_idx` of `qnn` runs for one input row: the
    /// row's encoder angles, then the block's trained parameters, bound
    /// into the lowered template.
    pub fn bind(&self, qnn: &Qnn, block_idx: usize, row: &[f64]) -> Circuit {
        let mut params = qnn.blocks()[block_idx].encoder.angles(row);
        params.extend_from_slice(qnn.block_params(block_idx));
        self.lowered.bind(&params)
    }

    /// The observable expectations, in logical order, out of the window's
    /// per-qubit `⟨Z⟩`.
    pub fn observe(&self, window_z: &[f64]) -> Vec<f64> {
        self.obs.iter().map(|&w| window_z[w]).collect()
    }

    /// The per-job executor factory of pooled and served deployments:
    /// `(job, job_seed)` gets a fresh emulator-primary, noise-model-fallback
    /// executor seeded `job_seed`.
    /// Fault *rolls* and retry jitter are decorrelated per job (their
    /// seeds `^ job_seed`); calibration *drift* is positioned at the
    /// batch-global job (or ticket) index, so all per-job backends sample
    /// one fleet-wide drift trajectory.
    pub fn job_factory(
        &self,
        policy: &RetryPolicy,
        faults: Option<FaultSpec>,
    ) -> impl Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static {
        let view = self.view.clone();
        let policy = policy.clone();
        move |job, job_seed| {
            let faults = faults.map(|spec| FaultSpec {
                seed: spec.seed ^ job_seed,
                ..spec
            });
            let policy = RetryPolicy {
                jitter_seed: policy.jitter_seed ^ job_seed,
                ..policy.clone()
            };
            window_executor(&view, job_seed, faults, job, policy)
        }
    }

    /// Registry key of block `block_idx`'s primary-backend breaker: the
    /// routed device window is the unit that fails (and recovers) as one.
    pub fn breaker_key(&self, block_idx: usize) -> String {
        format!("emulator({})/block{}", self.view.name(), block_idx)
    }
}

/// Block `block_idx`'s seed under deployment seed `seed` — the pool seed of
/// [`Qnn::deploy_batch`] and the engine seed of `qnat-serve`'s serving
/// deployment, which must agree for a served batch to replay a pooled one.
pub fn block_seed(seed: u64, block_idx: usize) -> u64 {
    splitmix64(seed ^ (block_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A resilient executor over a routed window: the hardware emulator seeded
/// `seed` as primary (with `faults` injected, drift positioned at
/// `first_job`), the Pauli noise-model simulator seeded `seed ^ 0x5eed` as
/// graceful fallback.
fn window_executor(
    view: &DeviceModel,
    seed: u64,
    faults: Option<FaultSpec>,
    first_job: u64,
    policy: RetryPolicy,
) -> Result<ResilientExecutor, BackendError> {
    let emulator = EmulatorBackend::new(view, seed)?;
    let primary: Box<dyn QuantumBackend> = match faults {
        Some(spec) => Box::new(FaultyBackend::starting_at(emulator, spec, first_job)),
        None => Box::new(emulator),
    };
    let fallback = NoiseModelBackend::new(view, seed ^ 0x5eed)?;
    Ok(ResilientExecutor::with_fallback(
        primary,
        Box::new(fallback),
        policy,
    ))
}

/// A model deployed on a device, as [`infer`] sees it: something that turns
/// one block's batch of input rows into per-row observable expectations.
///
/// Implemented by [`DeployedQnn`], [`ResilientQnn`], [`BatchedQnn`] and
/// `qnat-serve`'s `ServingQnn`.
pub trait Deployment {
    /// Evaluates block `block_idx` for every row of the batch, returning
    /// per-row observable expectations in row order. Only deployments that
    /// sample on the caller's stream ([`DeployedQnn`]) draw from `rng`;
    /// the others carry their own seeds.
    ///
    /// # Errors
    ///
    /// Returns the first row's [`BackendError`] if any job failed past
    /// every retry, fallback and admission decision.
    fn run_block(
        &self,
        block_idx: usize,
        rows: &[Vec<f64>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<f64>>, BackendError>;

    /// Cumulative merged execution report since deployment, if the
    /// deployment tracks one.
    fn report(&self) -> Option<ExecutionReport> {
        None
    }
}

/// A QNN transpiled for a target device, each block run directly on a
/// hardware emulator view of its window.
#[derive(Debug, Clone)]
pub struct DeployedQnn<'a> {
    qnn: &'a Qnn,
    plans: Vec<BlockPlan>,
    engines: Vec<ModelEngine>,
    /// Finite-shot sampling (`None` = exact expectations, paper uses 8192).
    pub shots: Option<usize>,
}

impl Deployment for DeployedQnn<'_> {
    fn run_block(
        &self,
        block_idx: usize,
        rows: &[Vec<f64>],
        mut rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<f64>>, BackendError> {
        let plan = &self.plans[block_idx];
        let engine = &self.engines[block_idx];
        rows.iter()
            .map(|row| {
                let bound = plan.bind(self.qnn, block_idx, row);
                Ok(plan.observe(&engine.run(&bound, self.shots, &mut rng)?))
            })
            .collect()
    }
}

/// A QNN deployed behind per-block [`ResilientExecutor`]s: the hardware
/// emulator as primary, the Pauli noise-model simulator as graceful
/// fallback, with optional injected faults for robustness studies.
pub struct ResilientQnn<'a> {
    qnn: &'a Qnn,
    plans: Vec<BlockPlan>,
    // `infer` takes the deployment by shared reference while the executors
    // mutate their RNGs, job counters and reports — hence interior
    // mutability. Inference is single-threaded per deployment.
    executors: Vec<RefCell<ResilientExecutor>>,
    /// Finite-shot sampling (`None` = exact expectations).
    pub shots: Option<usize>,
}

impl ResilientQnn<'_> {
    /// Merged execution report across all block executors (cumulative
    /// since deployment).
    pub fn report(&self) -> ExecutionReport {
        let mut merged = ExecutionReport::default();
        for e in &self.executors {
            merged.merge(e.borrow().report());
        }
        merged
    }

    /// `true` if any block has permanently degraded to its fallback.
    pub fn is_degraded(&self) -> bool {
        self.executors.iter().any(|e| e.borrow().is_degraded())
    }
}

impl Deployment for ResilientQnn<'_> {
    fn run_block(
        &self,
        block_idx: usize,
        rows: &[Vec<f64>],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<f64>>, BackendError> {
        let plan = &self.plans[block_idx];
        let mut executor = self.executors[block_idx].borrow_mut();
        rows.iter()
            .map(|row| {
                let bound = plan.bind(self.qnn, block_idx, row);
                Ok(plan.observe(&executor.execute(&bound, self.shots)?.expectations))
            })
            .collect()
    }

    fn report(&self) -> Option<ExecutionReport> {
        Some(ResilientQnn::report(self))
    }
}

/// A QNN deployed for pooled batch submission: each block's circuits fan
/// out across a [`BatchExecutor`] worker pool, every job behind its own
/// seed-derived [`ResilientExecutor`] (hardware emulator primary, Pauli
/// noise-model fallback, optional injected faults).
///
/// Results are bitwise independent of `workers` — see the determinism
/// notes on [`crate::batch`].
pub struct BatchedQnn<'a> {
    qnn: &'a Qnn,
    plans: Vec<BlockPlan>,
    /// Finite-shot sampling (`None` = exact expectations).
    pub shots: Option<usize>,
    policy: RetryPolicy,
    faults: Option<FaultSpec>,
    workers: usize,
    seed: u64,
    /// Opt-in fleet health: circuit breaking and/or per-job deadline
    /// budgets ([`BatchedQnn::with_health`]).
    health: Option<HealthPolicy>,
    /// This deployment's breaker table, one breaker per block.
    registry: HealthRegistry,
    // `infer` holds the deployment by shared reference while batch runs
    // accumulate into the report — hence interior mutability. A deployment
    // is driven from one thread; the pool lives inside `run_block`.
    report: RefCell<ExecutionReport>,
}

impl BatchedQnn<'_> {
    /// Cumulative merged execution report of every pooled batch run since
    /// deployment.
    pub fn report(&self) -> ExecutionReport {
        self.report.borrow().clone()
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enables the fleet health layer (builder style): circuit breaking
    /// and/or per-job deadline budgets per [`HealthPolicy`]. Breakers live
    /// in this deployment's registry, keyed per block
    /// ([`BatchedQnn::breaker_key`]); results stay bitwise independent of
    /// `workers`.
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = Some(health);
        self
    }

    /// The registry holding this deployment's circuit breakers.
    pub fn health_registry(&self) -> &HealthRegistry {
        &self.registry
    }

    /// Registry key of `block_idx`'s primary-backend breaker
    /// ([`BlockPlan::breaker_key`]).
    pub fn breaker_key(&self, block_idx: usize) -> String {
        self.plans[block_idx].breaker_key(block_idx)
    }
}

impl Deployment for BatchedQnn<'_> {
    fn run_block(
        &self,
        block_idx: usize,
        rows: &[Vec<f64>],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Vec<f64>>, BackendError> {
        let plan = &self.plans[block_idx];
        let jobs: Vec<BatchJob> = rows
            .iter()
            .map(|row| BatchJob {
                circuit: plan.bind(self.qnn, block_idx, row),
                shots: self.shots,
            })
            .collect();
        let pool = BatchExecutor::new(
            self.workers,
            block_seed(self.seed, block_idx),
            plan.job_factory(&self.policy, self.faults),
        );
        let outcome = match &self.health {
            Some(health) => pool.execute_with_health(
                &jobs,
                health,
                &self.registry,
                &self.breaker_key(block_idx),
            ),
            None => pool.execute(&jobs),
        };
        self.report.borrow_mut().merge(&outcome.report);
        Ok(outcome
            .into_measurements()?
            .iter()
            .map(|m| plan.observe(&m.expectations))
            .collect())
    }

    fn report(&self) -> Option<ExecutionReport> {
        Some(BatchedQnn::report(self))
    }
}

/// A backend construction failure reported as a deployment failure.
fn invalid_device(e: BackendError) -> InvalidDeviceError {
    InvalidDeviceError {
        reason: e.to_string(),
    }
}

impl Qnn {
    /// Routes and lowers every block for a device without binding it to
    /// any executor — the front half every deployment shares.
    /// `opt_level ≥ 3` enables the noise-adaptive initial layout
    /// (Table 7); lower levels use the trivial layout.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small.
    pub fn route_plan(
        &self,
        device: &DeviceModel,
        opt_level: u8,
    ) -> Result<Vec<BlockPlan>, InvalidDeviceError> {
        self.blocks()
            .iter()
            .map(|block| self.compile_block(block, device, opt_level))
            .collect()
    }

    /// Like [`Qnn::route_plan`], but memoized through a shared
    /// [`PlanCache`](crate::compile_cache::PlanCache): each block is keyed
    /// on `(logical-circuit fingerprint, device-calibration fingerprint,
    /// opt_level)` and compiled at most once per key. Repeated serving
    /// deployments of the same model on the same device skip routing,
    /// noise-adaptive layout and symbolic lowering entirely.
    ///
    /// Cache hits share the compiled plan, so they cannot change results;
    /// any calibration change (drift, rescale, recalibration) changes the
    /// device fingerprint and recompiles — the invalidation rule the
    /// level-3 noise-adaptive layout requires.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small.
    pub fn route_plan_cached(
        &self,
        device: &DeviceModel,
        opt_level: u8,
        cache: &crate::compile_cache::PlanCache,
    ) -> Result<Vec<BlockPlan>, InvalidDeviceError> {
        let device_fp = device.fingerprint();
        self.blocks()
            .iter()
            .map(|block| {
                let key = crate::compile_cache::PlanKey {
                    circuit: block.logical.fingerprint(),
                    device: device_fp,
                    opt_level,
                };
                let plan = cache
                    .get_or_insert_with(key, || self.compile_block(block, device, opt_level))?;
                Ok((*plan).clone())
            })
            .collect()
    }

    /// Layout, routing, window extraction and symbolic lowering of one
    /// block — the compile step behind both routing entry points.
    fn compile_block(
        &self,
        block: &Block,
        device: &DeviceModel,
        opt_level: u8,
    ) -> Result<BlockPlan, InvalidDeviceError> {
        let n_qubits = self.config().n_qubits;
        if n_qubits > device.n_qubits() {
            return Err(InvalidDeviceError {
                reason: format!(
                    "model needs {} qubits, device {} has {}",
                    n_qubits,
                    device.name(),
                    device.n_qubits()
                ),
            });
        }
        let layout = if opt_level >= 3 {
            noise_adaptive_layout(&block.logical, device)
        } else {
            Layout::trivial(n_qubits)
        };
        let (windowed, _window, obs, view) = route_and_window(&block.logical, device, &layout)?;
        Ok(BlockPlan {
            lowered: lower_symbolic(&windowed),
            obs,
            view,
        })
    }

    /// Transpiles the model for a device. `opt_level ≥ 3` enables the
    /// noise-adaptive initial layout (Table 7); lower levels use the
    /// trivial layout.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small.
    pub fn deploy<'a>(
        &'a self,
        device: &DeviceModel,
        opt_level: u8,
    ) -> Result<DeployedQnn<'a>, InvalidDeviceError> {
        let plans = self.route_plan(device, opt_level)?;
        let engines = plans
            .iter()
            .map(|plan| ModelEngine::build(plan.view.clone()))
            .collect::<Result<_, _>>()
            .map_err(invalid_device)?;
        Ok(DeployedQnn {
            qnn: self,
            plans,
            engines,
            shots: None,
        })
    }

    /// Transpiles the model for a device and places every block behind a
    /// [`ResilientExecutor`]: the hardware emulator is the primary, the
    /// Pauli noise-model simulator over the same window is the graceful
    /// fallback, and `faults` (if given) injects the configured failure
    /// modes into the primary. `seed` drives backend sampling; each block
    /// gets a decorrelated stream.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small or a
    /// backend cannot be constructed over the routed window.
    pub fn deploy_resilient<'a>(
        &'a self,
        device: &DeviceModel,
        opt_level: u8,
        policy: RetryPolicy,
        faults: Option<FaultSpec>,
        seed: u64,
    ) -> Result<ResilientQnn<'a>, InvalidDeviceError> {
        let plans = self.route_plan(device, opt_level)?;
        let executors = plans
            .iter()
            .enumerate()
            .map(|(bi, plan)| {
                let block_seed =
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(bi as u64));
                let faults = faults.map(|spec| FaultSpec {
                    seed: spec.seed.wrapping_add(bi as u64),
                    ..spec
                });
                window_executor(&plan.view, block_seed, faults, 0, policy.clone()).map(RefCell::new)
            })
            .collect::<Result<_, _>>()
            .map_err(invalid_device)?;
        Ok(ResilientQnn {
            qnn: self,
            plans,
            executors,
            shots: None,
        })
    }

    /// Transpiles the model for pooled batch submission: at inference time
    /// every block fans its whole batch across `workers` threads, each job
    /// behind a fresh seed-derived [`ResilientExecutor`] (hardware emulator
    /// primary, Pauli noise-model fallback, `faults` injected into the
    /// primary if given). `seed` drives all per-job backend and jitter
    /// streams; results do not depend on `workers`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device is too small.
    pub fn deploy_batch<'a>(
        &'a self,
        device: &DeviceModel,
        opt_level: u8,
        policy: RetryPolicy,
        faults: Option<FaultSpec>,
        workers: usize,
        seed: u64,
    ) -> Result<BatchedQnn<'a>, InvalidDeviceError> {
        Ok(BatchedQnn {
            qnn: self,
            plans: self.route_plan(device, opt_level)?,
            shots: None,
            policy,
            faults,
            workers: workers.max(1),
            seed,
            health: None,
            registry: HealthRegistry::new(),
            report: RefCell::new(ExecutionReport::default()),
        })
    }
}

/// Which physical process produces the measurement outcomes.
pub enum InferenceBackend<'a> {
    /// Ideal statevector simulation.
    NoiseFree,
    /// The training-time stochastic Pauli model: `n_avg` gate-insertion
    /// samples averaged, plus readout emulation (Table 11's "noise model"
    /// column).
    PauliModel {
        /// Calibration model to sample errors from.
        model: &'a DeviceModel,
        /// Noise factor `T`.
        factor: f64,
        /// Number of stochastic samples to average.
        n_avg: usize,
    },
    /// A model deployed on a device ([`Deployment`]): the hardware
    /// emulator directly ([`Qnn::deploy`]), behind resilient executors
    /// ([`Qnn::deploy_resilient`]), a worker pool ([`Qnn::deploy_batch`])
    /// or `qnat-serve`'s serving engines.
    Deployed(&'a dyn Deployment),
}

/// Each row's raw outcomes from block `bi` on a simulated backend: the
/// mean of `reps` samples per row. Every sample's random draws are made
/// serially, rows in order and a row's repetitions innermost (the order
/// a per-row `eval_block` loop draws them), then all samples run in one
/// shared forward on `workers` threads.
fn simulate_rows<R: Rng>(
    qnn: &Qnn,
    bi: usize,
    rows: &[Vec<f64>],
    noise: &BlockNoise,
    reps: usize,
    rng: &mut R,
    workers: usize,
) -> Vec<Vec<f64>> {
    let mut samples = Vec::with_capacity(rows.len() * reps);
    for row in rows {
        for _ in 0..reps {
            samples.push(qnn.prepare(bi, row, noise, rng));
        }
    }
    let n_q = qnn.config().n_qubits;
    let outputs = block_forward(qnn, bi, samples, noise, workers).outputs;
    outputs
        .chunks_exact(reps * n_q)
        .map(|row| {
            let mut acc = vec![0.0; n_q];
            for out in row.chunks_exact(n_q) {
                for (a, o) in acc.iter_mut().zip(out) {
                    *a += o;
                }
            }
            acc.into_iter().map(|a| a / reps as f64).collect()
        })
        .collect()
}

/// Runs the full inference pipeline over a batch.
///
/// The simulated backends run each block's whole batch on
/// `std::thread::available_parallelism()` threads; the result and the
/// RNG's final state are bitwise identical for any thread count.
///
/// # Errors
///
/// Returns [`InferError`] when a backend job fails past every retry and
/// fallback, when normalization statistics cannot be computed, or when
/// `FixedStats` supplies the wrong number of per-block statistics.
pub fn infer<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    backend: &InferenceBackend<'_>,
    opts: &InferenceOptions,
    rng: &mut R,
) -> Result<InferenceResult, InferError> {
    infer_on(qnn, features, backend, opts, rng, crate::pool::threads())
}

/// [`infer`] with an explicit worker count.
fn infer_on<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    backend: &InferenceBackend<'_>,
    opts: &InferenceOptions,
    rng: &mut R,
    workers: usize,
) -> Result<InferenceResult, InferError> {
    let n_blocks = qnn.config().n_blocks;
    if let NormMode::FixedStats(stats) = &opts.normalize {
        let needed = if opts.process_last {
            n_blocks
        } else {
            n_blocks.saturating_sub(1)
        };
        if stats.len() != needed {
            return Err(InferError::StatsMismatch {
                expected: needed,
                got: stats.len(),
            });
        }
    }
    let mut activations: Vec<Vec<f64>> = features.to_vec();
    let mut block_outputs = Vec::with_capacity(n_blocks);
    for bi in 0..n_blocks {
        // Raw outcomes for the whole batch.
        let raw: Vec<Vec<f64>> = match backend {
            InferenceBackend::NoiseFree => {
                let noise = qnn.block_noise(bi, &NoiseSource::None, None);
                simulate_rows(qnn, bi, &activations, &noise, 1, rng, workers)
            }
            InferenceBackend::PauliModel {
                model,
                factor,
                n_avg,
            } => {
                let source = NoiseSource::GateInsertion {
                    model,
                    factor: *factor,
                };
                let noise = qnn.block_noise(bi, &source, Some(model));
                simulate_rows(qnn, bi, &activations, &noise, (*n_avg).max(1), rng, workers)
            }
            InferenceBackend::Deployed(dep) => dep.run_block(bi, &activations, rng)?,
        };
        block_outputs.push(raw.clone());
        let mut processed = raw;
        if bi + 1 == n_blocks && !opts.process_last {
            activations = processed;
            break;
        }
        match &opts.normalize {
            NormMode::Off => {}
            NormMode::BatchStats => {
                try_normalize_batch(&mut processed)?;
            }
            NormMode::FixedStats(stats) => stats[bi].apply(&mut processed),
        }
        if let Some(spec) = opts.quantize {
            for row in &mut processed {
                for v in row.iter_mut() {
                    *v = quantize_value(*v, spec.levels, spec.p_min, spec.p_max);
                }
            }
        }
        activations = processed;
    }
    let logits = apply_head(&activations, qnn.config().n_classes);
    let report = match backend {
        InferenceBackend::Deployed(dep) => dep.report(),
        _ => None,
    };
    Ok(InferenceResult {
        logits,
        block_outputs,
        report,
    })
}

/// Profiles per-block normalization statistics on a (validation) set run
/// through a backend — used for the `FixedStats` mode of Appendix A.3.7.
///
/// # Errors
///
/// Returns [`InferError`] where [`infer`] does.
pub fn profile_stats<R: Rng>(
    qnn: &Qnn,
    features: &[Vec<f64>],
    backend: &InferenceBackend<'_>,
    quantize: Option<QuantizeSpec>,
    rng: &mut R,
) -> Result<Vec<NormStats>, InferError> {
    // Run with batch stats and harvest the statistics of each block's raw
    // outputs.
    let opts = InferenceOptions {
        normalize: NormMode::BatchStats,
        quantize,
        process_last: false,
    };
    let result = infer(qnn, features, backend, &opts, rng)?;
    result
        .block_outputs
        .iter()
        .take(qnn.config().n_blocks.saturating_sub(1))
        .map(|raw| NormStats::try_from_batch(raw).map_err(InferError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QnnConfig;
    use crate::normalize::normalize_batch;
    use qnat_noise::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch() -> Vec<Vec<f64>> {
        (0..6)
            .map(|i| {
                (0..16)
                    .map(|k| ((i * 16 + k) as f64 * 0.41).sin().abs())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn noise_free_inference_runs() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let r = infer(
            &qnn,
            &toy_batch(),
            &InferenceBackend::NoiseFree,
            &InferenceOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.logits.len(), 6);
        assert_eq!(r.logits[0].len(), 4);
        assert_eq!(r.block_outputs.len(), 2);
        assert!(r.report.is_none(), "non-resilient backends carry no report");
    }

    #[test]
    fn hardware_backend_differs_from_noise_free() {
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::for_device(cfg, &presets::yorktown(), 2).unwrap();
        let dep = qnn.deploy(&presets::yorktown(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let batch = toy_batch();
        let clean = infer(
            &qnn,
            &batch,
            &InferenceBackend::NoiseFree,
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let noisy = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let m = crate::metrics::mse(&clean.block_outputs[0], &noisy.block_outputs[0]);
        assert!(m > 1e-6, "hardware emulation should perturb outcomes");
    }

    #[test]
    fn normalization_recovers_contracted_outcomes() {
        // With normalization the noisy first-block outputs match the
        // normalized noise-free ones much better (Theorem 3.1).
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::for_device(cfg, &presets::yorktown(), 3).unwrap();
        let dep = qnn.deploy(&presets::yorktown(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let batch = toy_batch();
        let clean = infer(
            &qnn,
            &batch,
            &InferenceBackend::NoiseFree,
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let noisy = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let mut c0 = clean.block_outputs[0].clone();
        let mut n0 = noisy.block_outputs[0].clone();
        let snr_raw = crate::metrics::snr(&c0, &n0);
        normalize_batch(&mut c0);
        normalize_batch(&mut n0);
        let snr_norm = crate::metrics::snr(&c0, &n0);
        assert!(
            snr_norm > snr_raw,
            "normalization should improve SNR: {snr_raw} → {snr_norm}"
        );
    }

    #[test]
    fn fixed_stats_mode_close_to_batch_stats() {
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::new(cfg, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let valid = toy_batch();
        let stats = profile_stats(
            &qnn,
            &valid,
            &InferenceBackend::NoiseFree,
            Some(QuantizeSpec::levels(5)),
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.len(), 1);
        let test = toy_batch();
        let with_fixed = infer(
            &qnn,
            &test,
            &InferenceBackend::NoiseFree,
            &InferenceOptions {
                normalize: NormMode::FixedStats(stats),
                quantize: Some(QuantizeSpec::levels(5)),
                process_last: false,
            },
            &mut rng,
        )
        .unwrap();
        let with_batch = infer(
            &qnn,
            &test,
            &InferenceBackend::NoiseFree,
            &InferenceOptions::default(),
            &mut rng,
        )
        .unwrap();
        // Same data → identical stats → identical logits.
        for (a, b) in with_fixed
            .logits
            .iter()
            .flatten()
            .zip(with_batch.logits.iter().flatten())
        {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn wrong_fixed_stats_count_is_typed_error() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let err = infer(
            &qnn,
            &toy_batch(),
            &InferenceBackend::NoiseFree,
            &InferenceOptions {
                normalize: NormMode::FixedStats(vec![]),
                quantize: None,
                process_last: false,
            },
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            InferError::StatsMismatch {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn shots_add_sampling_noise() {
        let cfg = QnnConfig::standard(16, 4, 1, 2);
        let qnn = Qnn::for_device(cfg, &presets::santiago(), 5).unwrap();
        let mut dep = qnn.deploy(&presets::santiago(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let batch = toy_batch();
        let exact = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        dep.shots = Some(256);
        let sampled = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let m = crate::metrics::mse(&exact.block_outputs[0], &sampled.block_outputs[0]);
        assert!(m > 0.0);
        assert!(m < 0.05, "256 shots should still be close: {m}");
    }

    #[test]
    fn pauli_model_backend_contracts_like_hardware() {
        let cfg = QnnConfig::standard(16, 4, 1, 2);
        let qnn = Qnn::for_device(cfg, &presets::yorktown(), 6).unwrap();
        let model = presets::yorktown();
        let mut rng = StdRng::seed_from_u64(4);
        let batch = toy_batch();
        let clean = infer(
            &qnn,
            &batch,
            &InferenceBackend::NoiseFree,
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let pauli = infer(
            &qnn,
            &batch,
            &InferenceBackend::PauliModel {
                model: &model,
                factor: 1.0,
                n_avg: 16,
            },
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        // Mean |z| shrinks under the Pauli model.
        let mean_abs = |m: &Vec<Vec<f64>>| -> f64 {
            m.iter().flatten().map(|v| v.abs()).sum::<f64>() / (m.len() * m[0].len()) as f64
        };
        assert!(mean_abs(&pauli.block_outputs[0]) < mean_abs(&clean.block_outputs[0]) + 1e-9);
    }

    #[test]
    fn resilient_fault_free_matches_hardware_backend() {
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::for_device(cfg, &presets::santiago(), 7).unwrap();
        let dep = qnn.deploy(&presets::santiago(), 2).unwrap();
        let res = qnn
            .deploy_resilient(&presets::santiago(), 2, RetryPolicy::default(), None, 0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let batch = toy_batch();
        let hw = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let rs = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&res),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        // Exact (infinite-shot) expectations are deterministic, so the two
        // deployment paths agree bit-for-bit.
        for (a, b) in hw
            .block_outputs
            .iter()
            .flatten()
            .flatten()
            .zip(rs.block_outputs.iter().flatten().flatten())
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let report = rs.report.expect("resilient run carries a report");
        assert_eq!(report.jobs, report.attempts);
        assert_eq!(report.retries, 0);
        assert!(!report.degraded);
    }

    #[test]
    fn batch_fault_free_matches_hardware_backend() {
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::for_device(cfg, &presets::santiago(), 7).unwrap();
        let dep = qnn.deploy(&presets::santiago(), 2).unwrap();
        let pooled = qnn
            .deploy_batch(&presets::santiago(), 2, RetryPolicy::default(), None, 4, 0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let batch = toy_batch();
        let hw = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&dep),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        let pb = infer(
            &qnn,
            &batch,
            &InferenceBackend::Deployed(&pooled),
            &InferenceOptions::baseline(),
            &mut rng,
        )
        .unwrap();
        // Exact expectations are deterministic, so the pooled path agrees
        // with the direct emulator bit-for-bit.
        for (a, b) in hw
            .block_outputs
            .iter()
            .flatten()
            .flatten()
            .zip(pb.block_outputs.iter().flatten().flatten())
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let report = pb.report.expect("batch run carries a report");
        assert_eq!(report.jobs, 2 * batch.len());
        assert_eq!(report.retries, 0);
        assert!(!report.degraded);
    }

    #[test]
    fn batch_inference_is_worker_count_invariant_under_faults() {
        let cfg = QnnConfig::standard(16, 4, 2, 2);
        let qnn = Qnn::for_device(cfg, &presets::yorktown(), 9).unwrap();
        let batch = toy_batch();
        let run = |workers: usize| {
            let pooled = qnn
                .deploy_batch(
                    &presets::yorktown(),
                    2,
                    RetryPolicy::default(),
                    Some(FaultSpec::transient(0.3, 11)),
                    workers,
                    42,
                )
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            let r = infer(
                &qnn,
                &batch,
                &InferenceBackend::Deployed(&pooled),
                &InferenceOptions::default(),
                &mut rng,
            )
            .unwrap();
            (r.logits, r.block_outputs, r.report)
        };
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial.0, pooled.0);
        assert_eq!(serial.1, pooled.1);
        assert_eq!(serial.2, pooled.2);
        let report = serial.2.expect("report present");
        assert!(report.retries > 0, "30% transient faults should retry");
    }

    /// The simulated backends run each block's batch in one shared
    /// forward; their raw outcomes and the RNG's final state must equal
    /// a serial loop of one `eval_block` per row and repetition, for any
    /// worker count.
    #[test]
    fn simulated_backends_match_the_serial_row_loop() {
        let device = presets::santiago();
        let qnn = Qnn::for_device(QnnConfig::standard(16, 4, 2, 2), &device, 8).unwrap();
        let batch = toy_batch();
        let pauli = |n_avg| InferenceBackend::PauliModel {
            model: &device,
            factor: 1.0,
            n_avg,
        };
        let gates = NoiseSource::GateInsertion {
            model: &device,
            factor: 1.0,
        };
        let backends = [
            (InferenceBackend::NoiseFree, NoiseSource::None, None, 1),
            (pauli(1), gates, Some(&device), 1),
            (pauli(3), gates, Some(&device), 3),
        ];
        for (seed, (backend, source, readout, n_avg)) in backends.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut want: Vec<Vec<Vec<f64>>> = Vec::new();
            for bi in 0..2 {
                let rows = want.last().unwrap_or(&batch);
                let raw = rows
                    .iter()
                    .map(|row| {
                        let mut acc = vec![0.0; 4];
                        for _ in 0..*n_avg {
                            let out = qnn.eval_block(bi, row, source, *readout, false, &mut rng);
                            for (a, o) in acc.iter_mut().zip(&out.outputs) {
                                *a += o;
                            }
                        }
                        acc.into_iter().map(|a| a / *n_avg as f64).collect()
                    })
                    .collect();
                want.push(raw);
            }
            let after = rng.next_u64();
            for workers in [1, 2, 3, 7] {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let opts = InferenceOptions::baseline();
                let got = infer_on(&qnn, &batch, backend, &opts, &mut rng, workers).unwrap();
                let bits = |m: &[Vec<Vec<f64>>]| -> Vec<u64> {
                    m.iter().flatten().flatten().map(|v| v.to_bits()).collect()
                };
                let what = format!("n_avg {n_avg}, {workers} workers");
                assert_eq!(bits(&got.block_outputs), bits(&want), "{what}");
                assert_eq!(rng.next_u64(), after, "{what}: RNG state");
            }
        }
    }
}
