//! # qnat-core — QuantumNAT: noise-aware training for robust QNNs
//!
//! The paper's primary contribution: a three-stage pipeline that makes
//! quantum neural networks robust to realistic quantum noise.
//!
//! 1. **Post-measurement normalization** ([`normalize`]) — per-qubit batch
//!    normalization of measurement outcomes, cancelling the `γ·y + β`
//!    linear noise map of Theorem 3.1.
//! 2. **Noise injection** ([`model::NoiseSource`]) — error-gate insertion
//!    sampled from real device noise models into the basis-compiled
//!    circuit during training, plus readout-error emulation (alternatives:
//!    outcome / rotation-angle Gaussian perturbation, Fig. 7).
//! 3. **Post-measurement quantization** ([`forward::QuantizeSpec`]) —
//!    clipping + uniform quantization of outcomes with a straight-through
//!    estimator and a quadratic centroid penalty.
//!
//! [`model::Qnn`] implements the multi-block architecture of Fig. 2;
//! [`mod@train`] the Adam/warmup-cosine training loop; [`mod@infer`] the
//! noise-free, Pauli-model and hardware-emulator inference pipelines;
//! [`executor`] resilient execution (retry/backoff and graceful
//! degradation to the noise-model simulator); [`batch`] worker-pool
//! parallel job submission over per-job resilient executors; [`health`]
//! fleet-wide circuit breaking, half-open recovery probes and deadline
//! budgets over the batch pool; [`mod@time`] the virtual/real clocks the
//! retry machinery runs on; [`mitigate`] zero-noise extrapolation
//! (Table 4).
//!
//! ## Example
//!
//! ```
//! use qnat_core::model::{Qnn, QnnConfig};
//! use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
//! use rand::SeedableRng;
//!
//! let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 0);
//! let batch = vec![vec![0.4; 16], vec![0.6; 16]];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let out = infer(&qnn, &batch, &InferenceBackend::NoiseFree,
//!                 &InferenceOptions::default(), &mut rng).unwrap();
//! assert_eq!(out.logits.len(), 2);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ansatz;
pub mod batch;
pub mod compile_cache;
pub mod encoder;
pub mod executor;
pub mod forward;
pub mod head;
pub mod health;
pub mod infer;
pub mod metrics;
pub mod mitigate;
pub mod model;
pub mod normalize;
mod pool;
pub mod sweep;
pub mod time;
pub mod train;

pub use ansatz::DesignSpace;
pub use batch::{BatchExecutor, BatchJob, BatchOutcome, JobDeadline};
pub use compile_cache::{CacheStats, PlanCache, PlanKey};
pub use executor::{
    ExecutionReport, ResilientExecutor, RetryPolicy, Sleeper, ThreadSleeper, VirtualSleeper,
};
pub use forward::{PipelineOptions, QuantizeSpec};
pub use health::{
    Admission, BreakerPolicy, BreakerSnapshot, BreakerState, CircuitBreaker, DeadlineBudget,
    DeadlinePolicy, DeadlineSleeper, HealthPolicy, HealthRegistry, JobSignal,
};
pub use infer::{
    infer, BlockPlan, Deployment, InferError, InferenceBackend, InferenceOptions, NormMode,
};
pub use model::{NoiseSource, Qnn, QnnConfig};
pub use train::{train, AdamConfig, TrainOptions};
