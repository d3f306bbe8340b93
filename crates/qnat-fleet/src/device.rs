//! Fleet device descriptors: one entry per emulated QPU the router can
//! send work to.
//!
//! A [`FleetDevice`] couples three things the router needs about a
//! device: its **name** (also the key of its circuit breaker in the
//! shared `HealthRegistry`), its **calibration data** plus optional
//! [`FaultSpec`] (from which the router estimates the *current* drifted
//! error rate when scoring candidates), and its **factory** — the same
//! `(global, seed) -> ResilientExecutor` contract the batch and serving
//! layers use, so any backend stack those layers accept serves in a
//! fleet unchanged.

use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_noise::backend::{BackendError, EmulatorBackend};
use qnat_noise::device::DeviceModel;
use qnat_noise::fault::{FaultSpec, FaultyBackend};
use std::fmt;
use std::sync::Arc;

/// The executor-factory contract every fleet device serves jobs through:
/// `(global job index, per-job seed) -> executor`. Identical to the batch
/// and serving layers' factory, which is what keeps routed execution
/// replayable through [`qnat_core::batch::run_job`].
pub type DeviceFactory = dyn Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync;

/// One routable device: name, noise model (for scoring), optional fault
/// spec (for *drift-aware* scoring), and the executor factory that
/// actually runs jobs.
#[derive(Clone)]
pub struct FleetDevice {
    name: String,
    model: DeviceModel,
    faults: Option<FaultSpec>,
    factory: Arc<DeviceFactory>,
}

impl fmt::Debug for FleetDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetDevice")
            .field("name", &self.name)
            .field("model", &self.model.name())
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl FleetDevice {
    /// A device named after `model`, serving jobs through `factory`.
    ///
    /// The router scores it by the model's *static* calibration until a
    /// fault spec is attached with [`FleetDevice::with_faults`].
    pub fn new<F>(model: DeviceModel, factory: F) -> Self
    where
        F: Fn(u64, u64) -> Result<ResilientExecutor, BackendError> + Send + Sync + 'static,
    {
        FleetDevice {
            name: model.name().to_owned(),
            model,
            faults: None,
            factory: Arc::new(factory),
        }
    }

    /// Declares the drift trajectory this device's error rates follow, so
    /// the router can score it by its *instantaneous* (drifted) error
    /// rate instead of the static calibration. The spec should match what
    /// the factory's backends actually apply — for the
    /// [`FleetDevice::emulated`] constructor it always does.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Overrides the device (and breaker-key) name — needed when two
    /// fleet entries share one preset model.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The standard emulated device: a density-matrix [`EmulatorBackend`]
    /// over the first `n_qubits` of `model` (emulation cost is
    /// exponential, so fleets run presets on a subdevice), decorated with
    /// `faults` positioned at the *global* job index — every per-job
    /// backend samples its slice of one device-wide calibration
    /// trajectory, exactly like the batch pool. Fault rolls are
    /// decorrelated per job by substituting the per-job seed, while
    /// `drift_seed` keeps the trajectory shared.
    ///
    /// # Errors
    ///
    /// [`BackendError::InvalidConfig`] when `model` has fewer than
    /// `n_qubits` qubits, plus whatever the emulator rejects about the
    /// sliced model.
    pub fn emulated(
        model: DeviceModel,
        n_qubits: usize,
        faults: FaultSpec,
        retry: RetryPolicy,
    ) -> Result<Self, BackendError> {
        let physical: Vec<usize> = (0..n_qubits).collect();
        let sliced = model
            .subdevice(&physical)
            .map_err(|e| BackendError::InvalidConfig {
                reason: format!("cannot slice {}: {e}", model.name()),
            })?;
        // Validate the emulator once at fleet-build time, not per job.
        EmulatorBackend::new(&sliced, 0)?;
        let name = model.name().to_owned();
        let backend_model = sliced.clone();
        let factory = move |global: u64, seed: u64| -> Result<ResilientExecutor, BackendError> {
            let spec = FaultSpec { seed, ..faults };
            Ok(ResilientExecutor::new(
                Box::new(FaultyBackend::starting_at(
                    EmulatorBackend::new(&backend_model, seed)?,
                    spec,
                    global,
                )),
                retry.clone(),
            ))
        };
        Ok(FleetDevice {
            name,
            model: sliced,
            faults: Some(faults),
            factory: Arc::new(factory),
        })
    }

    /// The device (and breaker-key) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The calibration model the router scores against.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// The declared drift spec, if any.
    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// The executor factory (shared with every engine/replay that needs
    /// it).
    pub fn factory(&self) -> Arc<DeviceFactory> {
        Arc::clone(&self.factory)
    }

    /// The factory as a plain reference, for direct [`run_job`] replay.
    ///
    /// [`run_job`]: qnat_core::batch::run_job
    pub fn factory_ref(&self) -> &DeviceFactory {
        &*self.factory
    }
}
