//! The served stack the `serve` and `mitigate` workloads drive: the
//! §4.2 block circuits, and `TransportServer` → `ServeEngine` → the
//! Santiago `EmulatorBackend`, optionally behind a timing probe.

use crate::schedule::{sub_seed, Stream};
use crate::trace::Tracer;
use qnat_core::executor::{ResilientExecutor, RetryPolicy};
use qnat_core::model::{Qnn, QnnConfig};
use qnat_data::dataset::{build, Task, TaskConfig};
use qnat_noise::backend::{BackendError, EmulatorBackend, Measurements, QuantumBackend};
use qnat_noise::device::DeviceModel;
use qnat_noise::presets;
use qnat_serve::{ServeConfig, ServeEngine};
use qnat_sim::circuit::Circuit;
use qnat_transport::{TransportConfig, TransportServer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The device every served job runs on.
pub fn device() -> DeviceModel {
    presets::santiago()
}

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The §4.2 block — the standard 16-feature / 4-qubit model's first
/// block (2 U3+CU3 layers), routed for Santiago at transpile level 2 —
/// bound to each MNIST-4 test row.
pub fn block_circuits(seed: u64) -> Vec<Circuit> {
    let data = build(
        Task::Mnist4,
        &TaskConfig {
            n_train: 0,
            n_valid: 0,
            seed: sub_seed(seed, Stream::Data),
            ..TaskConfig::default()
        },
    );
    let qnn = Qnn::new(
        QnnConfig::standard(16, 4, 1, 2),
        sub_seed(seed, Stream::Init),
    );
    let plans = qnn
        .route_plan(&device(), 2)
        .expect("santiago fits the standard model");
    let block = &qnn.blocks()[0];
    data.test
        .iter()
        .map(|s| {
            let mut params = block.encoder.angles(&s.features);
            params.extend_from_slice(qnn.block_params(0));
            plans[0].lowered.bind(&params)
        })
        .collect()
}

/// Density-matrix operations the emulator applies for `circuit`: each
/// gate, plus each Pauli, amplitude- and phase-damping channel it
/// follows the gate with. Mirrors `HardwareEmulator::run`; each
/// operation sweeps all 4ⁿ entries of ρ.
pub fn emulator_ops(circuit: &Circuit, model: &DeviceModel) -> usize {
    circuit
        .gates()
        .iter()
        .map(|g| {
            let pauli = model
                .gate_errors(g)
                .iter()
                .filter(|(_, spec)| spec.total() > 0.0)
                .count();
            let damping: usize = g.qubits[..g.arity()]
                .iter()
                .map(|&q| {
                    usize::from(model.amp_damping(q) > 0.0)
                        + usize::from(model.phase_damping(q) > 0.0)
                })
                .sum();
            1 + pauli + damping
        })
        .sum()
}

/// Which spans the probe files server-side work under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One job per ticket; spans are filed under the ticket.
    Jobs,
    /// Sweeps fan out into sub-runs `k = 0, 1, 2` (scales 1, 3, 5);
    /// spans are filed under the sweep in flight.
    Sweeps,
}

/// Emulator spans of mitigation sub-run `k`.
pub const SCALE_SPANS: [&str; 3] = [
    "noise.emulator_scale1",
    "noise.emulator_scale3",
    "noise.emulator_scale5",
];

/// Server-side timing for the traced run.
#[derive(Debug)]
pub struct Probe {
    /// Where spans go.
    pub tracer: Tracer,
    shape: Shape,
    /// The sweep the client has in flight (closed loop, one client).
    pub sweep: AtomicU64,
    /// Sub-run results by `(sweep, k)`, kept to replay aggregation.
    pub results: Mutex<BTreeMap<(u64, u64), Result<Measurements, BackendError>>>,
}

impl Probe {
    /// A probe for jobs of `shape`.
    pub fn new(shape: Shape) -> Arc<Probe> {
        Arc::new(Probe {
            tracer: Tracer::default(),
            shape,
            sweep: AtomicU64::new(0),
            results: Mutex::new(BTreeMap::new()),
        })
    }
}

/// `EmulatorBackend` with its `execute` timed.
struct TimedBackend {
    inner: EmulatorBackend,
    probe: Arc<Probe>,
    req: u64,
    job: u64,
}

impl QuantumBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn validate(&self, circuit: &Circuit) -> Result<(), BackendError> {
        self.inner.validate(circuit)
    }

    fn execute(
        &mut self,
        circuit: &Circuit,
        shots: Option<usize>,
    ) -> Result<Measurements, BackendError> {
        let start = Instant::now();
        let result = self.inner.execute(circuit, shots);
        let end = Instant::now();
        let name = match self.probe.shape {
            Shape::Jobs => "noise.emulator",
            Shape::Sweeps => SCALE_SPANS[(self.job as usize).min(SCALE_SPANS.len() - 1)],
        };
        self.probe
            .tracer
            .record(name, self.req, "serve.factory", start, end);
        if self.probe.shape == Shape::Sweeps {
            self.probe
                .results
                .lock()
                .expect("result sink poisoned")
                .insert((self.req, self.job), result.clone());
        }
        result
    }

    fn apply_drift(&mut self, gate_scale: f64, readout_scale: f64) {
        self.inner.apply_drift(gate_scale, readout_scale);
    }
}

/// Starts the engine (one worker per core) and the HTTP front door on
/// an ephemeral loopback port. With a probe, every executor the engine
/// builds times its backend's `execute`, and the factory times its own
/// call.
pub fn start_server(seed: u64, probe: Option<Arc<Probe>>) -> TransportServer {
    let device = device();
    // The default lanes block producers when 64 jobs are queued, so
    // past saturation the backlog waits in the generator, not in memory,
    // and no job is refused.
    let config = ServeConfig {
        workers: nproc(),
        seed,
        ..ServeConfig::default()
    };
    let engine = match probe {
        None => ServeEngine::new(config, move |_job, seed| {
            Ok(ResilientExecutor::new(
                Box::new(EmulatorBackend::new(&device, seed)?),
                RetryPolicy::default(),
            ))
        }),
        Some(probe) => ServeEngine::new(config, move |job, seed| {
            let start = Instant::now();
            let req = match probe.shape {
                Shape::Jobs => job,
                Shape::Sweeps => probe.sweep.load(Ordering::SeqCst),
            };
            let backend = TimedBackend {
                inner: EmulatorBackend::new(&device, seed)?,
                probe: Arc::clone(&probe),
                req,
                job,
            };
            let executor = ResilientExecutor::new(Box::new(backend), RetryPolicy::default());
            probe
                .tracer
                .record("serve.factory", req, "request", start, Instant::now());
            Ok(executor)
        }),
    };
    TransportServer::bind(
        "127.0.0.1:0",
        TransportConfig {
            // One keep-alive connection per client thread, plus spares.
            http_workers: nproc() + 2,
            request_deadline_ms: 120_000,
            ..TransportConfig::default()
        },
        engine,
    )
    .expect("bind an ephemeral loopback port")
}
