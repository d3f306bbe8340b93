//! Shared experiment harness: the Table-1 four-arm protocol and common
//! reduced-scale configuration.
//!
//! Every experiment binary builds on the same primitives: train a QNN
//! variant (one of the four ablation arms) against a device noise model,
//! then evaluate it on the emulated hardware. Experiments run at reduced
//! scale (smaller synthetic datasets, fewer epochs than the paper's 200)
//! so the full suite completes in minutes; EXPERIMENTS.md records how the
//! reduced numbers compare with the paper's.

use qnat_core::ansatz::DesignSpace;
use qnat_core::executor::{ExecutionReport, RetryPolicy};
use qnat_core::forward::{PipelineOptions, QuantizeSpec};
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions, NormMode};
use qnat_core::model::{NoiseSource, Qnn, QnnConfig};
use qnat_core::train::{train, AdamConfig, TrainOptions, TrainReport};
use qnat_data::dataset::{build, Dataset, Task, TaskConfig};
use qnat_noise::device::DeviceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four ablation arms of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Noise-unaware training, raw deployment.
    Baseline,
    /// + post-measurement normalization.
    Norm,
    /// + noise injection (gate insertion + readout emulation).
    NormInject,
    /// + post-measurement quantization (the full QuantumNAT).
    Full,
}

impl Arm {
    /// All arms in ablation order.
    pub fn all() -> [Arm; 4] {
        [Arm::Baseline, Arm::Norm, Arm::NormInject, Arm::Full]
    }

    /// Row label as in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            Arm::Baseline => "Baseline",
            Arm::Norm => "+ Post Norm.",
            Arm::NormInject => "+ Gate Insert.",
            Arm::Full => "+ Post Quant.",
        }
    }
}

/// Architecture shorthand: `B` blocks × `L` layers of a design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchSpec {
    /// Number of blocks.
    pub blocks: usize,
    /// Layers per block.
    pub layers: usize,
    /// Design space.
    pub design: DesignSpace,
}

impl ArchSpec {
    /// `B × L` of the default U3+CU3 space.
    pub fn u3cu3(blocks: usize, layers: usize) -> ArchSpec {
        ArchSpec {
            blocks,
            layers,
            design: DesignSpace::U3Cu3,
        }
    }

    /// Short display label, e.g. `2B×12L`.
    pub fn label(&self) -> String {
        format!("{}B×{}L", self.blocks, self.layers)
    }
}

/// Reduced-scale run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Training epochs (paper: 200).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr_max: f64,
    /// Dataset sizes.
    pub data: TaskConfig,
    /// Noise factor `T` for gate insertion.
    pub t_factor: f64,
    /// Quantization settings for the `Full` arm.
    pub quant: QuantizeSpec,
    /// Quantization penalty weight λ.
    pub quant_penalty: f64,
    /// Finite shots at deployment (paper: 8192; `None` = exact).
    pub shots: Option<usize>,
    /// Seed for all RNGs.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            epochs: 100,
            batch_size: 48,
            lr_max: 1.5e-2,
            data: TaskConfig {
                n_train: 192,
                n_valid: 64,
                n_test: 96,
                seed: 11,
            },
            t_factor: 0.5,
            quant: QuantizeSpec::levels(6),
            quant_penalty: 0.05,
            shots: None,
            seed: 7,
        }
    }
}

impl RunConfig {
    /// An even smaller configuration for the 10-qubit (Melbourne) cells and
    /// smoke tests.
    pub fn tiny() -> Self {
        RunConfig {
            epochs: 40,
            batch_size: 32,
            data: TaskConfig {
                n_train: 64,
                n_valid: 32,
                n_test: 32,
                seed: 11,
            },
            ..RunConfig::default()
        }
    }
}

/// Builds the QNN config for a task and architecture.
pub fn qnn_config(task: Task, arch: ArchSpec) -> QnnConfig {
    QnnConfig::standard(
        task.n_features(),
        task.n_classes(),
        arch.blocks,
        arch.layers,
    )
    .with_design(arch.design)
}

/// Trains one arm of the ablation against a device; returns the model and
/// its training report.
pub fn train_arm(
    task: Task,
    arch: ArchSpec,
    device: &DeviceModel,
    arm: Arm,
    cfg: &RunConfig,
) -> (Qnn, Dataset, TrainReport) {
    let dataset = build(task, &cfg.data);
    let mut qnn = Qnn::for_device(qnn_config(task, arch), device, cfg.seed)
        .expect("architecture fits the device");
    let pipeline = match arm {
        Arm::Baseline => PipelineOptions::baseline(),
        Arm::Norm => PipelineOptions {
            noise: NoiseSource::None,
            readout: None,
            normalize: true,
            quantize: None,
            quant_penalty: 0.0,
            process_last: false,
        },
        Arm::NormInject => PipelineOptions {
            noise: NoiseSource::GateInsertion {
                model: device,
                factor: cfg.t_factor,
            },
            readout: Some(device),
            normalize: true,
            quantize: None,
            quant_penalty: 0.0,
            process_last: false,
        },
        Arm::Full => PipelineOptions {
            noise: NoiseSource::GateInsertion {
                model: device,
                factor: cfg.t_factor,
            },
            readout: Some(device),
            normalize: true,
            quantize: Some(cfg.quant),
            quant_penalty: cfg.quant_penalty,
            process_last: false,
        },
    };
    let options = TrainOptions {
        adam: AdamConfig {
            lr_max: cfg.lr_max,
            warmup_epochs: (cfg.epochs / 5).max(1),
            total_epochs: cfg.epochs,
            ..AdamConfig::default()
        },
        batch_size: cfg.batch_size,
        pipeline,
        seed: cfg.seed,
    };
    let report = train(&mut qnn, &dataset, &options).expect("validation pass succeeds");
    (qnn, dataset, report)
}

/// Inference options matching an arm's pipeline.
pub fn arm_inference_options(arm: Arm, cfg: &RunConfig) -> InferenceOptions {
    match arm {
        Arm::Baseline => InferenceOptions::baseline(),
        Arm::Norm | Arm::NormInject => InferenceOptions {
            normalize: NormMode::BatchStats,
            quantize: None,
            process_last: false,
        },
        Arm::Full => InferenceOptions {
            normalize: NormMode::BatchStats,
            quantize: Some(cfg.quant),
            process_last: false,
        },
    }
}

/// Evaluates a trained model on the emulated hardware test set.
pub fn eval_on_hardware(
    qnn: &Qnn,
    dataset: &Dataset,
    device: &DeviceModel,
    arm: Arm,
    cfg: &RunConfig,
    opt_level: u8,
) -> f64 {
    let mut dep = qnn.deploy(device, opt_level).expect("deployable");
    dep.shots = cfg.shots;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE7A1);
    let features: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let result = infer(
        qnn,
        &features,
        &InferenceBackend::Deployed(&dep),
        &arm_inference_options(arm, cfg),
        &mut rng,
    )
    .expect("hardware inference succeeds");
    result.accuracy(&labels)
}

/// Evaluates a trained model on the emulated hardware test set through the
/// pooled batch deployment path: every block's test batch fans across
/// `workers` threads, each job behind its own resilient executor. The
/// accuracy is bitwise identical to any other worker count; the merged
/// [`ExecutionReport`] is returned alongside it.
pub fn eval_on_hardware_batched(
    qnn: &Qnn,
    dataset: &Dataset,
    device: &DeviceModel,
    arm: Arm,
    cfg: &RunConfig,
    opt_level: u8,
    workers: usize,
) -> (f64, ExecutionReport) {
    let mut dep = qnn
        .deploy_batch(
            device,
            opt_level,
            RetryPolicy::default(),
            None,
            workers,
            cfg.seed ^ 0xBA7C,
        )
        .expect("deployable");
    dep.shots = cfg.shots;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE7A1);
    let features: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let result = infer(
        qnn,
        &features,
        &InferenceBackend::Deployed(&dep),
        &arm_inference_options(arm, cfg),
        &mut rng,
    )
    .expect("batched hardware inference succeeds");
    let report = result.report.clone().unwrap_or_default();
    (result.accuracy(&labels), report)
}

/// Evaluates a trained model noise-free (the "simulation" reference).
pub fn eval_noise_free(qnn: &Qnn, dataset: &Dataset, arm: Arm, cfg: &RunConfig) -> f64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x51A7);
    let features: Vec<Vec<f64>> = dataset.test.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<usize> = dataset.test.iter().map(|s| s.label).collect();
    let result = infer(
        qnn,
        &features,
        &InferenceBackend::NoiseFree,
        &arm_inference_options(arm, cfg),
        &mut rng,
    )
    .expect("noise-free inference succeeds");
    result.accuracy(&labels)
}

/// The full four-arm ladder of one (task, architecture, device) cell.
pub fn run_ladder(
    task: Task,
    arch: ArchSpec,
    device: &DeviceModel,
    cfg: &RunConfig,
) -> Vec<(Arm, f64)> {
    Arm::all()
        .into_iter()
        .map(|arm| {
            let (qnn, dataset, _) = train_arm(task, arch, device, arm, cfg);
            let acc = eval_on_hardware(&qnn, &dataset, device, arm, cfg, 2);
            (arm, acc)
        })
        .collect()
}

/// Markdown-ish table printer used by all experiment binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}
