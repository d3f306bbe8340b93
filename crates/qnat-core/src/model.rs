//! The multi-block QNN model.
//!
//! A [`Qnn`] is the paper's Figure-2 architecture: `n_blocks` blocks, each
//! an encoder (classical values → rotation angles), `layers_per_block`
//! trainable layers from a [`crate::ansatz::DesignSpace`], and
//! per-qubit Pauli-Z measurement. Measurement outcomes of one block are
//! (normalized, quantized and) re-uploaded by the next block's encoder; the
//! last block's raw outcomes feed the classification head.
//!
//! The model keeps, per block, both the *logical* circuit template and a
//! routed + basis-compiled symbolic lowering so that (a) noise injection
//! happens after compilation as the paper requires, and (b) gradients flow
//! back to logical parameters through the affine angle map.

use crate::ansatz::DesignSpace;
use crate::encoder::Encoder;
use crate::forward::block_forward;
use qnat_compiler::mapping::Layout;
use qnat_compiler::symbolic::{lower_symbolic, SymbolicLowered};
use qnat_compiler::transpile::route_and_window;
use qnat_noise::device::{DeviceModel, InvalidDeviceError};
use qnat_noise::inject::{splice, ErrorPlan, ErrorSampler};
use qnat_noise::readout::ReadoutError;
use qnat_sim::adjoint::{adjoint_gradients, BatchSample};
use qnat_sim::circuit::Circuit;
use rand::Rng;
use std::sync::Arc;

/// Architecture hyper-parameters of a QNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QnnConfig {
    /// Qubits per block (4 for 2/4-class, 10 for 10-class).
    pub n_qubits: usize,
    /// Number of blocks (intermediate measurements between them).
    pub n_blocks: usize,
    /// Trainable layers per block.
    pub layers_per_block: usize,
    /// Design space of the trainable layers.
    pub design: DesignSpace,
    /// Input feature count (16, 36, 10, or ≤ 12 toy features).
    pub n_features: usize,
    /// Output classes.
    pub n_classes: usize,
}

impl QnnConfig {
    /// The paper's default architecture for a task shape: U3+CU3 design,
    /// qubit count implied by the feature count.
    pub fn standard(
        n_features: usize,
        n_classes: usize,
        n_blocks: usize,
        layers_per_block: usize,
    ) -> QnnConfig {
        let n_qubits = Encoder::for_features(n_features).n_qubits();
        QnnConfig {
            n_qubits,
            n_blocks,
            layers_per_block,
            design: DesignSpace::U3Cu3,
            n_features,
            n_classes,
        }
    }

    /// Same as [`QnnConfig::standard`] with an explicit design space.
    pub fn with_design(mut self, design: DesignSpace) -> QnnConfig {
        self.design = design;
        self
    }
}

/// One block: templates, lowering and observable map.
#[derive(Debug, Clone)]
pub struct Block {
    /// The block's encoder.
    pub encoder: Encoder,
    /// Logical circuit template (encoder gates first, then ansatz).
    pub logical: Circuit,
    /// Routed + basis-lowered template with affine angle tracking.
    pub lowered: SymbolicLowered,
    /// Observable (window-local) qubit holding each logical qubit after
    /// routing.
    pub obs: Vec<usize>,
    /// Routing window: the physical qubit behind each window-local qubit
    /// of `lowered` (`0..n_qubits` when built without a device). Noise
    /// models are indexed through it.
    pub window: Vec<usize>,
    /// Number of encoder angle slots.
    pub n_enc: usize,
    /// Number of trainable parameters in this block.
    pub n_train: usize,
}

impl Block {
    /// The first slot of `lowered` whose angle reads a trainable
    /// parameter (the slot count when none does). The slots before it
    /// are encoder angles and constants, so a gradient that needs no
    /// input component can stop its sweep there.
    pub fn first_trainable_slot(&self) -> usize {
        let angles = &self.lowered.angles;
        angles
            .iter()
            .position(|a| a.terms.iter().any(|&(j, _)| j >= self.n_enc))
            .unwrap_or(angles.len())
    }
}

/// A trainable multi-block QNN.
#[derive(Debug, Clone)]
pub struct Qnn {
    config: QnnConfig,
    /// Shared, so block workers can reach a block without borrowing the
    /// model (see [`crate::forward`]).
    blocks: Arc<[Block]>,
    params: Vec<f64>,
    offsets: Vec<usize>,
}

/// Noise sources for noise-injected training (§3.2 and the Fig. 7
/// ablation).
#[derive(Debug, Clone, Copy)]
pub enum NoiseSource<'a> {
    /// Noise-free training (the baseline).
    None,
    /// Error-gate insertion from a device noise model scaled by the noise
    /// factor `T` — the paper's main method.
    GateInsertion {
        /// Calibration noise model to sample Pauli errors from.
        model: &'a DeviceModel,
        /// Noise factor `T` (typically `0.1..=1.5`).
        factor: f64,
    },
    /// Gaussian perturbation of all rotation angles.
    AnglePerturb {
        /// Standard deviation of the angle noise.
        sigma: f64,
    },
    /// Gaussian perturbation of (normalized) measurement outcomes,
    /// `N(mu, sigma²)` benchmarked from validation-set error profiling.
    OutcomePerturb {
        /// Mean of the outcome error distribution.
        mu: f64,
        /// Standard deviation of the outcome error distribution.
        sigma: f64,
    },
}

/// One block's forward evaluation with Jacobians.
#[derive(Debug, Clone)]
pub struct BlockEval {
    /// Per-qubit Z expectations (logical order).
    pub outputs: Vec<f64>,
    /// `jac_inputs[q][k]` = d `outputs[q]` / d `inputs[k]`.
    pub jac_inputs: Vec<Vec<f64>>,
    /// `jac_params[q][j]` = d `outputs[q]` / d `params[j]` (block-local).
    pub jac_params: Vec<Vec<f64>>,
}

/// One sample's random draws for a block evaluation, made by
/// [`Qnn::prepare`]. Holds no circuit: the block's template is bound and
/// its error gates run where the sample is evaluated.
#[derive(Debug, Clone)]
pub struct PreparedSample {
    /// Compiled angles, one per parameter slot of the block's lowered
    /// template: the encoder angles and trainable parameters, with any
    /// angle noise already added, mapped through the lowering.
    pub angles: Vec<f64>,
    /// Error gates to run after their template gates (empty unless the
    /// noise source is gate insertion).
    pub plan: ErrorPlan,
}

impl PreparedSample {
    /// The sample as the batch adjoint engine takes it.
    pub fn batch_sample(&self) -> BatchSample<'_> {
        BatchSample {
            params: &self.angles,
            events: self.plan.entries(),
        }
    }
}

/// The caller's noise sources seen from one block, made once per block
/// evaluation or training step by [`Qnn::block_noise`]. Device models
/// are mapped through the block's routing window, so they are indexed by
/// the window-local qubits of its lowered circuit.
#[derive(Debug, Clone)]
pub struct BlockNoise {
    /// Gate insertion: the block template's error events, compiled
    /// against the sub-device over the window and the noise factor.
    gates: Option<ErrorSampler>,
    /// Angle perturbation: the standard deviation.
    angle_sigma: Option<f64>,
    /// Readout error of each logical qubit's measured physical qubit.
    readout: Option<Vec<ReadoutError>>,
}

impl BlockNoise {
    /// The readout map's slope γ per logical qubit: the factor it
    /// applies to an expectation's gradient (`1` without readout noise).
    pub fn readout_slopes(&self, n_qubits: usize) -> Vec<f64> {
        match &self.readout {
            Some(ro) => ro
                .iter()
                .map(|r| {
                    let m = r.matrix();
                    m[0][0] + m[1][1] - 1.0
                })
                .collect(),
            None => vec![1.0; n_qubits],
        }
    }

    /// Passes each expectation through its qubit's readout map.
    pub fn apply_readout(&self, outputs: &mut [f64]) {
        if let Some(ro) = &self.readout {
            for (out, r) in outputs.iter_mut().zip(ro) {
                *out = r.apply_to_expectation(*out);
            }
        }
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0f64);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Qnn {
    /// Builds a QNN without routing (logical = physical). Use
    /// [`Qnn::for_device`] when training with gate-insertion noise so that
    /// the compiled circuit matches the device's coupling map.
    pub fn new(config: QnnConfig, seed: u64) -> Qnn {
        Self::build(config, None, seed).expect("device-free construction cannot fail")
    }

    /// Builds a QNN routed for a device: each block's circuit is SWAP-routed
    /// onto the coupling map and lowered to basis gates, exactly what runs
    /// on (emulated) hardware.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] if the device has fewer qubits than
    /// the model needs.
    pub fn for_device(
        config: QnnConfig,
        model: &DeviceModel,
        seed: u64,
    ) -> Result<Qnn, InvalidDeviceError> {
        Self::build(config, Some(model), seed)
    }

    fn build(
        config: QnnConfig,
        model: Option<&DeviceModel>,
        seed: u64,
    ) -> Result<Qnn, InvalidDeviceError> {
        assert!(config.n_blocks >= 1, "need at least one block");
        assert!(
            config.n_qubits >= config.n_classes.min(4) / 2,
            "too few qubits"
        );
        let mut blocks = Vec::with_capacity(config.n_blocks);
        let mut offsets = Vec::with_capacity(config.n_blocks);
        let mut total_params = 0usize;
        for b in 0..config.n_blocks {
            let encoder = if b == 0 {
                Encoder::for_features(config.n_features)
            } else {
                Encoder::reupload(config.n_qubits)
            };
            assert_eq!(
                encoder.n_qubits(),
                config.n_qubits,
                "encoder qubit count must match the architecture"
            );
            let mut logical = Circuit::new(config.n_qubits);
            encoder.append_template(&mut logical);
            let n_enc = logical.n_params();
            for l in 0..config.layers_per_block {
                config.design.append_layer(&mut logical, l, config.n_qubits);
            }
            let n_train = logical.n_params() - n_enc;
            let (lowered, obs, window) = match model {
                Some(m) => {
                    let (windowed, window, layout, _view) =
                        route_and_window(&logical, m, &Layout::trivial(config.n_qubits))?;
                    (lower_symbolic(&windowed), layout, window)
                }
                None => (
                    lower_symbolic(&logical),
                    (0..config.n_qubits).collect(),
                    (0..config.n_qubits).collect(),
                ),
            };
            offsets.push(total_params);
            total_params += n_train;
            blocks.push(Block {
                encoder,
                logical,
                lowered,
                obs,
                window,
                n_enc,
                n_train,
            });
        }
        // Small random initialization (uniform in ±0.3 rad).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = (0..total_params)
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        Ok(Qnn {
            config,
            blocks: blocks.into(),
            params,
            offsets,
        })
    }

    /// The architecture.
    pub fn config(&self) -> &QnnConfig {
        &self.config
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The blocks, shared.
    pub(crate) fn shared_blocks(&self) -> Arc<[Block]> {
        Arc::clone(&self.blocks)
    }

    /// All trainable parameters, blocks concatenated.
    pub fn parameters(&self) -> &[f64] {
        &self.params
    }

    /// Overwrites all trainable parameters.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.params.len(), "parameter count");
        self.params.copy_from_slice(params);
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// This block's slice of the global parameter vector.
    pub fn block_params(&self, block: usize) -> &[f64] {
        let start = self.offsets[block];
        &self.params[start..start + self.blocks[block].n_train]
    }

    /// Offset of a block's parameters in the global vector.
    pub fn block_offset(&self, block: usize) -> usize {
        self.offsets[block]
    }

    /// Evaluates one block on one sample, optionally with injected noise
    /// and gradients: [`Qnn::prepare`], then the adjoint engine's
    /// batch-of-one case, or without gradients the batch of one of the
    /// forward run that training and inference share.
    ///
    /// `inputs` are features (block 0) or the previous block's processed
    /// outcomes. When `with_grads` is false the Jacobian vectors are empty.
    ///
    /// # Panics
    ///
    /// Panics if a device model does not cover the block's routing window.
    pub fn eval_block<R: Rng>(
        &self,
        block_idx: usize,
        inputs: &[f64],
        noise: &NoiseSource<'_>,
        readout: Option<&DeviceModel>,
        with_grads: bool,
        rng: &mut R,
    ) -> BlockEval {
        let noise = self.block_noise(block_idx, noise, readout);
        let prepared = self.prepare(block_idx, inputs, &noise, rng);
        if !with_grads {
            let run = block_forward(self, block_idx, vec![prepared], &noise, 1);
            return BlockEval {
                outputs: run.outputs,
                jac_inputs: Vec::new(),
                jac_params: Vec::new(),
            };
        }

        let block = &self.blocks[block_idx];
        let mut run = block.lowered.circuit.clone();
        run.set_parameters(&prepared.angles);
        let run = splice(&run, &prepared.plan);
        let grad = adjoint_gradients(&run, &block.obs);
        let mut outputs = grad.expectations;
        noise.apply_readout(&mut outputs);
        let gammas = noise.readout_slopes(outputs.len());
        let scale = block.encoder.scale();
        let (mut jac_inputs, mut jac_params) = (Vec::new(), Vec::new());
        for (g, gamma) in grad.gradients.iter().zip(gammas) {
            let chained = block.lowered.chain_gradient(g);
            let (enc, train) = chained.split_at(block.n_enc);
            jac_inputs.push(enc.iter().map(|&c| c * scale * gamma).collect());
            jac_params.push(train.iter().map(|&c| c * gamma).collect());
        }
        BlockEval {
            outputs,
            jac_inputs,
            jac_params,
        }
    }

    /// The caller's noise sources seen from block `block_idx`: every
    /// device model is replaced by its sub-device over the block's
    /// routing window.
    ///
    /// # Panics
    ///
    /// Panics if a device model does not cover the window.
    pub fn block_noise(
        &self,
        block_idx: usize,
        noise: &NoiseSource<'_>,
        readout: Option<&DeviceModel>,
    ) -> BlockNoise {
        let block = &self.blocks[block_idx];
        let view = |model: &DeviceModel| {
            model.subdevice(&block.window).unwrap_or_else(|e| {
                panic!(
                    "device {} does not cover block {block_idx}'s routing window {:?}: {e}",
                    model.name(),
                    block.window
                )
            })
        };
        BlockNoise {
            gates: match noise {
                NoiseSource::GateInsertion { model, factor } => Some(ErrorSampler::new(
                    &block.lowered.circuit,
                    &view(model),
                    *factor,
                )),
                _ => None,
            },
            angle_sigma: match noise {
                NoiseSource::AnglePerturb { sigma } => Some(*sigma),
                _ => None,
            },
            readout: readout.map(|model| {
                let view = view(model);
                block.obs.iter().map(|&q| view.readout_error(q)).collect()
            }),
        }
    }

    /// Makes every random draw of one block evaluation, in the order the
    /// evaluation consumes them: angle noise on the logical parameters,
    /// then the error-gate plan, sampled on the block's symbolic template
    /// (sampling reads gate kinds and qubits only, which binding never
    /// changes). `noise` comes from [`Qnn::block_noise`] for the same
    /// block.
    pub fn prepare<R: Rng>(
        &self,
        block_idx: usize,
        inputs: &[f64],
        noise: &BlockNoise,
        rng: &mut R,
    ) -> PreparedSample {
        let block = &self.blocks[block_idx];
        let mut params = block.encoder.angles(inputs);
        params.extend_from_slice(self.block_params(block_idx));
        if let Some(sigma) = noise.angle_sigma {
            for p in &mut params {
                *p += sigma * gaussian(rng);
            }
        }
        let plan = match &noise.gates {
            Some(sampler) => sampler.sample(rng),
            None => ErrorPlan::default(),
        };
        PreparedSample {
            angles: block.lowered.bind_angles(&params),
            plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_noise::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_config() -> QnnConfig {
        QnnConfig::standard(16, 4, 2, 2)
    }

    #[test]
    fn construction_counts() {
        let q = Qnn::new(toy_config(), 1);
        // 2 blocks × (U3 layer 12 + CU3 layer 12) = 48 params.
        assert_eq!(q.n_params(), 48);
        assert_eq!(q.blocks().len(), 2);
        assert_eq!(q.blocks()[0].n_enc, 16);
        assert_eq!(q.blocks()[1].n_enc, 4);
        assert_eq!(q.block_offset(1), 24);
    }

    #[test]
    fn eval_block_outputs_are_valid_expectations() {
        let q = Qnn::new(toy_config(), 2);
        let mut rng = StdRng::seed_from_u64(0);
        let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let ev = q.eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng);
        assert_eq!(ev.outputs.len(), 4);
        assert!(ev.outputs.iter().all(|z| (-1.0..=1.0).contains(z)));
    }

    #[test]
    fn jacobians_match_finite_differences() {
        let q = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 3);
        let mut rng = StdRng::seed_from_u64(0);
        let inputs: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let ev = q.eval_block(0, &inputs, &NoiseSource::None, None, true, &mut rng);
        let eps = 1e-6;
        // Input Jacobian spot-check.
        for k in [0usize, 7, 15] {
            let mut plus = inputs.clone();
            plus[k] += eps;
            let mut minus = inputs.clone();
            minus[k] -= eps;
            let op = q
                .eval_block(0, &plus, &NoiseSource::None, None, false, &mut rng)
                .outputs;
            let om = q
                .eval_block(0, &minus, &NoiseSource::None, None, false, &mut rng)
                .outputs;
            for qb in 0..4 {
                let fd = (op[qb] - om[qb]) / (2.0 * eps);
                assert!(
                    (ev.jac_inputs[qb][k] - fd).abs() < 1e-5,
                    "input {k} qubit {qb}: {} vs {}",
                    ev.jac_inputs[qb][k],
                    fd
                );
            }
        }
        // Parameter Jacobian spot-check.
        let base = q.parameters().to_vec();
        for j in [0usize, 5, 23] {
            let mut qp = q.clone();
            let mut pp = base.clone();
            pp[j] += eps;
            qp.set_parameters(&pp);
            let op = qp
                .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
                .outputs;
            let mut qm = q.clone();
            let mut pm = base.clone();
            pm[j] -= eps;
            qm.set_parameters(&pm);
            let om = qm
                .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
                .outputs;
            for qb in 0..4 {
                let fd = (op[qb] - om[qb]) / (2.0 * eps);
                assert!(
                    (ev.jac_params[qb][j] - fd).abs() < 1e-5,
                    "param {j} qubit {qb}: {} vs {}",
                    ev.jac_params[qb][j],
                    fd
                );
            }
        }
    }

    #[test]
    fn device_routed_model_matches_logical_noise_free() {
        let cfg = toy_config();
        let logical = Qnn::new(cfg, 5);
        let mut routed = Qnn::for_device(cfg, &presets::santiago(), 99).unwrap();
        routed.set_parameters(logical.parameters());
        let mut rng = StdRng::seed_from_u64(0);
        let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let a = logical.eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng);
        let b = routed.eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng);
        for q in 0..4 {
            assert!(
                (a.outputs[q] - b.outputs[q]).abs() < 1e-8,
                "qubit {q}: {} vs {}",
                a.outputs[q],
                b.outputs[q]
            );
        }
    }

    #[test]
    fn gate_insertion_perturbs_outputs() {
        let cfg = toy_config();
        let q = Qnn::for_device(cfg, &presets::yorktown(), 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let clean = q
            .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
            .outputs;
        // With a large noise factor, at least one of many injected runs
        // differs from the clean run.
        let model = presets::yorktown();
        let noise = NoiseSource::GateInsertion {
            model: &model,
            factor: 20.0,
        };
        let mut any_diff = false;
        for _ in 0..50 {
            let noisy = q.eval_block(0, &inputs, &noise, None, false, &mut rng);
            if noisy
                .outputs
                .iter()
                .zip(&clean)
                .any(|(a, b)| (a - b).abs() > 1e-6)
            {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "gate insertion never changed the outputs");
    }

    #[test]
    fn readout_injection_contracts_expectations() {
        let cfg = toy_config();
        let q = Qnn::new(cfg, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let inputs: Vec<f64> = (0..16).map(|_| 0.9).collect();
        let clean = q
            .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
            .outputs;
        let model = presets::yorktown();
        let noisy = q
            .eval_block(
                0,
                &inputs,
                &NoiseSource::None,
                Some(&model),
                false,
                &mut rng,
            )
            .outputs;
        for qb in 0..4 {
            assert!(
                noisy[qb].abs() <= clean[qb].abs() + 1e-9,
                "readout should contract |z|"
            );
        }
    }

    /// A device whose routing window is not a prefix: logical qubits 2
    /// and 3 are not coupled, so routing goes through physical qubit 5,
    /// which becomes window-local qubit 4. Physical qubit 4, outside the
    /// window, is the only noisy one; noise must be read through the
    /// window, so the window sees a noiseless device.
    #[test]
    fn noise_models_are_indexed_through_the_routing_window() {
        use qnat_noise::error_spec::PauliErrorSpec;
        let zero = PauliErrorSpec::zero();
        let device = DeviceModel::builder("detour", 6)
            .edge(0, 1, zero)
            .edge(1, 2, zero)
            .edge(2, 5, zero)
            .edge(5, 3, zero)
            .edge(3, 0, zero)
            .edge(5, 4, zero)
            .single_qubit_error(4, PauliErrorSpec::new(0.3, 0.0, 0.0).unwrap())
            .readout(4, ReadoutError::symmetric(0.4).unwrap())
            .build()
            .unwrap();
        let q = Qnn::for_device(QnnConfig::standard(16, 4, 1, 2), &device, 3).unwrap();
        let block = &q.blocks()[0];
        assert_eq!(block.window, vec![0, 1, 2, 3, 5]);
        assert!(
            block.obs.contains(&4),
            "a logical qubit is measured on physical 5"
        );
        let gates = NoiseSource::GateInsertion {
            model: &device,
            factor: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for row in 0..8 {
            let inputs: Vec<f64> = (0..16).map(|i| ((row * 16 + i) as f64).sin()).collect();
            let clean = q.eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng);
            for (noise, readout) in [(&gates, None), (&NoiseSource::None, Some(&device))] {
                let noisy = q.eval_block(0, &inputs, noise, readout, true, &mut rng);
                for (a, b) in noisy.outputs.iter().zip(&clean.outputs) {
                    assert!((a - b).abs() < 1e-12, "row {row}: {a} vs noise-free {b}");
                }
            }
        }
    }

    #[test]
    fn angle_perturbation_changes_outputs() {
        let cfg = toy_config();
        let q = Qnn::new(cfg, 13);
        let mut rng = StdRng::seed_from_u64(3);
        let inputs: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let clean = q
            .eval_block(0, &inputs, &NoiseSource::None, None, false, &mut rng)
            .outputs;
        let noisy = q
            .eval_block(
                0,
                &inputs,
                &NoiseSource::AnglePerturb { sigma: 0.3 },
                None,
                false,
                &mut rng,
            )
            .outputs;
        assert!(clean.iter().zip(&noisy).any(|(a, b)| (a - b).abs() > 1e-6));
    }
}
