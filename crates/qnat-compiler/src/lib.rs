//! # qnat-compiler — transpiler substrate for QuantumNAT
//!
//! Compiles QNN circuits to the IBMQ hardware basis `{RZ, SX, X, CX}` the
//! way the paper requires before error-gate insertion and deployment:
//! Euler/McKay single-qubit lowering ([`euler`]), two-qubit rewriting
//! ([`decompose`]), SWAP routing over real coupling maps and noise-adaptive
//! layout ([`mapping`]), peephole cleanup ([`optimize`]) and the end-to-end
//! pipeline with Qiskit-style optimization levels 0–3 ([`mod@transpile`]).
//! [`symbolic`] lowers a QNN block's template once, keeping each compiled
//! angle as an affine map of the logical parameters, so every sample of
//! training and inference only binds angles.
//! The zero-noise-extrapolation workload adds [`folding`]: global and
//! per-gate `G → G·(G†·G)^k` folding to odd noise scales, unitary-identical
//! on the noise-free simulator.
//!
//! ## Example
//!
//! ```
//! use qnat_compiler::transpile::{transpile, TranspileOptions};
//! use qnat_noise::presets;
//! use qnat_sim::{circuit::Circuit, gate::Gate};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::ry(0, 0.4));
//! c.push(Gate::cu3(0, 1, 0.3, 0.1, -0.2));
//! let t = transpile(&c, &presets::santiago(), TranspileOptions::default())?;
//! assert!(t.circuit.len() > 0);
//! # Ok::<(), qnat_noise::device::InvalidDeviceError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod calibration;
pub mod decompose;
pub mod euler;
pub mod folding;
pub mod mapping;
pub mod optimize;
pub mod symbolic;
pub mod transpile;
pub mod unitary;

pub use calibration::{calibrated_view, quantize_estimate};
pub use folding::{fold_circuit, FoldError, FoldStrategy};
pub use transpile::{transpile, Transpiled, TranspileOptions};
