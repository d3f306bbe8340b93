//! # qnat-sim — quantum circuit simulation substrate for QuantumNAT
//!
//! A dependency-light quantum simulator built for the QuantumNAT
//! reproduction: statevector simulation with analytic gradients for
//! training, and density-matrix simulation with Kraus noise channels as the
//! "real hardware" stand-in for deployment evaluation.
//!
//! ## Modules
//!
//! * [`math`] — complex arithmetic and small dense matrices.
//! * [`gate`] — the gate library (all QuantumNAT design-space gates plus the
//!   IBMQ basis set).
//! * [`circuit`] — circuits, parameter binding, inversion.
//! * [`statevector`] — pure-state simulation.
//! * [`density`] — mixed-state simulation with Kraus channels.
//! * [`channel`] — Pauli / depolarizing / damping channels.
//! * [`kernels`] — the branch-free gate kernels every simulator shares.
//! * [`measure`] — shot sampling and readout confusion.
//! * [`adjoint`] — the batch engine: [`adjoint::batch_forward`] is the
//!   forward of every simulated QNN block (training and inference),
//!   [`adjoint::batch_vjp`] and [`adjoint::adjoint_gradients`] its
//!   gradients.
//! * [`paramshift`] — parameter-shift gradients (hardware-compatible).
//!
//! ## Example
//!
//! ```
//! use qnat_sim::circuit::Circuit;
//! use qnat_sim::gate::Gate;
//! use qnat_sim::statevector::simulate;
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::ry(0, 0.5));
//! c.push(Gate::cx(0, 1));
//! let psi = simulate(&c);
//! assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod adjoint;
pub mod channel;
pub mod circuit;
pub mod density;
pub mod gate;
pub mod kernels;
pub mod math;
pub mod measure;
pub mod paramshift;
pub mod statevector;

pub use circuit::Circuit;
pub use gate::{Gate, GateKind};
pub use statevector::StateVector;
