//! # qnat-autodiff — reverse-mode autodiff substrate for QuantumNAT
//!
//! A small tape-based automatic-differentiation engine covering exactly the
//! classical operations QuantumNAT's training pipeline needs:
//! element-wise arithmetic, batch statistics for post-measurement
//! normalization, straight-through quantization, fixed-head matrix
//! multiplication, softmax cross-entropy and a custom *quantum* node whose
//! backward pass is a vector-Jacobian-product callback (`qnat-sim`'s
//! adjoint sweep, seeded with the upstream gradient).
//!
//! ## Example
//!
//! ```
//! use qnat_autodiff::{tape::Tape, tensor::Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::vector(vec![2.0]));
//! let y = tape.mul(x, x);
//! let loss = tape.sum(y);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(x, &tape).data(), &[4.0]);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod tape;
pub mod tensor;

pub use tape::{Gradients, QuantumVjp, Tape, Var};
pub use tensor::Tensor;
