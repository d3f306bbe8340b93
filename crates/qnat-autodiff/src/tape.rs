//! Reverse-mode automatic differentiation on a tape.
//!
//! The classical half of QuantumNAT training — post-measurement
//! normalization, quantization with a straight-through estimator, the
//! classification head and the losses — is differentiated here. Quantum
//! blocks enter the graph through [`Tape::quantum`], a custom node whose
//! backward pass is a vector-Jacobian-product callback: the caller runs
//! the block's adjoint sweep seeded with the upstream gradient, so no
//! per-sample Jacobian is ever materialized.

use crate::tensor::Tensor;

/// A handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// The vector-Jacobian product of a quantum node ([`Tape::quantum`]):
/// maps the upstream gradient of the node's outputs `[batch, n_out]` to
/// the gradient of its inputs `[batch, n_in]` — `None` when the inputs
/// need none — and of its parameters `[n_p]`.
pub type QuantumVjp<'a> = Box<dyn Fn(&Tensor) -> (Option<Tensor>, Tensor) + 'a>;

/// A [`QuantumVjp`] on the tape.
struct Vjp<'a>(QuantumVjp<'a>);

impl std::fmt::Debug for Vjp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Vjp")
    }
}

#[derive(Debug)]
enum Op<'a> {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    Scale(Var, f64),
    AddScalar(Var),
    Sqrt(Var),
    Sigmoid(Var),
    Mean(Var),
    Sum(Var),
    MeanAxis0(Var),
    VarAxis0(Var),
    Broadcast0(Var, usize),
    MatmulConst(Var, Tensor),
    QuantizeSte {
        x: Var,
        p_min: f64,
        p_max: f64,
    },
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
    },
    Quantum {
        x: Var,
        params: Var,
        vjp: Vjp<'a>,
    },
}

#[derive(Debug)]
struct Node<'a> {
    op: Op<'a>,
    value: Tensor,
    aux: Option<Tensor>,
}

/// Gradients of a scalar loss with respect to every tape node.
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient tensor of `v`, or a zero tensor if the loss does not
    /// depend on it.
    pub fn get(&self, v: Var, tape: &Tape) -> Tensor {
        self.grads[v.0]
            .clone()
            .unwrap_or_else(|| Tensor::zeros_like(tape.value(v)))
    }
}

/// Uniform quantization centroids for `levels` levels over `[p_min, p_max]`.
pub fn quantization_centroids(levels: usize, p_min: f64, p_max: f64) -> Vec<f64> {
    assert!(levels >= 2, "need at least two quantization levels");
    assert!(p_max > p_min, "empty quantization range");
    (0..levels)
        .map(|k| p_min + (p_max - p_min) * k as f64 / (levels - 1) as f64)
        .collect()
}

/// Quantizes one value: clip to `[p_min, p_max]`, snap to nearest centroid.
pub fn quantize_value(x: f64, levels: usize, p_min: f64, p_max: f64) -> f64 {
    let clipped = x.clamp(p_min, p_max);
    let step = (p_max - p_min) / (levels - 1) as f64;
    let k = ((clipped - p_min) / step).round();
    p_min + k * step
}

/// The reverse-mode tape.
///
/// # Examples
///
/// ```
/// use qnat_autodiff::{tape::Tape, tensor::Tensor};
/// let mut t = Tape::new();
/// let x = t.input(Tensor::vector(vec![3.0]));
/// let y = t.mul(x, x); // y = x²
/// let g = t.backward(y);
/// assert_eq!(g.get(x, &t).data(), &[6.0]); // dy/dx = 2x
/// ```
///
/// The lifetime `'a` bounds what the quantum nodes' VJP callbacks
/// borrow.
#[derive(Debug, Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

impl<'a> Tape<'a> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, op: Op<'a>, value: Tensor, aux: Option<Tensor>) -> Var {
        self.nodes.push(Node { op, value, aux });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Auxiliary output of a node (e.g. softmax probabilities of a
    /// cross-entropy node).
    pub fn aux(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].aux.as_ref()
    }

    /// Registers an input (leaf) tensor.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t, None)
    }

    fn binary(&mut self, a: Var, b: Var, f: impl Fn(f64, f64) -> f64, op: Op<'a>) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "shape mismatch in binary op");
        let data = ta
            .data()
            .iter()
            .zip(tb.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        let t = Tensor::new(data, ta.shape().to_vec());
        self.push(op, t, None)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x + y, Op::Add(a, b))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x - y, Op::Sub(a, b))
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x * y, Op::Mul(a, b))
    }

    /// Element-wise quotient.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x / y, Op::Div(a, b))
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let t = Tensor::new(
            self.nodes[a.0].value.data().iter().map(|&x| -x).collect(),
            self.nodes[a.0].value.shape().to_vec(),
        );
        self.push(Op::Neg(a), t, None)
    }

    /// Multiplication by a constant.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let t = Tensor::new(
            self.nodes[a.0].value.data().iter().map(|&x| x * c).collect(),
            self.nodes[a.0].value.shape().to_vec(),
        );
        self.push(Op::Scale(a, c), t, None)
    }

    /// Addition of a constant.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let t = Tensor::new(
            self.nodes[a.0].value.data().iter().map(|&x| x + c).collect(),
            self.nodes[a.0].value.shape().to_vec(),
        );
        self.push(Op::AddScalar(a), t, None)
    }

    /// Element-wise square root.
    ///
    /// # Panics
    ///
    /// Panics if any element is negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let t = Tensor::new(
            self.nodes[a.0]
                .value
                .data()
                .iter()
                .map(|&x| {
                    assert!(x >= 0.0, "sqrt of negative value {x}");
                    x.sqrt()
                })
                .collect(),
            self.nodes[a.0].value.shape().to_vec(),
        );
        self.push(Op::Sqrt(a), t, None)
    }

    /// Element-wise logistic sigmoid `1 / (1 + e^{-x})`.
    ///
    /// The output is used by the calibration tracker to squash a linear
    /// feature score into a `[0, 1]` error-rate estimate; the backward pass
    /// reuses the stored output (`s·(1-s)`), so extreme inputs saturate to
    /// exactly 0 or 1 with a vanishing, never non-finite, gradient.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = Tensor::new(
            self.nodes[a.0]
                .value
                .data()
                .iter()
                .map(|&x| {
                    // Branch on sign for numerical stability: exp of a large
                    // positive argument overflows to inf, but both forms
                    // below only ever exponentiate non-positive values.
                    if x >= 0.0 {
                        1.0 / (1.0 + (-x).exp())
                    } else {
                        let e = x.exp();
                        e / (1.0 + e)
                    }
                })
                .collect(),
            self.nodes[a.0].value.shape().to_vec(),
        );
        self.push(Op::Sigmoid(a), t, None)
    }

    /// Mean over all elements (scalar output).
    pub fn mean(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.data();
        let m = v.iter().sum::<f64>() / v.len() as f64;
        self.push(Op::Mean(a), Tensor::scalar(m), None)
    }

    /// Sum over all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.data().iter().sum::<f64>();
        self.push(Op::Sum(a), Tensor::scalar(s), None)
    }

    /// Column means of a `[batch, features]` tensor → `[features]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-2.
    pub fn mean_axis0(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.shape().len(), 2, "mean_axis0 needs a matrix");
        let (b, q) = (t.shape()[0], t.shape()[1]);
        let mut m = vec![0.0; q];
        for i in 0..b {
            for (j, mj) in m.iter_mut().enumerate() {
                *mj += t.get2(i, j);
            }
        }
        for mj in &mut m {
            *mj /= b as f64;
        }
        self.push(Op::MeanAxis0(a), Tensor::vector(m), None)
    }

    /// Column (biased) variances of a `[batch, features]` tensor →
    /// `[features]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-2.
    pub fn var_axis0(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.shape().len(), 2, "var_axis0 needs a matrix");
        let (b, q) = (t.shape()[0], t.shape()[1]);
        let mut m = vec![0.0; q];
        for i in 0..b {
            for (j, mj) in m.iter_mut().enumerate() {
                *mj += t.get2(i, j);
            }
        }
        for mj in &mut m {
            *mj /= b as f64;
        }
        let mut v = vec![0.0; q];
        for i in 0..b {
            for (j, vj) in v.iter_mut().enumerate() {
                let d = t.get2(i, j) - m[j];
                *vj += d * d;
            }
        }
        for vj in &mut v {
            *vj /= b as f64;
        }
        self.push(Op::VarAxis0(a), Tensor::vector(v), None)
    }

    /// Broadcasts a `[features]` vector to `[batch, features]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-1.
    pub fn broadcast0(&mut self, a: Var, batch: usize) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.shape().len(), 1, "broadcast0 needs a vector");
        let q = t.shape()[0];
        let mut data = Vec::with_capacity(batch * q);
        for _ in 0..batch {
            data.extend_from_slice(t.data());
        }
        self.push(
            Op::Broadcast0(a, batch),
            Tensor::new(data, vec![batch, q]),
            None,
        )
    }

    /// Multiplies `[batch, q]` by a constant `[q, c]` matrix (given
    /// row-major) → `[batch, c]`. Used for the fixed classification heads.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_const(&mut self, a: Var, w: Tensor) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.shape().len(), 2, "matmul_const needs a matrix");
        assert_eq!(w.shape().len(), 2, "weight must be a matrix");
        let (b, q) = (t.shape()[0], t.shape()[1]);
        let (wq, c) = (w.shape()[0], w.shape()[1]);
        assert_eq!(q, wq, "inner dimension mismatch");
        let mut data = vec![0.0; b * c];
        for i in 0..b {
            for k in 0..q {
                let x = t.get2(i, k);
                for j in 0..c {
                    data[i * c + j] += x * w.get2(k, j);
                }
            }
        }
        self.push(
            Op::MatmulConst(a, w),
            Tensor::new(data, vec![b, c]),
            None,
        )
    }

    /// Post-measurement quantization with a clipped straight-through
    /// estimator: forward clips to `[p_min, p_max]` and snaps to the nearest
    /// of `levels` uniform centroids; backward passes gradients through
    /// unchanged inside the clip range and zeroes them outside.
    pub fn quantize_ste(&mut self, x: Var, levels: usize, p_min: f64, p_max: f64) -> Var {
        let t = &self.nodes[x.0].value;
        let data = t
            .data()
            .iter()
            .map(|&v| quantize_value(v, levels, p_min, p_max))
            .collect();
        let out = Tensor::new(data, t.shape().to_vec());
        self.push(Op::QuantizeSte { x, p_min, p_max }, out, None)
    }

    /// Mean softmax cross-entropy of `[batch, classes]` logits against
    /// integer labels. The node's [`Tape::aux`] holds the softmax
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range or batch sizes disagree.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let t = &self.nodes[logits.0].value;
        assert_eq!(t.shape().len(), 2, "logits must be a matrix");
        let (b, c) = (t.shape()[0], t.shape()[1]);
        assert_eq!(labels.len(), b, "label count mismatch");
        let mut probs = vec![0.0; b * c];
        let mut loss = 0.0;
        for i in 0..b {
            assert!(labels[i] < c, "label {} out of range", labels[i]);
            let row: Vec<f64> = (0..c).map(|j| t.get2(i, j)).collect();
            let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|&v| (v - mx).exp()).collect();
            let z: f64 = exps.iter().sum();
            for j in 0..c {
                probs[i * c + j] = exps[j] / z;
            }
            loss -= (probs[i * c + labels[i]]).max(1e-300).ln();
        }
        loss /= b as f64;
        self.push(
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
            },
            Tensor::scalar(loss),
            Some(Tensor::new(probs, vec![b, c])),
        )
    }

    /// Inserts a quantum block with externally-computed forward values
    /// and its vector-Jacobian product.
    ///
    /// * `x` — encoder inputs `[batch, n_in]`.
    /// * `params` — trainable parameters `[n_p]` (shared across the batch).
    /// * `out` — measured expectations `[batch, n_out]`.
    /// * `vjp` — called once by [`Tape::backward`] with the gradient of
    ///   `out`; returns the gradients of `x` (or `None`) and `params`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes, here or when `backward` checks what
    /// `vjp` returned.
    pub fn quantum(&mut self, x: Var, params: Var, out: Tensor, vjp: QuantumVjp<'a>) -> Var {
        let tx = &self.nodes[x.0].value;
        assert_eq!(tx.shape().len(), 2, "quantum inputs must be a matrix");
        assert_eq!(out.shape().len(), 2, "quantum outputs must be a matrix");
        assert_eq!(out.shape()[0], tx.shape()[0], "batch mismatch");
        self.push(
            Op::Quantum {
                x,
                params,
                vjp: Vjp(vjp),
            },
            out,
            None,
        )
    }

    /// Runs reverse-mode accumulation from a scalar `loss` node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward from non-scalar node"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));
        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].clone() else {
                continue;
            };
            let give = |v: Var, t: Tensor, grads: &mut Vec<Option<Tensor>>| match &mut grads
                [v.0]
            {
                Some(acc) => acc.accumulate(&t),
                slot @ None => *slot = Some(t),
            };
            match &self.nodes[idx].op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    give(*a, g.clone(), &mut grads);
                    give(*b, g, &mut grads);
                }
                Op::Sub(a, b) => {
                    give(*a, g.clone(), &mut grads);
                    let neg = Tensor::new(
                        g.data().iter().map(|&v| -v).collect(),
                        g.shape().to_vec(),
                    );
                    give(*b, neg, &mut grads);
                }
                Op::Mul(a, b) => {
                    let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                    let ga = Tensor::new(
                        g.data()
                            .iter()
                            .zip(tb.data())
                            .map(|(&gv, &bv)| gv * bv)
                            .collect(),
                        g.shape().to_vec(),
                    );
                    let gb = Tensor::new(
                        g.data()
                            .iter()
                            .zip(ta.data())
                            .map(|(&gv, &av)| gv * av)
                            .collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                    give(*b, gb, &mut grads);
                }
                Op::Div(a, b) => {
                    let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                    let ga = Tensor::new(
                        g.data()
                            .iter()
                            .zip(tb.data())
                            .map(|(&gv, &bv)| gv / bv)
                            .collect(),
                        g.shape().to_vec(),
                    );
                    let gb = Tensor::new(
                        g.data()
                            .iter()
                            .zip(ta.data().iter().zip(tb.data()))
                            .map(|(&gv, (&av, &bv))| -gv * av / (bv * bv))
                            .collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                    give(*b, gb, &mut grads);
                }
                Op::Neg(a) => {
                    let ga = Tensor::new(
                        g.data().iter().map(|&v| -v).collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::Scale(a, c) => {
                    let ga = Tensor::new(
                        g.data().iter().map(|&v| v * c).collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::AddScalar(a) => give(*a, g, &mut grads),
                Op::Sqrt(a) => {
                    let out = &self.nodes[idx].value;
                    let ga = Tensor::new(
                        g.data()
                            .iter()
                            .zip(out.data())
                            .map(|(&gv, &ov)| gv * 0.5 / ov.max(1e-300))
                            .collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::Sigmoid(a) => {
                    let out = &self.nodes[idx].value;
                    let ga = Tensor::new(
                        g.data()
                            .iter()
                            .zip(out.data())
                            .map(|(&gv, &sv)| gv * sv * (1.0 - sv))
                            .collect(),
                        g.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::Mean(a) => {
                    let ta = &self.nodes[a.0].value;
                    let n = ta.len() as f64;
                    let ga = Tensor::new(
                        ta.data().iter().map(|_| g.item() / n).collect(),
                        ta.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::Sum(a) => {
                    let ta = &self.nodes[a.0].value;
                    let ga = Tensor::new(
                        ta.data().iter().map(|_| g.item()).collect(),
                        ta.shape().to_vec(),
                    );
                    give(*a, ga, &mut grads);
                }
                Op::MeanAxis0(a) => {
                    let ta = &self.nodes[a.0].value;
                    let (b, q) = (ta.shape()[0], ta.shape()[1]);
                    let mut data = vec![0.0; b * q];
                    for i in 0..b {
                        for j in 0..q {
                            data[i * q + j] = g.data()[j] / b as f64;
                        }
                    }
                    give(*a, Tensor::new(data, vec![b, q]), &mut grads);
                }
                Op::VarAxis0(a) => {
                    let ta = &self.nodes[a.0].value;
                    let (b, q) = (ta.shape()[0], ta.shape()[1]);
                    let mut mean = vec![0.0; q];
                    for i in 0..b {
                        for (j, mj) in mean.iter_mut().enumerate() {
                            *mj += ta.get2(i, j);
                        }
                    }
                    for mj in &mut mean {
                        *mj /= b as f64;
                    }
                    let mut data = vec![0.0; b * q];
                    for i in 0..b {
                        for j in 0..q {
                            data[i * q + j] =
                                g.data()[j] * 2.0 * (ta.get2(i, j) - mean[j]) / b as f64;
                        }
                    }
                    give(*a, Tensor::new(data, vec![b, q]), &mut grads);
                }
                Op::Broadcast0(a, batch) => {
                    let q = self.nodes[a.0].value.len();
                    let mut data = vec![0.0; q];
                    for i in 0..*batch {
                        for (j, dj) in data.iter_mut().enumerate() {
                            *dj += g.data()[i * q + j];
                        }
                    }
                    give(*a, Tensor::vector(data), &mut grads);
                }
                Op::MatmulConst(a, w) => {
                    let ta = &self.nodes[a.0].value;
                    let (b, q) = (ta.shape()[0], ta.shape()[1]);
                    let c = w.shape()[1];
                    let mut data = vec![0.0; b * q];
                    for i in 0..b {
                        for k in 0..q {
                            let mut acc = 0.0;
                            for j in 0..c {
                                acc += g.data()[i * c + j] * w.get2(k, j);
                            }
                            data[i * q + k] = acc;
                        }
                    }
                    give(*a, Tensor::new(data, vec![b, q]), &mut grads);
                }
                Op::QuantizeSte {
                    x, p_min, p_max, ..
                } => {
                    let tx = &self.nodes[x.0].value;
                    let ga = Tensor::new(
                        g.data()
                            .iter()
                            .zip(tx.data())
                            .map(|(&gv, &xv)| {
                                if xv >= *p_min && xv <= *p_max {
                                    gv
                                } else {
                                    0.0
                                }
                            })
                            .collect(),
                        g.shape().to_vec(),
                    );
                    give(*x, ga, &mut grads);
                }
                Op::SoftmaxCrossEntropy { logits, labels } => {
                    let probs = self.nodes[idx]
                        .aux
                        .as_ref()
                        .expect("softmax node stores probabilities");
                    let (b, c) = (probs.shape()[0], probs.shape()[1]);
                    let gs = g.item();
                    let mut data = vec![0.0; b * c];
                    for i in 0..b {
                        for j in 0..c {
                            let one_hot = if labels[i] == j { 1.0 } else { 0.0 };
                            data[i * c + j] = gs * (probs.get2(i, j) - one_hot) / b as f64;
                        }
                    }
                    give(*logits, Tensor::new(data, vec![b, c]), &mut grads);
                }
                Op::Quantum { x, params, vjp } => {
                    let (gx, gp) = (vjp.0)(&g);
                    if let Some(gx) = gx {
                        assert_eq!(gx.shape(), self.nodes[x.0].value.shape(), "input VJP shape");
                        give(*x, gx, &mut grads);
                    }
                    assert_eq!(gp.len(), self.nodes[params.0].value.len(), "parameter VJP length");
                    give(*params, gp, &mut grads);
                }
            }
        }
        Gradients { grads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of d loss / d input element.
    fn finite_diff(
        build: &impl Fn(&mut Tape, Var) -> Var,
        input: &Tensor,
        idx: usize,
    ) -> f64 {
        let eps = 1e-6;
        let eval = |delta: f64| {
            let mut t = input.clone();
            t.data_mut()[idx] += delta;
            let mut tape = Tape::new();
            let x = tape.input(t);
            let loss = build(&mut tape, x);
            tape.value(loss).item()
        };
        (eval(eps) - eval(-eps)) / (2.0 * eps)
    }

    fn check_all(build: impl Fn(&mut Tape, Var) -> Var, input: Tensor) {
        let mut tape = Tape::new();
        let x = tape.input(input.clone());
        let loss = build(&mut tape, x);
        let grads = tape.backward(loss);
        let gx = grads.get(x, &tape);
        for i in 0..input.len() {
            let fd = finite_diff(&build, &input, i);
            assert!(
                (gx.data()[i] - fd).abs() < 1e-5,
                "element {i}: autodiff {} vs fd {fd}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn arithmetic_gradients() {
        let input = Tensor::vector(vec![1.5, -0.3, 2.0]);
        check_all(
            |t, x| {
                let y = t.mul(x, x);
                let z = t.add(y, x);
                let w = t.scale(z, 0.7);
                let u = t.add_scalar(w, 3.0);
                t.mean(u)
            },
            input,
        );
    }

    #[test]
    fn div_and_sqrt_gradients() {
        let input = Tensor::vector(vec![1.2, 0.8, 3.5]);
        check_all(
            |t, x| {
                let s = t.sqrt(x);
                let r = t.div(x, s); // x / √x = √x
                t.sum(r)
            },
            input,
        );
    }

    #[test]
    fn sigmoid_gradients() {
        let input = Tensor::vector(vec![-2.0, -0.4, 0.0, 0.7, 3.1]);
        check_all(
            |t, x| {
                let s = t.sigmoid(x);
                let sq = t.mul(s, s);
                t.mean(sq)
            },
            input,
        );
    }

    #[test]
    fn sigmoid_saturates_without_overflow() {
        let mut t = Tape::new();
        let x = t.input(Tensor::vector(vec![-800.0, 800.0]));
        let s = t.sigmoid(x);
        assert_eq!(t.value(s).data(), &[0.0, 1.0]);
        let m = t.mean(s);
        let g = t.backward(m);
        for &gv in g.get(x, &t).data() {
            assert!(gv.is_finite());
        }
    }

    #[test]
    fn normalization_gradients() {
        // The exact post-measurement normalization computation:
        // (x − mean) / sqrt(var + ε).
        let input = Tensor::from_rows(&[
            vec![0.3, -0.2, 0.9],
            vec![0.1, 0.4, -0.5],
            vec![-0.7, 0.2, 0.6],
            vec![0.5, -0.1, 0.0],
        ]);
        check_all(
            |t, x| {
                let b = t.value(x).shape()[0];
                let mu = t.mean_axis0(x);
                let mub = t.broadcast0(mu, b);
                let centered = t.sub(x, mub);
                let var = t.var_axis0(x);
                let var_eps = t.add_scalar(var, 1e-3);
                let sd = t.sqrt(var_eps);
                let sdb = t.broadcast0(sd, b);
                let norm = t.div(centered, sdb);
                let sq = t.mul(norm, norm);
                t.mean(sq)
            },
            input,
        );
    }

    #[test]
    fn matmul_const_gradients() {
        let input = Tensor::from_rows(&[vec![0.2, 0.8, -0.4, 0.1], vec![1.0, -0.2, 0.3, 0.5]]);
        let w = Tensor::new(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0], vec![4, 2]);
        check_all(
            move |t, x| {
                let y = t.matmul_const(x, w.clone());
                let y2 = t.mul(y, y);
                t.sum(y2)
            },
            input,
        );
    }

    #[test]
    fn softmax_cross_entropy_gradients() {
        let input = Tensor::from_rows(&[vec![0.5, -0.2, 0.9], vec![-1.0, 0.4, 0.1]]);
        let labels = vec![2usize, 1];
        check_all(
            move |t, x| t.softmax_cross_entropy(x, &labels),
            input,
        );
    }

    #[test]
    fn softmax_probabilities_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_rows(&[vec![3.0, 1.0, -2.0]]));
        let loss = tape.softmax_cross_entropy(x, &[0]);
        let probs = tape.aux(loss).unwrap();
        let s: f64 = probs.data().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(probs.get2(0, 0) > probs.get2(0, 1));
    }

    #[test]
    fn quantize_forward_and_ste_backward() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::vector(vec![-3.0, -0.6, 0.1, 0.8, 2.5]));
        let q = tape.quantize_ste(x, 5, -2.0, 2.0);
        // Centroids: -2, -1, 0, 1, 2.
        assert_eq!(tape.value(q).data(), &[-2.0, -1.0, 0.0, 1.0, 2.0]);
        let s = tape.sum(q);
        let grads = tape.backward(s);
        let gx = grads.get(x, &tape);
        // Clipped STE: gradient 1 inside [-2,2], 0 outside.
        assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn quantization_centroids_are_uniform() {
        let c = quantization_centroids(5, -2.0, 2.0);
        assert_eq!(c, vec![-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert_eq!(quantize_value(0.49, 5, -2.0, 2.0), 0.0);
        assert_eq!(quantize_value(0.51, 5, -2.0, 2.0), 1.0);
        assert_eq!(quantize_value(9.0, 5, -2.0, 2.0), 2.0);
    }

    #[test]
    fn quantum_node_backpropagates_jacobians() {
        // A fake "quantum block": out = [sin(p)·x0, x1·p] with 1 param,
        // its VJP contracting the Jacobians with the upstream gradient.
        let p_val = 0.7f64;
        let x_val = Tensor::from_rows(&[vec![0.3, -0.5]]);
        let out = Tensor::from_rows(&[vec![p_val.sin() * 0.3, -0.5 * p_val]]);
        let jx = [[p_val.sin(), 0.0], [0.0, p_val]];
        let jp = [p_val.cos() * 0.3, -0.5];
        let vjp = move |g: &Tensor| {
            let (g0, g1) = (g.get2(0, 0), g.get2(0, 1));
            let gx = vec![g0 * jx[0][0] + g1 * jx[1][0], g0 * jx[0][1] + g1 * jx[1][1]];
            (
                Some(Tensor::new(gx, vec![1, 2])),
                Tensor::vector(vec![g0 * jp[0] + g1 * jp[1]]),
            )
        };
        let mut tape = Tape::new();
        let x = tape.input(x_val);
        let theta = tape.input(Tensor::vector(vec![p_val]));
        let q = tape.quantum(x, theta, out, Box::new(vjp));
        let s = tape.sum(q);
        let grads = tape.backward(s);
        let gp = grads.get(theta, &tape);
        assert!((gp.data()[0] - (p_val.cos() * 0.3 - 0.5)).abs() < 1e-12);
        let gx = grads.get(x, &tape);
        assert!((gx.get2(0, 0) - p_val.sin()).abs() < 1e-12);
        assert!((gx.get2(0, 1) - p_val).abs() < 1e-12);
    }

    #[test]
    fn gradient_of_unused_input_is_zero() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::vector(vec![1.0]));
        let y = tape.input(Tensor::vector(vec![2.0]));
        let loss = tape.sum(x);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(y, &tape).data(), &[0.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = x·x + x → grad = 2x + 1.
        let mut tape = Tape::new();
        let x = tape.input(Tensor::vector(vec![3.0]));
        let y = tape.mul(x, x);
        let z = tape.add(y, x);
        let loss = tape.sum(z);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x, &tape).data(), &[7.0]);
    }
}
