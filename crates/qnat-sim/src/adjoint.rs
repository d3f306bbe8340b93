//! Adjoint differentiation of statevector circuits, one batch at a time.
//!
//! Computes vector-Jacobian products `Σ_q w_q·∂⟨Z_q⟩/∂θ` for every gate
//! parameter with a single forward pass and a single backward sweep (one
//! extra statevector per seed). This is the gradient engine used for
//! classical training of QuantumNAT models; [`crate::paramshift`]
//! provides the hardware-compatible alternative and serves as the
//! validation oracle.
//!
//! ## One walk per batch
//!
//! [`batch_forward`] and [`batch_vjp`] run a batch of samples through one
//! circuit template. Samples differ in their parameter values and in
//! their error events: parameter-free single-qubit gates (the injected
//! Pauli errors) that run right after a template gate. Both sweeps walk
//! the template once. A gate whose parameters every sample binds to the
//! same bits has its matrix, its pending products and its generator
//! conjugations computed once for the batch; a gate whose parameters
//! differ (an encoder gate), and every error event, is computed per
//! sample. Each sample then only pays for amplitude kernels, cross
//! matrices and contractions over the `[batch, 2ⁿ]` buffer.
//!
//! A sample's arithmetic does not depend on the other samples in its
//! batch: it runs the same operations on the same values as it would
//! alone. An error event belongs to its sample only — that sample keeps
//! its own pending product on that qubit until the next two-qubit gate on
//! it consumes the product. So a sample's results are bitwise the same
//! in any batch, and [`adjoint_gradients`] is the batch-of-one case with
//! one seed per observable.
//!
//! ## Run fusion
//!
//! Both sweeps defer single-qubit gates. The forward pass keeps one
//! pending 2×2 per qubit and folds it into the next two-qubit gate on
//! that qubit, so the state is only walked once per two-qubit gate (plus
//! one final flush per qubit). The backward pass keeps the states
//! `[ψ, λ_0 … λ_{m−1}]` in one buffer and a pending product `P_q` of
//! undone single-qubit gates per qubit: the true states are
//! `(⊗_q P_q)·buffer`. A gradient of a single-qubit gate `G` on `q` is
//!
//! ```text
//! 2·Re⟨λ|∂G·G†|ψ⟩ = 2·Re Σ_ab A[a][b]·C_o[a][b],
//! A = P_q†·(∂G·G†)·P_q,   C_o[a][b] = Σ_r conj(λ_o[r,a])·ψ[r,b],
//! ```
//!
//! where `r` runs over the other qubits' indices. `C_o` is one pass over
//! the buffer, and it stays valid for the whole single-qubit run on `q`:
//! only two-qubit gates touch the buffer, and one on other qubits applies
//! the same unitary to the rest index of `ψ` and `λ_o`, which preserves
//! their inner products. A two-qubit gate folds its qubits' `P` into its
//! inverse, makes one 4×4 pass per state and invalidates both qubits'
//! `C`.
//!
//! ## Seeds
//!
//! A seed is a diagonal observable `Σ_q w_q·Z_q`. Its co-state starts as
//! `λ = Σ_q w_q·Z_q|ψ⟩`, and the sweep yields `Σ_q w_q·∂⟨Z_q⟩/∂θ` — the
//! vector-Jacobian product of the expectations with the weights. Training
//! seeds one co-state per sample with the loss gradient; a Jacobian is
//! one one-hot seed per observable.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind, GateMatrix};
use crate::kernels::{
    apply_mat2, apply_mat2_rows, apply_mat4, apply_mat4_rows, cross_mat2, prob_one_mass,
};
use crate::math::{kron2, mat2_dagger, mat2_mul, mat4_dagger, mat4_mul, Mat2, Mat4, C64};
use std::ops::Range;

/// Expectations and gradients returned by a differentiation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientResult {
    /// ⟨Z_q⟩ for each requested observable qubit.
    pub expectations: Vec<f64>,
    /// `gradients[obs][k]` = ∂⟨Z_obs⟩/∂θ_k where `k` indexes the circuit's
    /// flattened parameter list ([`Circuit::param_slots`] order).
    pub gradients: Vec<Vec<f64>>,
}

/// One sample of a batch run through a circuit template by
/// [`batch_forward`] and [`batch_vjp`].
#[derive(Debug, Clone, Copy)]
pub struct BatchSample<'a> {
    /// The sample's parameter values, in the template's
    /// [`Circuit::param_slots`] order.
    pub params: &'a [f64],
    /// The sample's error events `(gate index, gate)` in circuit order:
    /// each is a parameter-free single-qubit gate that runs right after
    /// the template gate at its index.
    pub events: &'a [(usize, Gate)],
}

const I2: Mat2 = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];

/// `P†·M·P`.
fn conjugate2(m: &Mat2, p: &Mat2) -> Mat2 {
    mat2_mul(&mat2_dagger(p), &mat2_mul(m, p))
}

/// `P†·M·P`.
fn conjugate4(m: &Mat4, p: &Mat4) -> Mat4 {
    mat4_mul(&mat4_dagger(p), &mat4_mul(m, p))
}

/// `∂G/∂θ_slot · G†` for a single-qubit gate with matrix `u`. `RZ`, the
/// only parameterized gate of the compiled basis, gives `−(i/2)Z`
/// directly.
fn generator1(g: &Gate, slot: usize, u: &Mat2) -> Mat2 {
    if g.kind == GateKind::Rz {
        let h = C64::new(0.0, -0.5);
        return [[h, C64::ZERO], [C64::ZERO, -h]];
    }
    match g.d_matrix(slot) {
        GateMatrix::One(d) => mat2_mul(&d, &mat2_dagger(u)),
        GateMatrix::Two(_) => unreachable!("single-qubit gate has a 2×2 derivative"),
    }
}

/// `∂G/∂θ_slot · G†` for a two-qubit gate with matrix `u`.
fn generator2(g: &Gate, slot: usize, u: &Mat4) -> Mat4 {
    match g.d_matrix(slot) {
        GateMatrix::Two(d) => mat4_mul(&d, &mat4_dagger(u)),
        GateMatrix::One(_) => unreachable!("two-qubit gate has a 4×4 derivative"),
    }
}

/// `U·P` for a pending product `P` (`None` is the identity).
fn premul(u: &Mat2, p: Option<Mat2>) -> Mat2 {
    p.map_or(*u, |p| mat2_mul(u, &p))
}

/// Two qubits' pending products as `P_a⊗P_b`, or `None` when both are
/// the identity.
fn kron_pending(pa: Option<Mat2>, pb: Option<Mat2>) -> Option<Mat4> {
    match (pa, pb) {
        (None, None) => None,
        (pa, pb) => Some(kron2(&pa.unwrap_or(I2), &pb.unwrap_or(I2))),
    }
}

/// `M·P` for a pending two-qubit product `P` (`None` is the identity).
fn fold4(m: &Mat4, p: Option<Mat4>) -> Mat4 {
    p.map_or(*m, |p| mat4_mul(m, &p))
}

/// `Re Σ_ab A[a][b]·C[a][b]`.
fn re_contract(a: &Mat2, c: &Mat2) -> f64 {
    let mut acc = 0.0;
    for (ra, rc) in a.iter().zip(c) {
        for (x, y) in ra.iter().zip(rc) {
            acc += x.re * y.re - x.im * y.im;
        }
    }
    acc
}

/// `Re⟨l|m⟩`.
fn re_inner(l: &[C64], m: &[C64]) -> f64 {
    l.iter()
        .zip(m)
        .map(|(l, m)| l.re * m.re + l.im * m.im)
        .sum()
}

/// ⟨Z_q⟩ of one state.
///
/// # Panics
///
/// Panics if `state` is not a power-of-two slice or `q` is out of range.
pub fn expect_z(state: &[C64], q: usize) -> f64 {
    1.0 - 2.0 * prob_one_mass(state, q)
}

/// The diagonal of `Σ_q w_q·Z_q`: `diag[x] = Σ_q w_q·(−1)^{bit q of x}`,
/// built bit by bit as `diag[x | 2^q] = diag[x] − 2·w_q`. A one-hot `w`
/// gives exactly ±1.
fn seed_diagonal(w: &[f64], diag: &mut [f64]) {
    diag[0] = w.iter().sum();
    for (q, &wq) in w.iter().enumerate() {
        let (lo, hi) = diag[..2 << q].split_at_mut(1 << q);
        for (h, &l) in hi.iter_mut().zip(lo.iter()) {
            *h = l - 2.0 * wq;
        }
    }
}

/// The template gate `g` bound to one sample's values for its slots.
fn bound(g: &Gate, values: &[f64]) -> Gate {
    let mut g = *g;
    g.params[..values.len()].copy_from_slice(values);
    g
}

/// `true` when every sample binds the parameter slots `slots` to the
/// same bits, so their gate matrices are one matrix.
fn shared(samples: &[BatchSample<'_>], slots: &Range<usize>) -> bool {
    let Some((first, rest)) = samples.split_first() else {
        return true;
    };
    let first = &first.params[slots.clone()];
    rest.iter().all(|s| {
        s.params[slots.clone()]
            .iter()
            .zip(first)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Validates a batch against its template.
fn check_batch(template: &Circuit, samples: &[BatchSample<'_>]) {
    let n = template.n_qubits();
    let n_gates = template.len();
    for g in template.gates() {
        assert!(
            g.qubits[..g.arity()].iter().all(|&q| q < n),
            "template gate {g} out of range"
        );
    }
    for s in samples {
        assert_eq!(
            s.params.len(),
            template.n_params(),
            "sample parameter count"
        );
        let mut last = 0;
        for &(at, e) in s.events {
            assert!(
                at >= last && at < n_gates,
                "error events must be in circuit order within the template"
            );
            assert!(
                e.arity() == 1 && e.kind.param_count() == 0 && e.qubits[0] < n,
                "error event {e} must be a parameter-free gate on the register"
            );
            last = at;
        }
    }
}

/// The pending single-qubit products of one qubit across a batch: one
/// product the samples share, and a sample's own product once a gate
/// only it runs — an error event, or a gate whose parameters differ
/// between samples — has touched the qubit since the last two-qubit gate
/// on it.
struct Pending {
    shared: Option<Mat2>,
    own: Vec<Option<Option<Mat2>>>,
    n_own: usize,
}

impl Pending {
    fn new(batch: usize) -> Pending {
        Pending {
            shared: None,
            own: vec![None; batch],
            n_own: 0,
        }
    }

    /// Sample `i`'s product (`None` is the identity).
    fn get(&self, i: usize) -> Option<Mat2> {
        self.own[i].unwrap_or(self.shared)
    }

    /// `true` while sample `i` uses the shared product.
    fn is_shared(&self, i: usize) -> bool {
        self.own[i].is_none()
    }

    /// Gives sample `i` its own product `U·P_i`.
    fn premul_one(&mut self, i: usize, u: &Mat2) {
        let p = premul(u, self.get(i));
        if self.own[i].is_none() {
            self.n_own += 1;
        }
        self.own[i] = Some(Some(p));
    }

    /// `U·P` for every sample.
    fn premul_all(&mut self, u: &Mat2) {
        self.shared = Some(premul(u, self.shared));
        if self.n_own > 0 {
            for p in self.own.iter_mut().flatten() {
                *p = Some(premul(u, *p));
            }
        }
    }

    /// Resets every sample's product to the identity.
    fn clear(&mut self) {
        self.shared = None;
        if self.n_own > 0 {
            self.own.fill(None);
            self.n_own = 0;
        }
    }
}

/// Sample `i`'s 4×4 for a two-qubit gate, `f(i, P_a⊗P_b)` from the
/// kron of the two qubits' pending products. When the gate is one
/// matrix for the whole batch (`one_gate`), `f` runs once for all the
/// samples that share both products.
fn per_sample4<'p>(
    one_gate: bool,
    pa: &'p Pending,
    pb: &'p Pending,
    f: impl Fn(usize, Option<Mat4>) -> Mat4 + 'p,
) -> impl Fn(usize) -> Mat4 + 'p {
    let shared = one_gate.then(|| f(0, kron_pending(pa.shared, pb.shared)));
    move |i| match shared {
        Some(m) if pa.is_shared(i) && pb.is_shared(i) => m,
        _ => f(i, kron_pending(pa.get(i), pb.get(i))),
    }
}

/// Applies a two-qubit gate to every sample's row of `buf` (`width`
/// amplitudes each): sample `i`'s 4×4 from [`per_sample4`], on `(a, b)`.
/// Each contiguous run of samples that share the matrix is one kernel
/// call.
#[allow(clippy::too_many_arguments)]
fn apply_two_qubit(
    buf: &mut [C64],
    width: usize,
    a: usize,
    b: usize,
    one_gate: bool,
    pa: &Pending,
    pb: &Pending,
    f: impl Fn(usize, Option<Mat4>) -> Mat4,
) {
    let m = per_sample4(one_gate, pa, pb, f);
    let shares = |i: usize| one_gate && pa.is_shared(i) && pb.is_shared(i);
    let batch = buf.len() / width;
    let mut start = 0;
    while start < batch {
        let mut end = start + 1;
        if shares(start) {
            while end < batch && shares(end) {
                end += 1;
            }
        }
        apply_mat4_rows(&mut buf[start * width..end * width], a, b, &m(start));
        start = end;
    }
}

/// Runs every sample of a batch through `template` and writes each final
/// state into its row of `states` (`[batch, 2ⁿ]`). Single-qubit runs are
/// folded into the next two-qubit gate on their qubit (see the module
/// docs).
///
/// # Panics
///
/// Panics if `states` has the wrong length, a sample's parameter count
/// disagrees with the template, or an error event is out of order, out
/// of range or not a parameter-free single-qubit gate.
pub fn batch_forward(template: &Circuit, samples: &[BatchSample<'_>], states: &mut [C64]) {
    check_batch(template, samples);
    let n = template.n_qubits();
    let dim = 1usize << n;
    let batch = samples.len();
    assert_eq!(states.len(), batch * dim, "state buffer length");
    for state in states.chunks_exact_mut(dim) {
        state.fill(C64::ZERO);
        state[0] = C64::ONE;
    }
    if batch == 0 {
        return;
    }
    let mut pending: Vec<Pending> = (0..n).map(|_| Pending::new(batch)).collect();
    let mut next_event = vec![0usize; batch];
    let mut flat = 0;
    for (gi, g) in template.gates().iter().enumerate() {
        let slots = flat..flat + g.kind.param_count();
        flat = slots.end;
        let at = |i: usize| bound(g, &samples[i].params[slots.clone()]);
        let one_gate = shared(samples, &slots);
        if g.arity() == 1 {
            let p = &mut pending[g.qubits[0]];
            if one_gate {
                p.premul_all(&at(0).matrix1());
            } else {
                for i in 0..batch {
                    p.premul_one(i, &at(i).matrix1());
                }
            }
        } else {
            let [a, b] = g.qubits;
            let u0 = one_gate.then(|| at(0).matrix2());
            apply_two_qubit(
                states,
                dim,
                a,
                b,
                one_gate,
                &pending[a],
                &pending[b],
                |i, p| fold4(&u0.unwrap_or_else(|| at(i).matrix2()), p),
            );
            pending[a].clear();
            pending[b].clear();
        }
        for (i, s) in samples.iter().enumerate() {
            while let Some(&(_, e)) = s.events.get(next_event[i]).filter(|(at, _)| *at == gi) {
                pending[e.qubits[0]].premul_one(i, &e.matrix1());
                next_event[i] += 1;
            }
        }
    }
    for (q, p) in pending.iter().enumerate() {
        if p.n_own == 0 {
            if let Some(m) = p.shared {
                apply_mat2_rows(states, q, &m);
            }
        } else {
            for (i, state) in states.chunks_exact_mut(dim).enumerate() {
                if let Some(m) = p.get(i) {
                    apply_mat2(state, q, &m);
                }
            }
        }
    }
}

/// Vector-Jacobian products of a batch: for every sample `i` and seed
/// `s`, writes `Σ_q w[i][s][q]·∂⟨Z_q⟩/∂θ_k` into `grads[i][s][k]`.
///
/// * `states` — the final states [`batch_forward`] wrote for the same
///   template and samples, `[batch, 2ⁿ]`.
/// * `seeds` — the weights `w`, `[batch, n_seeds, n_qubits]`.
/// * `from` — the first parameter slot that needs a gradient: the sweep
///   stops once every slot at or past the current gate is done, and the
///   entries of earlier slots keep whatever `grads` held.
/// * `grads` — `[batch, n_seeds, n_params]`.
///
/// # Panics
///
/// Panics if a buffer has the wrong length, or on any batch
/// [`batch_forward`] rejects.
pub fn batch_vjp(
    template: &Circuit,
    samples: &[BatchSample<'_>],
    states: &[C64],
    seeds: &[f64],
    n_seeds: usize,
    from: usize,
    grads: &mut [f64],
) {
    check_batch(template, samples);
    let n = template.n_qubits();
    let dim = 1usize << n;
    let batch = samples.len();
    let n_params = template.n_params();
    assert_eq!(states.len(), batch * dim, "state buffer length");
    assert_eq!(seeds.len(), batch * n_seeds * n, "seed buffer length");
    assert_eq!(
        grads.len(),
        batch * n_seeds * n_params,
        "gradient buffer length"
    );
    // Nothing to differentiate (a register of no qubits has no gates).
    if batch == 0 || n_seeds == 0 || n_params == 0 {
        return;
    }

    // One row per sample: ψ, then one co-state λ_s = Σ_q w_q·Z_q|ψ⟩ per
    // seed.
    let width = (1 + n_seeds) * dim;
    let mut buf = vec![C64::ZERO; batch * width];
    let mut diag = vec![0.0f64; dim];
    for ((row, psi), weights) in buf
        .chunks_exact_mut(width)
        .zip(states.chunks_exact(dim))
        .zip(seeds.chunks_exact(n_seeds * n))
    {
        let (head, lambdas) = row.split_at_mut(dim);
        head.copy_from_slice(psi);
        for (lambda, w) in lambdas.chunks_exact_mut(dim).zip(weights.chunks_exact(n)) {
            seed_diagonal(w, &mut diag);
            for ((l, a), &z) in lambda.iter_mut().zip(psi).zip(&diag) {
                *l = a.scale(z);
            }
        }
    }

    // Undone single-qubit gates not yet applied to the buffer, per qubit.
    let mut pending: Vec<Pending> = (0..n).map(|_| Pending::new(batch)).collect();
    // `cross[(q·batch + i)·n_seeds + s]` = C_s of sample i on qubit q,
    // valid while `cross_valid[q]`.
    let mut cross = vec![I2; n * batch * n_seeds];
    let mut cross_valid = vec![false; n];
    let mut events_left: Vec<usize> = samples.iter().map(|s| s.events.len()).collect();
    let mut own1: Vec<Mat2> = Vec::new();
    let mut scratch = vec![C64::ZERO; dim];
    let grad_at = |i: usize, s: usize, k: usize| (i * n_seeds + s) * n_params + k;
    // Walk gates from last to first; `flat_end` is the exclusive end of
    // the current gate's slots. Gates before the first slot that needs a
    // gradient need no undoing.
    let mut flat_end = n_params;
    for (gi, g) in template.gates().iter().enumerate().rev() {
        if flat_end <= from {
            break;
        }
        // Undo the error events that ran right after this gate, latest
        // first; each belongs to its own sample.
        for (i, s) in samples.iter().enumerate() {
            while events_left[i] > 0 && s.events[events_left[i] - 1].0 == gi {
                events_left[i] -= 1;
                let e = s.events[events_left[i]].1;
                pending[e.qubits[0]].premul_one(i, &mat2_dagger(&e.matrix1()));
            }
        }
        let np = g.kind.param_count();
        let slots = flat_end - np..flat_end;
        let at = |i: usize| bound(g, &samples[i].params[slots.clone()]);
        let one_gate = shared(samples, &slots);
        if g.arity() == 1 {
            let q = g.qubits[0];
            let g0 = at(0);
            let u0 = g0.matrix1();
            if !one_gate {
                own1.clear();
                own1.extend((0..batch).map(|i| at(i).matrix1()));
            }
            if np > 0 {
                let cs = &mut cross[q * batch * n_seeds..(q + 1) * batch * n_seeds];
                if !cross_valid[q] {
                    for (row, cs) in buf.chunks_exact(width).zip(cs.chunks_exact_mut(n_seeds)) {
                        let (psi, lambdas) = row.split_at(dim);
                        for (c, lambda) in cs.iter_mut().zip(lambdas.chunks_exact(dim)) {
                            *c = cross_mat2(psi, lambda, q);
                        }
                    }
                    cross_valid[q] = true;
                }
                let p = &pending[q];
                let conj = |gen: Mat2, pq: Option<Mat2>| pq.map_or(gen, |pq| conjugate2(&gen, &pq));
                for slot in 0..np {
                    let shared_a = one_gate.then(|| conj(generator1(&g0, slot, &u0), p.shared));
                    for (i, cs) in cs.chunks_exact(n_seeds).enumerate() {
                        let a = match shared_a {
                            Some(a) if p.is_shared(i) => a,
                            Some(_) => conj(generator1(&g0, slot, &u0), p.get(i)),
                            None => conj(generator1(&at(i), slot, &own1[i]), p.get(i)),
                        };
                        for (s, c) in cs.iter().enumerate() {
                            grads[grad_at(i, s, slots.start + slot)] = 2.0 * re_contract(&a, c);
                        }
                    }
                }
            }
            let p = &mut pending[q];
            if one_gate {
                p.premul_all(&mat2_dagger(&u0));
            } else {
                for (i, u) in own1.iter().enumerate() {
                    p.premul_one(i, &mat2_dagger(u));
                }
            }
        } else {
            let [a, b] = g.qubits;
            {
                let (pa, pb) = (&pending[a], &pending[b]);
                let u0 = one_gate.then(|| at(0).matrix2());
                let u_of = |i: usize| u0.unwrap_or_else(|| at(i).matrix2());
                for slot in 0..np {
                    let d = per_sample4(one_gate, pa, pb, |i, p| {
                        let gen = generator2(&at(i), slot, &u_of(i));
                        p.map_or(gen, |p| conjugate4(&gen, &p))
                    });
                    for (i, row) in buf.chunks_exact(width).enumerate() {
                        let (psi, lambdas) = row.split_at(dim);
                        scratch.copy_from_slice(psi);
                        apply_mat4(&mut scratch, a, b, &d(i));
                        for (s, lambda) in lambdas.chunks_exact(dim).enumerate() {
                            grads[grad_at(i, s, slots.start + slot)] =
                                2.0 * re_inner(lambda, &scratch);
                        }
                    }
                }
                apply_two_qubit(&mut buf, width, a, b, one_gate, pa, pb, |i, p| {
                    fold4(&mat4_dagger(&u_of(i)), p)
                });
            }
            pending[a].clear();
            pending[b].clear();
            cross_valid[a] = false;
            cross_valid[b] = false;
        }
        flat_end = slots.start;
    }
}

/// Computes ⟨Z_q⟩ and all parameter gradients for the given observable
/// qubits via the adjoint method: the batch-of-one case of
/// [`batch_forward`] and [`batch_vjp`], with one one-hot seed per
/// observable.
///
/// # Panics
///
/// Panics if an observable qubit is out of range.
///
/// # Examples
///
/// ```
/// use qnat_sim::circuit::Circuit;
/// use qnat_sim::gate::Gate;
/// use qnat_sim::adjoint::adjoint_gradients;
///
/// let mut c = Circuit::new(1);
/// c.push(Gate::ry(0, 0.3));
/// let r = adjoint_gradients(&c, &[0]);
/// // ⟨Z⟩ = cos θ, d⟨Z⟩/dθ = −sin θ.
/// assert!((r.expectations[0] - 0.3f64.cos()).abs() < 1e-12);
/// assert!((r.gradients[0][0] + 0.3f64.sin()).abs() < 1e-12);
/// ```
pub fn adjoint_gradients(circuit: &Circuit, obs_qubits: &[usize]) -> GradientResult {
    let n = circuit.n_qubits();
    for &q in obs_qubits {
        assert!(q < n, "observable qubit {q} out of range");
    }
    let params = circuit.parameters();
    let sample = [BatchSample {
        params: &params,
        events: &[],
    }];
    let mut psi = vec![C64::ZERO; 1 << n];
    batch_forward(circuit, &sample, &mut psi);
    let expectations = obs_qubits.iter().map(|&q| expect_z(&psi, q)).collect();

    let m = obs_qubits.len();
    let mut seeds = vec![0.0; m * n];
    for (o, &q) in obs_qubits.iter().enumerate() {
        seeds[o * n + q] = 1.0;
    }
    let n_params = circuit.n_params();
    let mut flat = vec![0.0; m * n_params];
    batch_vjp(circuit, &sample, &psi, &seeds, m, 0, &mut flat);
    let gradients = (0..m)
        .map(|o| flat[o * n_params..(o + 1) * n_params].to_vec())
        .collect();
    GradientResult {
        expectations,
        gradients,
    }
}

/// Convenience wrapper: gradients of ⟨Z_q⟩ for every qubit in the register.
pub fn adjoint_all_z(circuit: &Circuit) -> GradientResult {
    let qubits: Vec<usize> = (0..circuit.n_qubits()).collect();
    adjoint_gradients(circuit, &qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    fn finite_diff(circuit: &Circuit, obs: &[usize]) -> Vec<Vec<f64>> {
        let eps = 1e-6;
        let base = circuit.parameters();
        let mut grads = vec![vec![0.0; base.len()]; obs.len()];
        for k in 0..base.len() {
            let mut cp = circuit.clone();
            let mut pp = base.clone();
            pp[k] += eps;
            cp.set_parameters(&pp);
            let mut psi_p = StateVector::zero_state(circuit.n_qubits());
            psi_p.run(&cp);
            let mut pm = base.clone();
            pm[k] -= eps;
            cp.set_parameters(&pm);
            let mut psi_m = StateVector::zero_state(circuit.n_qubits());
            psi_m.run(&cp);
            for (o, &q) in obs.iter().enumerate() {
                grads[o][k] = (psi_p.expect_z(q) - psi_m.expect_z(q)) / (2.0 * eps);
            }
        }
        grads
    }

    #[test]
    fn single_ry_gradient() {
        let mut c = Circuit::new(1);
        c.push(Gate::ry(0, 0.9));
        let r = adjoint_gradients(&c, &[0]);
        assert!((r.expectations[0] - 0.9f64.cos()).abs() < 1e-12);
        assert!((r.gradients[0][0] + 0.9f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn matches_finite_difference_on_mixed_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::ry(0, 0.3));
        c.push(Gate::rx(1, -0.7));
        c.push(Gate::u3(2, 0.5, 0.2, -0.4));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cu3(1, 2, 0.8, -0.1, 0.6));
        c.push(Gate::rzz(0, 2, 0.4));
        c.push(Gate::h(0));
        c.push(Gate::crx(2, 0, 1.1));
        let obs = [0, 1, 2];
        let r = adjoint_gradients(&c, &obs);
        let fd = finite_diff(&c, &obs);
        for o in 0..obs.len() {
            for k in 0..c.n_params() {
                assert!(
                    (r.gradients[o][k] - fd[o][k]).abs() < 1e-5,
                    "obs {o} param {k}: adjoint {} vs fd {}",
                    r.gradients[o][k],
                    fd[o][k]
                );
            }
        }
    }

    #[test]
    fn unparameterized_circuit_has_empty_gradients() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let r = adjoint_all_z(&c);
        assert_eq!(r.gradients.len(), 2);
        assert!(r.gradients[0].is_empty());
        assert!((r.expectations[0]).abs() < 1e-12);
    }

    #[test]
    fn gradient_of_all_qubits_at_once() {
        let mut c = Circuit::new(2);
        c.push(Gate::ry(0, 0.4));
        c.push(Gate::ry(1, 1.3));
        c.push(Gate::cx(0, 1));
        let r = adjoint_all_z(&c);
        let fd = finite_diff(&c, &[0, 1]);
        for o in 0..2 {
            for k in 0..2 {
                assert!((r.gradients[o][k] - fd[o][k]).abs() < 1e-5);
            }
        }
    }
}
