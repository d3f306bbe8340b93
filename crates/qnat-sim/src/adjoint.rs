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
//! one seed per observable. The events are indexed by the gate they
//! follow once per call, so each gate finds its own.
//!
//! ## Sample lanes
//!
//! The per-sample algebra runs in sample lanes. Each qubit's own pending
//! products are stored struct-of-arrays in blocks of eight samples: for
//! every matrix entry one `[f64; 8]` of real parts and one of imaginary
//! parts, sample `i` in lane `i % 8` of block `i / 8`, with one bit per
//! sample marking those that hold a product of their own. The products
//! with a gate (`U·P`), the 4×4 folds at a two-qubit gate (`U·(P_a⊗P_b)`),
//! the generator conjugations (`P†·G·P`) and the contractions with the
//! cross matrices (one lane per sample and seed) are loops over lanes in
//! [`crate::kernels`], compiled for each instruction set the crate
//! dispatches on. A block with no lane that needs a result is skipped;
//! the other blocks compute every lane, and the lanes that need no result
//! are never read (the multiply needs no select).
//!
//! Every lane runs the same `f64` operations, in the same order, as the
//! scalar [`mat2_mul`], [`kron2`], [`mat4_mul`] and [`mat2_dagger`] do
//! for that sample alone (a 4×4 entry starts from `0.0`, as `mat4_mul`'s
//! does), Rust never fuses `a*b + c`, and lanes never mix. So the lanes
//! change no bit, and a sample's results still do not depend on its
//! batch. The identity stays implicit as before: a gate on a sample whose
//! product is the identity yields the gate's matrix itself, not its
//! product with `I`, which could flip the sign of a zero.
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
    apply_mat2, apply_mat2_rows, apply_mat4, apply_mat4_lanes, apply_mat4_rows, conjugate2_lanes,
    cross_mat2_lanes, fold4_lanes, lane_blocks, lane_get, lane_set, premul_lanes, prob_one_mass,
    re_contract_lanes, re_contract_shared_lanes, select, splat, Lane, LaneMask, Mat2Lanes,
    Mat4Lanes, MatLanes, LANES,
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

/// The most distinct bit patterns [`distinct_matrices1`] keeps.
/// Quantized inputs take a few (one per level); once this many are met,
/// every later sample builds its own matrix with no compare, so a batch
/// of all-distinct values costs at most `DISTINCT²/2` compares per gate.
const DISTINCT: usize = 8;

/// Every sample's matrix of a single-qubit gate into `own`, `build(i)`
/// called only for the first sample of each bit pattern of the values
/// for `slots` (the next samples of that pattern copy its matrix), and
/// for every sample once [`DISTINCT`] patterns were met before it.
fn distinct_matrices1(
    own: &mut Vec<Mat2>,
    samples: &[BatchSample<'_>],
    slots: &Range<usize>,
    mut build: impl FnMut(usize) -> Mat2,
) {
    own.clear();
    let mut seen = [0usize; DISTINCT];
    let mut n_seen = 0;
    for (i, s) in samples.iter().enumerate() {
        let alike = (n_seen < DISTINCT)
            .then(|| {
                let v = &s.params[slots.clone()];
                seen[..n_seen].iter().copied().find(|&j| {
                    samples[j].params[slots.clone()]
                        .iter()
                        .zip(v)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            })
            .flatten();
        let m = match alike {
            Some(j) => own[j],
            None => {
                if n_seen < DISTINCT {
                    seen[n_seen] = i;
                    n_seen += 1;
                }
                build(i)
            }
        };
        own.push(m);
    }
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

/// Every sample's error events, grouped by the template gate they follow.
struct EventIndex {
    /// `events[start[g]..start[g + 1]]` follow template gate `g`.
    start: Vec<usize>,
    /// `(gate index, sample, event)`, by gate index, then sample, then
    /// circuit order.
    events: Vec<(usize, usize, Gate)>,
}

impl EventIndex {
    fn new(n_gates: usize, samples: &[BatchSample<'_>]) -> EventIndex {
        let mut events: Vec<(usize, usize, Gate)> = samples
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.events.iter().map(move |&(at, e)| (at, i, e)))
            .collect();
        // A stable sort keeps sample order, and each sample's circuit
        // order, within a gate.
        events.sort_by_key(|&(at, _, _)| at);
        let mut start = vec![0usize; n_gates + 1];
        for &(at, _, _) in &events {
            start[at + 1] += 1;
        }
        for g in 0..n_gates {
            start[g + 1] += start[g];
        }
        EventIndex { start, events }
    }

    /// The events that run right after template gate `g`.
    fn at(&self, g: usize) -> &[(usize, usize, Gate)] {
        &self.events[self.start[g]..self.start[g + 1]]
    }
}

/// Writes `ms` into lane blocks, sample `i`'s matrix into lane `i`.
fn fill_lanes<const N: usize>(
    blocks: &mut Vec<MatLanes<N>>,
    batch: usize,
    ms: impl Iterator<Item = [[C64; N]; N]>,
) {
    blocks.resize(lane_blocks(batch), splat(&[[C64::ZERO; N]; N]));
    for (i, m) in ms.enumerate() {
        lane_set(blocks, i, &m);
    }
}

/// Lane buffers a sweep reuses from gate to gate.
struct LaneScratch {
    /// Every lane of every block.
    all: Vec<LaneMask>,
    /// Per-sample 2×2s: gate matrices or generators.
    u2: Vec<Mat2Lanes>,
    /// Two qubits' pending products, spelled out.
    a2: Vec<Mat2Lanes>,
    b2: Vec<Mat2Lanes>,
    /// Conjugated generators, and the same per sample and seed.
    m2: Vec<Mat2Lanes>,
    x2: Vec<Mat2Lanes>,
    /// A two-qubit gate's matrices, the lanes that need a fold, and the
    /// folds.
    u4: Vec<Mat4Lanes>,
    need4: Vec<LaneMask>,
    m4: Vec<Mat4Lanes>,
    /// Contractions, one lane per sample and seed.
    re: Vec<Lane>,
}

impl LaneScratch {
    fn new(batch: usize) -> LaneScratch {
        let blocks = lane_blocks(batch);
        LaneScratch {
            all: vec![LaneMask::MAX; blocks],
            u2: Vec::new(),
            a2: Vec::new(),
            b2: Vec::new(),
            m2: Vec::new(),
            x2: Vec::new(),
            u4: Vec::new(),
            need4: vec![0; blocks],
            m4: Vec::new(),
            re: Vec::new(),
        }
    }
}

/// The pending single-qubit products of one qubit across a batch: one
/// product the samples share, and a sample's own product once a gate
/// only it runs — an error event, or a gate whose parameters differ
/// between samples — has touched the qubit since the last two-qubit gate
/// on it. Own products live in sample lanes (see the module docs); a
/// sample's lane is read only while its bit in `own` is set.
struct Pending {
    shared: Option<Mat2>,
    lanes: Vec<Mat2Lanes>,
    /// Per lane block, the samples that have their own product.
    own: Vec<LaneMask>,
    n_own: usize,
    batch: usize,
}

impl Pending {
    fn new(batch: usize) -> Pending {
        let blocks = lane_blocks(batch);
        Pending {
            shared: None,
            lanes: vec![splat(&I2); blocks],
            own: vec![0; blocks],
            n_own: 0,
            batch,
        }
    }

    /// Sample `i`'s product (`None` is the identity).
    fn get(&self, i: usize) -> Option<Mat2> {
        if self.is_shared(i) {
            self.shared
        } else {
            Some(lane_get(&self.lanes, i))
        }
    }

    /// `true` while sample `i` uses the shared product.
    fn is_shared(&self, i: usize) -> bool {
        self.own[i / LANES] >> (i % LANES) & 1 == 0
    }

    /// Gives sample `i` its own product `U·P_i`.
    fn premul_one(&mut self, i: usize, u: &Mat2) {
        let p = premul(u, self.get(i));
        lane_set(&mut self.lanes, i, &p);
        if self.is_shared(i) {
            self.own[i / LANES] |= 1 << (i % LANES);
            self.n_own += 1;
        }
    }

    /// `U·P` for every sample.
    fn premul_all(&mut self, u: &Mat2) {
        self.shared = Some(premul(u, self.shared));
        if self.n_own > 0 {
            premul_lanes(&[splat(u)], &mut self.lanes, &self.own);
        }
    }

    /// Gives every sample `i` its own product `U_i·P_i`, with `U_i` in
    /// lane `i` of `u`. A sample whose product is the identity takes
    /// `U_i` itself.
    fn premul_each(&mut self, u: &[Mat2Lanes], all: &[LaneMask]) {
        match self.shared {
            None if self.n_own == 0 => self.lanes.copy_from_slice(u),
            None => {
                premul_lanes(u, &mut self.lanes, &self.own);
                for ((p, u), &own) in self.lanes.iter_mut().zip(u).zip(&self.own) {
                    select(p, u, !own);
                }
            }
            Some(s) => {
                let s = splat(&s);
                for (p, &own) in self.lanes.iter_mut().zip(&self.own) {
                    select(p, &s, !own);
                }
                premul_lanes(u, &mut self.lanes, all);
            }
        }
        self.own.copy_from_slice(all);
        self.n_own = self.batch;
    }

    /// Writes block `k` of every sample's product into `out[k]` for each
    /// block `need` marks: the lanes of samples without their own
    /// product hold the shared one, or the identity spelled out.
    fn spell(&self, need: &[LaneMask], out: &mut [Mat2Lanes]) {
        let fill = splat(&self.shared.unwrap_or(I2));
        for (k, (out, &need)) in out.iter_mut().zip(need).enumerate() {
            if need != 0 {
                *out = self.lanes[k];
                select(out, &fill, !self.own[k]);
            }
        }
    }

    /// Resets every sample's product to the identity.
    fn clear(&mut self) {
        self.shared = None;
        if self.n_own > 0 {
            self.own.fill(0);
            self.n_own = 0;
        }
    }
}

/// Applies a two-qubit gate on `(a, b)` to every sample's row of `buf`
/// (`width` amplitudes each). `us` holds the gate's matrix, one for the
/// whole batch or one per sample. Sample `i` gets `U_i·(P_a⊗P_b)` from
/// the two qubits' pending products, or `U_i` itself when both are the
/// identity: once for the samples that share the gate and both products,
/// in sample lanes for the rest. Each contiguous run of samples that
/// share the matrix is one kernel call, and the samples with a fold of
/// their own are one more.
#[allow(clippy::too_many_arguments)]
fn apply_two_qubit(
    buf: &mut [C64],
    width: usize,
    a: usize,
    b: usize,
    pa: &Pending,
    pb: &Pending,
    us: &[Mat4],
    lanes: &mut LaneScratch,
) {
    let batch = buf.len() / width;
    let one_gate = us.len() == 1;
    let shared = one_gate.then(|| fold4(&us[0], kron_pending(pa.shared, pb.shared)));
    let bare = pa.shared.is_none() && pb.shared.is_none();
    // The samples that need a fold of their own: those with an own
    // product, and every sample when the gate differs between samples
    // and a shared product is not the identity.
    let mut need_any = 0;
    for (k, need) in lanes.need4.iter_mut().enumerate() {
        *need = if one_gate || bare {
            pa.own[k] | pb.own[k]
        } else {
            LaneMask::MAX
        };
        need_any |= *need;
    }
    if need_any != 0 {
        lanes.u4.clear();
        if one_gate {
            lanes.u4.push(splat(&us[0]));
        } else {
            fill_lanes(&mut lanes.u4, batch, us.iter().copied());
        }
        let blocks = lanes.need4.len();
        lanes.a2.resize(blocks, splat(&I2));
        lanes.b2.resize(blocks, splat(&I2));
        lanes.m4.resize(blocks, splat(&[[C64::ZERO; 4]; 4]));
        pa.spell(&lanes.need4, &mut lanes.a2);
        pb.spell(&lanes.need4, &mut lanes.b2);
        fold4_lanes(&lanes.u4, &lanes.a2, &lanes.b2, &mut lanes.m4, &lanes.need4);
    }
    // The rest take the shared fold, in contiguous runs, or their own
    // gate matrix alone.
    let needs = |i: usize| lanes.need4[i / LANES] >> (i % LANES) & 1 != 0;
    let mut start = 0;
    while start < batch {
        if needs(start) {
            start += 1;
            continue;
        }
        let m = shared.unwrap_or_else(|| us[start]);
        let mut end = start + 1;
        if one_gate {
            while end < batch && !needs(end) {
                end += 1;
            }
        }
        apply_mat4_rows(&mut buf[start * width..end * width], a, b, &m);
        start = end;
    }
    if need_any != 0 {
        apply_mat4_lanes(buf, width, a, b, &lanes.m4, &lanes.need4);
    }
}

/// `Re Σ_ab A_i[a][b]·C_j[a][b]` into lane `j` of `re` for every lane
/// `j = i·n_seeds + s` of `cs`, with sample `i`'s `A_i` in lane `i` of
/// `a`.
fn contract_per_sample(
    a: &[Mat2Lanes],
    cs: &[Mat2Lanes],
    batch: usize,
    n_seeds: usize,
    x2: &mut Vec<Mat2Lanes>,
    re: &mut [Lane],
) {
    if n_seeds == 1 {
        re_contract_lanes(a, cs, re);
    } else {
        let pairs = batch * n_seeds;
        fill_lanes(x2, pairs, (0..pairs).map(|j| lane_get(a, j / n_seeds)));
        re_contract_lanes(x2, cs, re);
    }
}

/// One two-qubit gate's matrix for the batch (`us` holds one) or per
/// sample.
fn gate_matrices2(us: &mut Vec<Mat4>, one_gate: bool, batch: usize, at: impl Fn(usize) -> Gate) {
    us.clear();
    if one_gate {
        us.push(at(0).matrix2());
    } else {
        us.extend((0..batch).map(|i| at(i).matrix2()));
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
    let events = EventIndex::new(template.len(), samples);
    let mut lanes = LaneScratch::new(batch);
    let mut us = Vec::new();
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
                fill_lanes(&mut lanes.u2, batch, (0..batch).map(|i| at(i).matrix1()));
                p.premul_each(&lanes.u2, &lanes.all);
            }
        } else {
            let [a, b] = g.qubits;
            gate_matrices2(&mut us, one_gate, batch, at);
            apply_two_qubit(states, dim, a, b, &pending[a], &pending[b], &us, &mut lanes);
            pending[a].clear();
            pending[b].clear();
        }
        for &(_, i, e) in events.at(gi) {
            pending[e.qubits[0]].premul_one(i, &e.matrix1());
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
    let blocks = lane_blocks(batch);
    // The cross matrices run in one lane per sample and seed: lane
    // `i·n_seeds + s` holds C_s of sample i, the row of `grads` it
    // contracts into. `cross[q·seed_blocks ..][..seed_blocks]` is qubit
    // q's, valid while `cross_valid[q]`.
    let seed_blocks = lane_blocks(batch * n_seeds);
    let mut cross = vec![splat(&I2); n * seed_blocks];
    let mut cross_valid = vec![false; n];
    let events = EventIndex::new(template.len(), samples);
    let mut own1: Vec<Mat2> = Vec::new();
    let mut lanes = LaneScratch::new(batch);
    lanes.re.resize(seed_blocks, [0.0; LANES]);
    let mut us = Vec::new();
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
        for &(_, i, e) in events.at(gi).iter().rev() {
            pending[e.qubits[0]].premul_one(i, &mat2_dagger(&e.matrix1()));
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
                // One matrix per distinct bit pattern: quantized inputs
                // repeat a few values across the batch.
                distinct_matrices1(&mut own1, samples, &slots, |i| at(i).matrix1());
            }
            if np > 0 {
                let cs = &mut cross[q * seed_blocks..(q + 1) * seed_blocks];
                if !cross_valid[q] {
                    cross_mat2_lanes(&buf, width, dim, q, cs);
                    cross_valid[q] = true;
                }
                let p = &pending[q];
                for slot in 0..np {
                    // A_i = P_i†·G_i·P_i, or G_i itself while P_i is the
                    // identity: one A for the batch while every sample
                    // shares P and G (RZ's generator does not depend on
                    // its angle), otherwise A_i in lane i of `lanes.m2`.
                    let one_gen = one_gate || g.kind == GateKind::Rz;
                    let one_a = if one_gen {
                        let gen = generator1(&g0, slot, &u0);
                        let a = p.shared.map_or(gen, |pq| conjugate2(&gen, &pq));
                        if p.n_own > 0 {
                            let a = splat(&a);
                            lanes.m2.clear();
                            lanes.m2.resize(blocks, a);
                            conjugate2_lanes(&[splat(&gen)], &p.lanes, &mut lanes.m2, &p.own);
                            for (m, &own) in lanes.m2.iter_mut().zip(&p.own) {
                                select(m, &a, !own);
                            }
                        }
                        (p.n_own == 0).then_some(a)
                    } else {
                        let gens = (0..batch).map(|i| generator1(&at(i), slot, &own1[i]));
                        fill_lanes(&mut lanes.u2, batch, gens);
                        lanes.m2.resize(blocks, splat(&I2));
                        if p.shared.is_some() {
                            lanes.a2.resize(blocks, splat(&I2));
                            p.spell(&lanes.all, &mut lanes.a2);
                            conjugate2_lanes(&lanes.u2, &lanes.a2, &mut lanes.m2, &lanes.all);
                        } else {
                            conjugate2_lanes(&lanes.u2, &p.lanes, &mut lanes.m2, &p.own);
                            for ((m, u), &own) in lanes.m2.iter_mut().zip(&lanes.u2).zip(&p.own) {
                                select(m, u, !own);
                            }
                        }
                        None
                    };
                    match one_a {
                        Some(a) => re_contract_shared_lanes(&a, cs, &mut lanes.re),
                        None => {
                            let (m2, x2) = (&lanes.m2, &mut lanes.x2);
                            contract_per_sample(m2, cs, batch, n_seeds, x2, &mut lanes.re);
                        }
                    }
                    for j in 0..batch * n_seeds {
                        grads[j * n_params + slots.start + slot] =
                            2.0 * lanes.re[j / LANES][j % LANES];
                    }
                }
            }
            let p = &mut pending[q];
            if one_gate {
                p.premul_all(&mat2_dagger(&u0));
            } else {
                fill_lanes(&mut lanes.u2, batch, own1.iter().map(mat2_dagger));
                p.premul_each(&lanes.u2, &lanes.all);
            }
        } else {
            let [a, b] = g.qubits;
            gate_matrices2(&mut us, one_gate, batch, at);
            let (pa, pb) = (&pending[a], &pending[b]);
            for slot in 0..np {
                let dgen = |i: usize, p: Option<Mat4>| {
                    let gen = generator2(&at(i), slot, &us[if one_gate { 0 } else { i }]);
                    p.map_or(gen, |p| conjugate4(&gen, &p))
                };
                let d0 = one_gate.then(|| dgen(0, kron_pending(pa.shared, pb.shared)));
                for (i, row) in buf.chunks_exact(width).enumerate() {
                    let d = match d0 {
                        Some(d) if pa.is_shared(i) && pb.is_shared(i) => d,
                        _ => dgen(i, kron_pending(pa.get(i), pb.get(i))),
                    };
                    let (psi, lambdas) = row.split_at(dim);
                    scratch.copy_from_slice(psi);
                    apply_mat4(&mut scratch, a, b, &d);
                    for (s, lambda) in lambdas.chunks_exact(dim).enumerate() {
                        grads[grad_at(i, s, slots.start + slot)] = 2.0 * re_inner(lambda, &scratch);
                    }
                }
            }
            for u in &mut us {
                *u = mat4_dagger(u);
            }
            apply_two_qubit(&mut buf, width, a, b, pa, pb, &us, &mut lanes);
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

    #[test]
    fn distinct_matrices_build_once_per_bit_pattern() {
        let built = |values: &[f64]| {
            let rows: Vec<[f64; 2]> = values.iter().map(|&v| [v, 9.0]).collect();
            let samples: Vec<BatchSample<'_>> = rows
                .iter()
                .map(|r| BatchSample {
                    params: r,
                    events: &[],
                })
                .collect();
            let (mut own, mut calls) = (Vec::new(), Vec::new());
            distinct_matrices1(&mut own, &samples, &(0..2), |i| {
                calls.push(i);
                Gate::ry(0, values[i]).matrix1()
            });
            for (m, &v) in own.iter().zip(values) {
                assert_eq!(*m, Gate::ry(0, v).matrix1());
            }
            calls
        };
        // -0.0 and 0.0 differ in their bits, so they build apart.
        assert_eq!(built(&[0.5, 1.5, 0.5, -0.0, 0.0, 1.5]), [0, 1, 3, 4]);
        // Once `DISTINCT` patterns are met, every sample builds, even a
        // repeat.
        let mut values: Vec<f64> = (0..DISTINCT + 2).map(|i| i as f64).collect();
        values.extend([1.0, DISTINCT as f64]);
        let all: Vec<usize> = (0..values.len()).collect();
        assert_eq!(built(&values), all);
    }

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
