//! Low-level gate-application kernels shared by the statevector and
//! density-matrix simulators.
//!
//! All kernels operate on a raw amplitude slice of power-of-two length and
//! interpret "qubit `q`" as bit `q` of the index (little-endian). The
//! density-matrix simulator reuses them through the `vec(ρ)` isomorphism:
//! `ρ → UρU†` becomes `(U ⊗ U*)·vec(ρ)`, so a ket-side update targets bit
//! `q + n` and a bra-side update targets bit `q` with the conjugated matrix.
//!
//! ## Loop layout
//!
//! Qubit bounds are validated **once** at the (cold) dispatch boundary —
//! real `assert!`s, active in release builds, because an out-of-range
//! qubit would otherwise silently corrupt amplitudes or mask the shift
//! amount. The hot loops then walk the slice through `chunks_exact` /
//! `split_at_mut` sub-slices whose lengths are fixed per call, so the
//! compiler can hoist every bounds check out of the inner loop and keep
//! the loop body branch-free. [`apply_mat4`] enumerates exactly the
//! `len/4` block-base indices via nested chunking instead of scanning all
//! `len` indices and discarding three quarters of them.
//!
//! That layout pays per block, so blocks of a few amplitudes change the
//! loop order: on the 16-amplitude rows of a training batch a low-bit
//! block holds one to four quads or a single pair, and building its
//! sub-slices costs more than mixing it.
//!
//! * [`apply_mat4`] on two bits whose block is at most `SMALL_BLOCK` (16)
//!   amplitudes takes each in-block base offset on the outside and the
//!   blocks on the inside, one `TILE` (16 KiB) of the slice at a time, so
//!   the inner loop runs over many blocks and a large state still passes
//!   through the cache once per tile.
//! * [`apply_mat2`] on bit 0 walks the adjacent pairs directly. On bits
//!   1–3 the nested loop is as fast (bit 1) or faster (its inner runs of
//!   4 and 8 pairs unroll well), so it stays.
//! * The cross matrix keeps its loop: its sums must add up in block
//!   order, and indexing the pairs in place measured no faster.
//!
//! Each loop order is a kernel of its own, out of line, so one cannot
//! shift the other's codegen. Only independent updates change order, so
//! every amplitude gets exactly the same arithmetic on either layout
//! (pinned bit for bit by the `oracle` tests against the nested-chunk
//! loops).
//!
//! The public kernels take one power-of-two state. The crate-internal
//! `*_rows` variants take a `[batch, 2ⁿ]` buffer of states laid end to
//! end: every kernel only pairs amplitudes inside `2^(q+1)`-aligned
//! blocks, so one call applies the same matrix to every state, with the
//! same arithmetic per amplitude as one call per state.
//!
//! ## Instruction sets
//!
//! The crate is built for baseline x86-64 (SSE2: two `f64` lanes), but
//! most hosts run AVX2 (four) or AVX-512 (eight). Each hot loop — the
//! four mixing loops, the cross matrix, and the monomial Kraus-term pass
//! of [`DensityMatrix::apply_channel1_with`](crate::density::DensityMatrix::apply_channel1_with)
//! — is written once, as an `#[inline(always)]` body, and the `per_isa!`
//! macro compiles that one body three times: inlined into the loop's
//! `#[inline(never)]` entry (the baseline copy), and into one out-of-line
//! `#[target_feature(enable = "avx2")]` and one `"avx512f"` copy. The
//! widest level this CPU runs is detected once per process, and every
//! entry runs that level's copy. Other targets compile the body alone.
//! [`prob_one_mass`] keeps one loop: it adds its terms into one running
//! sum, so wider lanes would have to reorder the additions.
//!
//! The batch engine's per-sample algebra ([`crate::adjoint`], "Sample
//! lanes") is compiled the same way: five loops over lane blocks of
//! eight samples each — `U·P` (`premul_lanes`), `U·(A⊗B)`
//! (`fold4_lanes`), `P†·G·P` (`conjugate2_lanes`) and the contraction
//! `Re Σ A·C` (`re_contract_lanes`, and `re_contract_shared_lanes` for
//! one `A` in every lane). A block holds one `[f64; 8]` per matrix entry
//! and re/im part, so a lane's arithmetic is one column of independent
//! operations: AVX-512 runs a block's lanes in one register, AVX2 in
//! two, SSE2 in four. Two row loops feed and drain the lanes, one call
//! per gate for the whole batch: `apply_mat4_lanes` applies each marked
//! row's own 4×4 from its lane, and `cross_mat2_lanes` writes every
//! row's cross matrices into lanes (row by row, each sum in block
//! order).
//!
//! The copies compute the same bits. Rust never contracts `a*b + c` into
//! a fused multiply-add (not even where the enabled features include
//! FMA), and wider registers only run more independent amplitudes side
//! by side: each amplitude, and each cross-matrix sum, keeps its
//! operation order, as does each lane. The `oracle` tests pin every copy
//! the host runs to the nested-chunk loops bit for bit, the
//! `channel_oracle` tests pin every copy of the Kraus-term pass to the
//! dense Kraus loop it replaced (equal amplitudes, equal bits on every
//! nonzero part; see [`crate::density`] for why only a zero's sign may
//! differ), the
//! `lane_oracle` tests pin every lane to the scalar `mat2_mul`, `kron2`,
//! `mat4_mul` and contraction, and `qnat-core`'s `bit_pins`
//! test pins a noisy training run and the emulator's ⟨Z⟩ to hashes
//! recorded before the copies existed.
//!
//! The only `unsafe` in the crate is the call from an entry into a wide
//! copy, in the arm of a `match` whose guard has just detected that
//! copy's feature on this CPU (`is_x86_feature_detected!` reads a cache
//! the standard library fills once per process). The bounds checks stay
//! at the dispatch boundary, before the entry, so every copy runs on
//! validated arguments.

use crate::channel::Monomial;
use crate::math::{Mat2, Mat4, C64};
use std::sync::OnceLock;

/// The largest block, in amplitudes, the small-block 4×4 loop handles:
/// a block of bits 0–3, one 16-amplitude state of a 4-qubit register.
const SMALL_BLOCK: usize = 16;

/// Amplitudes the small-block 4×4 loop finishes before moving on
/// (16 KiB): each offset pass re-reads its tile, which then still sits in
/// L1.
const TILE: usize = 1024;

/// An instruction-set level the hot loops are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The target's baseline (SSE2 on x86-64): the body inlined into
    /// each entry.
    Baseline,
    /// The `#[target_feature(enable = "avx2")]` copies.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The `#[target_feature(enable = "avx512f")]` copies.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every level, narrowest first.
    const ALL: &'static [Isa] = &[
        Isa::Baseline,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ];

    /// Whether this CPU runs the level's instructions.
    fn runs_here(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }

    /// The widest level this CPU runs, detected once per process.
    fn widest() -> Isa {
        static WIDEST: OnceLock<Isa> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            Isa::ALL
                .iter()
                .rev()
                .copied()
                .find(|isa| isa.runs_here())
                .unwrap_or(Isa::Baseline)
        })
    }

    /// Every level this CPU runs, narrowest first.
    #[cfg(test)]
    fn supported() -> Vec<Isa> {
        Isa::ALL
            .iter()
            .copied()
            .filter(|isa| isa.runs_here())
            .collect()
    }
}

/// Defines each hot loop's `#[inline(never)]` entry from its
/// `#[inline(always)]` body: `fn name(args) -> ret = body;` becomes
/// `fn name(isa: Isa, args) -> ret`, which runs the copy of `body`
/// compiled for `isa`. The baseline copy is `body` inlined into the
/// entry; the wide copies live in the `avx2` and `avx512` modules. An
/// entry asked for a level this CPU lacks runs the baseline copy.
macro_rules! per_isa {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;
    )+) => {
        $(
            $(#[$attr])*
            #[inline(never)]
            fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
                match isa {
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 if is_x86_feature_detected!("avx512f") => {
                        // SAFETY: the guard just detected avx512f, the
                        // only feature the copy enables.
                        unsafe { avx512::$name($($arg),*) }
                    }
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 if is_x86_feature_detected!("avx2") => {
                        // SAFETY: the guard just detected avx2, the only
                        // feature the copy enables.
                        unsafe { avx2::$name($($arg),*) }
                    }
                    _ => $body($($arg),*),
                }
            }
        )+

        /// The hot loops compiled for AVX2.
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            use super::*;
            $(
                #[target_feature(enable = "avx2")]
                pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
            )+
        }

        /// The hot loops compiled for AVX-512.
        #[cfg(target_arch = "x86_64")]
        mod avx512 {
            use super::*;
            $(
                #[target_feature(enable = "avx512f")]
                pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
            )+
        }
    };
}

per_isa! {
    /// The hot loop of [`apply_mat2`]. The matrix entries arrive as
    /// by-value arguments of a function that is never inlined, so they
    /// stay in registers for the whole loop. Compiled inline, whether LLVM
    /// kept re-loading them through the `&Mat2` (and guarded the vector
    /// loop with run-time overlap checks) depended on which other
    /// functions shared the codegen unit, so unrelated edits elsewhere in
    /// the crate could swing `apply_mat2`'s speed by ~1.5×.
    fn mix_pairs(
        amps: &mut [C64],
        bit: usize,
        m00: C64,
        m01: C64,
        m10: C64,
        m11: C64,
    ) = mix_pairs_body;

    /// [`mix_pairs`] on bit 0, where every block is one adjacent pair: the
    /// pairs are walked directly instead of split into two one-amplitude
    /// halves each.
    fn mix_adjacent_pairs(
        amps: &mut [C64],
        m00: C64,
        m01: C64,
        m10: C64,
        m11: C64,
    ) = mix_adjacent_pairs_body;

    /// The hot loop of [`apply_mat4`], never inlined and handed the matrix
    /// by value for the same reason as [`mix_pairs`]: its speed must
    /// not depend on which callers share its codegen unit.
    fn mix_quads(amps: &mut [C64], ba: usize, bb: usize, m: Mat4) = mix_quads_body;

    /// [`mix_quads`] for two bits whose block is at most `SMALL_BLOCK`
    /// amplitudes, offset-major: each base offset with both bits clear,
    /// then its quad in every block of a tile.
    fn mix_small_quads(amps: &mut [C64], ba: usize, bb: usize, m: Mat4) = mix_small_quads_body;

    /// The loop of [`kraus_term`], handed the operator by value for the
    /// same reason as [`mix_pairs`].
    fn kraus_quads(
        rho: &[C64],
        out: &mut [C64],
        bits: [usize; 2],
        col: [usize; 2],
        k: [C64; 2],
        add: bool,
    ) = kraus_quads_body;

    /// The loop of [`apply_mat4_lanes`].
    fn mix_quads_lanes(
        amps: &mut [C64],
        width: usize,
        ba: usize,
        bb: usize,
        ms: &[Mat4Lanes],
        mask: &[LaneMask],
    ) = mix_quads_lanes_body;

    /// The loop of [`cross_mat2_lanes`].
    fn cross_pairs_lanes(buf: &[C64], width: usize, dim: usize, bit: usize, out: &mut [Mat2Lanes]) =
        cross_pairs_lanes_body;

    /// The loop of [`premul_lanes`].
    fn premul_blocks(u: &[Mat2Lanes], p: &mut [Mat2Lanes], mask: &[LaneMask]) =
        premul_blocks_body;

    /// The loop of [`fold4_lanes`].
    fn fold4_blocks(
        u: &[Mat4Lanes],
        a: &[Mat2Lanes],
        b: &[Mat2Lanes],
        out: &mut [Mat4Lanes],
        mask: &[LaneMask],
    ) = fold4_blocks_body;

    /// The loop of [`conjugate2_lanes`].
    fn conjugate2_blocks(
        g: &[Mat2Lanes],
        p: &[Mat2Lanes],
        out: &mut [Mat2Lanes],
        mask: &[LaneMask],
    ) = conjugate2_blocks_body;

    /// The loop of [`re_contract_lanes`].
    fn re_contract_blocks(a: &[Mat2Lanes], c: &[Mat2Lanes], out: &mut [Lane]) =
        re_contract_blocks_body;

    /// The loop of [`re_contract_shared_lanes`].
    fn re_contract_shared_blocks(a: Mat2, c: &[Mat2Lanes], out: &mut [Lane]) =
        re_contract_shared_blocks_body;
}

/// Validates `q` against an amplitude slice of length `len` holding one
/// state or several states laid end to end, and returns the bit mask
/// `1 << q`.
///
/// # Panics
///
/// Panics unless `len` is a multiple of the `2^(q+1)` amplitudes that bit
/// `q` pairs up: for one power-of-two state that is `q < log2(len)`. This
/// is a real (release-mode) check: the hot loops below rely on it and run
/// branch-free.
#[inline]
fn checked_bit(len: usize, q: usize) -> usize {
    // `2^(q+1)` divides `len` iff `len`'s low `q + 1` bits are clear.
    assert!(
        q + 1 < usize::BITS as usize && len & ((2usize << q) - 1) == 0,
        "qubit {q} out of range for an amplitude slice of length {len}"
    );
    1usize << q
}

/// Validates that `len` is the length of one state: a power of two.
#[inline]
fn checked_state(len: usize) {
    assert!(
        len.is_power_of_two(),
        "amplitude slice length {len} is not a power of two"
    );
}

/// Applies a 2×2 matrix to bit `q` of every index of `amps`.
///
/// # Panics
///
/// Panics if `amps.len()` is not a power of two or `q` is out of range
/// (checked once, before the branch-free hot loop).
// Out of line on purpose: inlined into the density-matrix callers
// (`DensityMatrix::apply_gate`), this small wrapper
// made the served emulator workload ~10% slower.
#[inline(never)]
pub fn apply_mat2(amps: &mut [C64], q: usize, m: &Mat2) {
    checked_state(amps.len());
    apply_mat2_rows(amps, q, m);
}

/// [`apply_mat2`] on every state of a `[batch, 2ⁿ]` buffer at once.
///
/// # Panics
///
/// Panics if `amps.len()` is not a multiple of the `2^(q+1)` amplitudes
/// bit `q` pairs up.
pub(crate) fn apply_mat2_rows(amps: &mut [C64], q: usize, m: &Mat2) {
    mat2_rows_on(Isa::widest(), amps, q, m);
}

/// [`apply_mat2_rows`] on the copies compiled for `isa`.
fn mat2_rows_on(isa: Isa, amps: &mut [C64], q: usize, m: &Mat2) {
    let bit = checked_bit(amps.len(), q);
    let [[m00, m01], [m10, m11]] = *m;
    if bit == 1 {
        mix_adjacent_pairs(isa, amps, m00, m01, m10, m11);
    } else {
        mix_pairs(isa, amps, bit, m00, m01, m10, m11);
    }
}

#[inline(always)]
fn mix_pairs_body(amps: &mut [C64], bit: usize, m00: C64, m01: C64, m10: C64, m11: C64) {
    // Each 2·bit block splits into a low half (bit clear) and a high half
    // (bit set); zipping the halves pairs partner amplitudes with no index
    // arithmetic or bounds checks in the loop body.
    for block in amps.chunks_exact_mut(bit << 1) {
        let (lo, hi) = block.split_at_mut(bit);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = m00 * x0 + m01 * x1;
            *a1 = m10 * x0 + m11 * x1;
        }
    }
}

#[inline(always)]
fn mix_adjacent_pairs_body(amps: &mut [C64], m00: C64, m01: C64, m10: C64, m11: C64) {
    for [a0, a1] in amps.as_chunks_mut::<2>().0 {
        let x0 = *a0;
        let x1 = *a1;
        *a0 = m00 * x0 + m01 * x1;
        *a1 = m10 * x0 + m11 * x1;
    }
}

/// Applies a 4×4 matrix to bits `(qa, qb)` of every index of `amps`, with
/// the matrix given in the basis `index = 2·bit(qa) + bit(qb)`.
///
/// # Panics
///
/// Panics if `amps.len()` is not a power of two, either qubit is out of
/// range, or `qa == qb` (checked once, before the branch-free hot loop).
pub fn apply_mat4(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    checked_state(amps.len());
    apply_mat4_rows(amps, qa, qb, m);
}

/// [`apply_mat4`] on every state of a `[batch, 2ⁿ]` buffer at once.
///
/// # Panics
///
/// Panics if `amps.len()` is not a multiple of the block either qubit
/// addresses, or `qa == qb`.
pub(crate) fn apply_mat4_rows(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    mat4_rows_on(Isa::widest(), amps, qa, qb, m);
}

/// [`apply_mat4_rows`] on the copies compiled for `isa`.
fn mat4_rows_on(isa: Isa, amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    let ba = checked_bit(amps.len(), qa);
    let bb = checked_bit(amps.len(), qb);
    assert!(qa != qb, "two-qubit kernel addresses qubit {qa} twice");
    if ba.max(bb) << 1 <= SMALL_BLOCK {
        mix_small_quads(isa, amps, ba, bb, *m);
    } else {
        mix_quads(isa, amps, ba, bb, *m);
    }
}

#[inline(always)]
fn mix_quads_body(amps: &mut [C64], ba: usize, bb: usize, m: Mat4) {
    let [[m00, m01, m02, m03], [m10, m11, m12, m13], [m20, m21, m22, m23], [m30, m31, m32, m33]] =
        m;
    let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
    // Nested chunking enumerates exactly the len/4 base indices with both
    // bits clear: outer blocks of 2·hi split on the high bit, inner blocks
    // of 2·lo split on the low bit. `hi ≥ 2·lo`, so the inner chunking
    // tiles each half exactly.
    for outer in amps.chunks_exact_mut(hi << 1) {
        let (top, bot) = outer.split_at_mut(hi);
        for (sub_t, sub_b) in top
            .chunks_exact_mut(lo << 1)
            .zip(bot.chunks_exact_mut(lo << 1))
        {
            let (t0, t1) = sub_t.split_at_mut(lo);
            let (b0, b1) = sub_b.split_at_mut(lo);
            // Matrix basis index 1 is "bb set only", index 2 "ba set only":
            // pick which physical half carries which logical index.
            let (x1, x2) = if bb == lo { (t1, b0) } else { (b0, t1) };
            for (((a0, a1), a2), a3) in t0
                .iter_mut()
                .zip(x1.iter_mut())
                .zip(x2.iter_mut())
                .zip(b1.iter_mut())
            {
                let v0 = *a0;
                let v1 = *a1;
                let v2 = *a2;
                let v3 = *a3;
                *a0 = m00 * v0 + m01 * v1 + m02 * v2 + m03 * v3;
                *a1 = m10 * v0 + m11 * v1 + m12 * v2 + m13 * v3;
                *a2 = m20 * v0 + m21 * v1 + m22 * v2 + m23 * v3;
                *a3 = m30 * v0 + m31 * v1 + m32 * v2 + m33 * v3;
            }
        }
    }
}

#[inline(always)]
fn mix_small_quads_body(amps: &mut [C64], ba: usize, bb: usize, m: Mat4) {
    let [[m00, m01, m02, m03], [m10, m11, m12, m13], [m20, m21, m22, m23], [m30, m31, m32, m33]] =
        m;
    let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
    let block_len = hi << 1;
    // `TILE` is a multiple of every small block, so tiles hold whole
    // blocks. Matrix basis index 1 is "bb set only", index 2 "ba set
    // only", index 3 both.
    for tile in amps.chunks_mut(TILE) {
        for j in (0..hi).filter(|j| j & lo == 0) {
            for block in tile.chunks_exact_mut(block_len) {
                let v0 = block[j];
                let v1 = block[j + bb];
                let v2 = block[j + ba];
                let v3 = block[j + ba + bb];
                block[j] = m00 * v0 + m01 * v1 + m02 * v2 + m03 * v3;
                block[j + bb] = m10 * v0 + m11 * v1 + m12 * v2 + m13 * v3;
                block[j + ba] = m20 * v0 + m21 * v1 + m22 * v2 + m23 * v3;
                block[j + ba + bb] = m30 * v0 + m31 * v1 + m32 * v2 + m33 * v3;
            }
        }
    }
}

/// Probability mass on indices with bit `q` set: `Σ |amps[i]|²` over
/// `i & (1<<q) != 0`, accumulated block-wise with no per-index branch.
///
/// Shared by [`StateVector::prob_one`](crate::statevector::StateVector)
/// and the measurement helpers.
///
/// # Panics
///
/// Panics if `amps.len()` is not a power of two or `q` is out of range.
pub fn prob_one_mass(amps: &[C64], q: usize) -> f64 {
    checked_state(amps.len());
    let bit = checked_bit(amps.len(), q);
    amps.chunks_exact(bit << 1)
        .map(|block| block[bit..].iter().map(|a| a.norm_sqr()).sum::<f64>())
        .sum()
}

/// Cross matrices on bit `q` of every row of a `[batch, width]` buffer
/// whose rows hold a state `ψ` (the first `dim` amplitudes) and then
/// `n_seeds` co-states `λ_s`: lane `i·n_seeds + s` of `out` gets
/// `C[a][b] = Σ_r conj(λ_{i,s}[r,a])·ψ_i[r,b]`, where `r` runs over the
/// other bits, so `⟨λ|A_q|ψ⟩ = Σ_ab A[a][b]·C[a][b]` for any 2×2 `A` on
/// `q`.
///
/// # Panics
///
/// Panics if `dim` is not a power of two, `q` is out of range for it,
/// `width` is not a multiple of `dim` that holds a co-state, or `out` is
/// not the lane blocks of `batch·n_seeds` lanes.
pub(crate) fn cross_mat2_lanes(
    buf: &[C64],
    width: usize,
    dim: usize,
    q: usize,
    out: &mut [Mat2Lanes],
) {
    cross_mat2_lanes_on(Isa::widest(), buf, width, dim, q, out);
}

/// [`cross_mat2_lanes`] on the copy compiled for `isa`.
fn cross_mat2_lanes_on(
    isa: Isa,
    buf: &[C64],
    width: usize,
    dim: usize,
    q: usize,
    out: &mut [Mat2Lanes],
) {
    checked_state(dim);
    let bit = checked_bit(dim, q);
    assert!(
        width > dim && width.is_multiple_of(dim) && buf.len().is_multiple_of(width),
        "rows of {width} amplitudes do not hold a state of {dim} and its co-states"
    );
    let pairs = buf.len() / width * (width / dim - 1);
    assert_eq!(
        out.len(),
        lane_blocks(pairs),
        "one lane per state and co-state"
    );
    cross_pairs_lanes(isa, buf, width, dim, bit, out);
}

/// The cross matrix of two states on bit mask `bit`, added up in block
/// order.
#[inline(always)]
fn cross_pairs_body(psi: &[C64], lam: &[C64], bit: usize) -> Mat2 {
    let (mut c00, mut c01, mut c10, mut c11) = (C64::ZERO, C64::ZERO, C64::ZERO, C64::ZERO);
    for (pb, lb) in psi.chunks_exact(bit << 1).zip(lam.chunks_exact(bit << 1)) {
        let (p0, p1) = pb.split_at(bit);
        let (l0, l1) = lb.split_at(bit);
        for (((x0, x1), y0), y1) in p0.iter().zip(p1).zip(l0).zip(l1) {
            let (y0, y1) = (y0.conj(), y1.conj());
            c00 += y0 * *x0;
            c01 += y0 * *x1;
            c10 += y1 * *x0;
            c11 += y1 * *x1;
        }
    }
    [[c00, c01], [c10, c11]]
}

#[inline(always)]
fn cross_pairs_lanes_body(
    buf: &[C64],
    width: usize,
    dim: usize,
    bit: usize,
    out: &mut [Mat2Lanes],
) {
    let n_seeds = width / dim - 1;
    for (i, row) in buf.chunks_exact(width).enumerate() {
        let (psi, lambdas) = row.split_at(dim);
        for (s, lam) in lambdas.chunks_exact(dim).enumerate() {
            lane_set(out, i * n_seeds + s, &cross_pairs_body(psi, lam, bit));
        }
    }
}

/// Applies sample `i`'s 4×4 from lane `i` of `ms` to bits `(qa, qb)` of
/// row `i` of a `[batch, width]` buffer (a row may hold several states
/// end to end), for every sample `mask` marks: bit for bit what
/// [`apply_mat4_rows`] does to that row alone with that matrix. Other
/// rows are left as they are.
///
/// # Panics
///
/// Panics if `width` is not a multiple of the block either qubit
/// addresses, `qa == qb`, or `ms` and `mask` are not the lane blocks of
/// the buffer's rows.
pub(crate) fn apply_mat4_lanes(
    amps: &mut [C64],
    width: usize,
    qa: usize,
    qb: usize,
    ms: &[Mat4Lanes],
    mask: &[LaneMask],
) {
    apply_mat4_lanes_on(Isa::widest(), amps, width, qa, qb, ms, mask);
}

/// [`apply_mat4_lanes`] on the copy compiled for `isa`.
fn apply_mat4_lanes_on(
    isa: Isa,
    amps: &mut [C64],
    width: usize,
    qa: usize,
    qb: usize,
    ms: &[Mat4Lanes],
    mask: &[LaneMask],
) {
    let ba = checked_bit(width, qa);
    let bb = checked_bit(width, qb);
    assert!(qa != qb, "two-qubit kernel addresses qubit {qa} twice");
    assert!(
        width > 0 && amps.len().is_multiple_of(width),
        "a buffer of {} amplitudes in rows of {width}",
        amps.len()
    );
    let blocks = lane_blocks(amps.len() / width);
    assert!(
        ms.len() == blocks && mask.len() == blocks,
        "one lane per row"
    );
    mix_quads_lanes(isa, amps, width, ba, bb, ms, mask);
}

#[inline(always)]
fn mix_quads_lanes_body(
    amps: &mut [C64],
    width: usize,
    ba: usize,
    bb: usize,
    ms: &[Mat4Lanes],
    mask: &[LaneMask],
) {
    let small = ba.max(bb) << 1 <= SMALL_BLOCK;
    for (i, row) in amps.chunks_exact_mut(width).enumerate() {
        if mask[i / LANES] >> (i % LANES) & 1 != 0 {
            let m = lane_get(ms, i);
            if small {
                mix_small_quads_body(row, ba, bb, m);
            } else {
                mix_quads_body(row, ba, bb, m);
            }
        }
    }
}

/// One Kraus term of a single-qubit channel on `vec(ρ)`, for an operator
/// in [`Monomial`] form: row `r` of `K` holds `k_r` in column `c(r)` and
/// zeros elsewhere (see [`crate::channel`]). With ket bit `ket` and bra
/// bit `bra`, every amplitude `(r, s)` of those two bits gets
///
/// ```text
/// conj(k_s)·(k_r·ρ[c(r)][c(s)]),
/// ```
///
/// which `out` takes (`add == false`) or adds to itself (`add == true`).
///
/// # Panics
///
/// Panics if the slices differ in length, their length is not a power of
/// two, either bit is out of range, `ket <= bra`, or a column is not 0
/// or 1.
pub(crate) fn kraus_term(
    rho: &[C64],
    out: &mut [C64],
    ket: usize,
    bra: usize,
    term: &Monomial,
    add: bool,
) {
    kraus_term_on(Isa::widest(), rho, out, ket, bra, term, add);
}

/// [`kraus_term`] on the copy compiled for `isa`.
fn kraus_term_on(
    isa: Isa,
    rho: &[C64],
    out: &mut [C64],
    ket: usize,
    bra: usize,
    term: &Monomial,
    add: bool,
) {
    assert_eq!(rho.len(), out.len(), "a Kraus term between unequal slices");
    checked_state(rho.len());
    let kb = checked_bit(rho.len(), ket);
    let bb = checked_bit(rho.len(), bra);
    assert!(
        ket > bra,
        "the ket bit {ket} must lie above the bra bit {bra}"
    );
    assert!(
        term.col.iter().all(|&c| c < 2),
        "a Kraus column must be 0 or 1"
    );
    kraus_quads(isa, rho, out, [kb, bb], term.col, term.value, add);
}

#[inline(always)]
fn kraus_quads_body(
    rho: &[C64],
    out: &mut [C64],
    bits: [usize; 2],
    col: [usize; 2],
    k: [C64; 2],
    add: bool,
) {
    if add {
        monomial_quads(rho, out, bits, col, k, |o, v| *o += v);
    } else {
        monomial_quads(rho, out, bits, col, k, |o, v| *o = v);
    }
}

/// The loop of [`kraus_term`], with the store (`=` or `+=`) fixed per
/// copy, and compiled for each pair of columns and for bra blocks of 2,
/// 4 and 8 amplitudes, so the inner loop of a low bra bit is a fixed
/// pattern of loads instead of a run of one to four amplitudes. (Every
/// arm calls [`monomial_rows`] directly, so each is inlined into, and
/// compiled for, the instruction set of its caller.)
#[inline(always)]
fn monomial_quads(
    rho: &[C64],
    out: &mut [C64],
    bits: [usize; 2],
    col: [usize; 2],
    k: [C64; 2],
    put: impl Fn(&mut C64, C64) + Copy,
) {
    match (col, bits[1]) {
        ([0, 1], 1) => monomial_rows::<0, 1, 1>(rho, out, bits, k, put),
        ([0, 1], 2) => monomial_rows::<0, 1, 2>(rho, out, bits, k, put),
        ([0, 1], 4) => monomial_rows::<0, 1, 4>(rho, out, bits, k, put),
        ([0, 1], _) => monomial_rows::<0, 1, 0>(rho, out, bits, k, put),
        ([1, 0], 1) => monomial_rows::<1, 0, 1>(rho, out, bits, k, put),
        ([1, 0], 2) => monomial_rows::<1, 0, 2>(rho, out, bits, k, put),
        ([1, 0], 4) => monomial_rows::<1, 0, 4>(rho, out, bits, k, put),
        ([1, 0], _) => monomial_rows::<1, 0, 0>(rho, out, bits, k, put),
        ([1, 1], 1) => monomial_rows::<1, 1, 1>(rho, out, bits, k, put),
        ([1, 1], 2) => monomial_rows::<1, 1, 2>(rho, out, bits, k, put),
        ([1, 1], 4) => monomial_rows::<1, 1, 4>(rho, out, bits, k, put),
        ([1, 1], _) => monomial_rows::<1, 1, 0>(rho, out, bits, k, put),
        (_, 1) => monomial_rows::<0, 0, 1>(rho, out, bits, k, put),
        (_, 2) => monomial_rows::<0, 0, 2>(rho, out, bits, k, put),
        (_, 4) => monomial_rows::<0, 0, 4>(rho, out, bits, k, put),
        (_, _) => monomial_rows::<0, 0, 0>(rho, out, bits, k, put),
    }
}

/// [`monomial_quads`] for source columns `(C0, C1)`, and `BB` the bra
/// bit when it is known at compile time (0 otherwise): outer blocks of
/// `2·kb` split on the ket bit, output row `r` reading source row `c(r)`.
#[inline(always)]
fn monomial_rows<const C0: usize, const C1: usize, const BB: usize>(
    rho: &[C64],
    out: &mut [C64],
    [kb, bb]: [usize; 2],
    [k0, k1]: [C64; 2],
    put: impl Fn(&mut C64, C64) + Copy,
) {
    let bb = if BB == 0 { bb } else { BB };
    let h = [k0.conj(), k1.conj()];
    for (src, dst) in rho.chunks_exact(kb << 1).zip(out.chunks_exact_mut(kb << 1)) {
        let (d0, d1) = dst.split_at_mut(kb);
        monomial_row::<C0, C1>(&src[C0 * kb..][..kb], d0, bb, k0, h, put);
        monomial_row::<C0, C1>(&src[C1 * kb..][..kb], d1, bb, k1, h, put);
    }
}

/// One ket row of [`monomial_rows`]: blocks of `2·bb` split on the bra
/// bit, output column `s` taking `h[s]·(k·x)` from source column `c(s)`.
#[inline(always)]
fn monomial_row<const C0: usize, const C1: usize>(
    x: &[C64],
    o: &mut [C64],
    bb: usize,
    k: C64,
    [h0, h1]: [C64; 2],
    put: impl Fn(&mut C64, C64),
) {
    for (xs, os) in x.chunks_exact(bb << 1).zip(o.chunks_exact_mut(bb << 1)) {
        let (o0, o1) = os.split_at_mut(bb);
        let (x0, x1) = (&xs[C0 * bb..][..bb], &xs[C1 * bb..][..bb]);
        for j in 0..bb {
            put(&mut o0[j], h0 * (k * x0[j]));
            put(&mut o1[j], h1 * (k * x1[j]));
        }
    }
}

/// Samples per lane block of the batch engine's per-sample algebra.
pub(crate) const LANES: usize = 8;

/// One `f64` per sample of a lane block.
pub(crate) type Lane = [f64; LANES];

/// One bit per sample of a lane block: bit `l` stands for lane `l`.
pub(crate) type LaneMask = u8;

const _: () = assert!(LANES == LaneMask::BITS as usize);

/// One complex number per sample of a lane block: a lane of real parts
/// and a lane of imaginary parts. Its arithmetic is [`C64`]'s, lane by
/// lane, in the same operation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CLanes {
    re: Lane,
    im: Lane,
}

/// A matrix per sample of a lane block: entry `[r][c]` holds every
/// sample's entry `[r][c]`.
pub(crate) type MatLanes<const N: usize> = [[CLanes; N]; N];

/// A 2×2 matrix per sample of a lane block.
pub(crate) type Mat2Lanes = MatLanes<2>;

/// A 4×4 matrix per sample of a lane block.
pub(crate) type Mat4Lanes = MatLanes<4>;

impl CLanes {
    const ZERO: CLanes = CLanes {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    #[inline(always)]
    fn splat(z: C64) -> CLanes {
        CLanes {
            re: [z.re; LANES],
            im: [z.im; LANES],
        }
    }

    #[inline(always)]
    fn conj(self) -> CLanes {
        let mut c = self;
        for v in &mut c.im {
            *v = -*v;
        }
        c
    }
}

impl std::ops::Add for CLanes {
    type Output = CLanes;
    #[inline(always)]
    fn add(self, rhs: CLanes) -> CLanes {
        let mut c = CLanes::ZERO;
        for l in 0..LANES {
            c.re[l] = self.re[l] + rhs.re[l];
            c.im[l] = self.im[l] + rhs.im[l];
        }
        c
    }
}

impl std::ops::Mul for CLanes {
    type Output = CLanes;
    #[inline(always)]
    fn mul(self, rhs: CLanes) -> CLanes {
        let mut c = CLanes::ZERO;
        for l in 0..LANES {
            c.re[l] = self.re[l] * rhs.re[l] - self.im[l] * rhs.im[l];
            c.im[l] = self.re[l] * rhs.im[l] + self.im[l] * rhs.re[l];
        }
        c
    }
}

/// Lane blocks that hold `batch` samples: sample `i` is lane
/// `i % LANES` of block `i / LANES`. The last block's spare lanes hold
/// values nobody reads.
pub(crate) fn lane_blocks(batch: usize) -> usize {
    batch.div_ceil(LANES)
}

/// Sample `i`'s matrix.
pub(crate) fn lane_get<const N: usize>(blocks: &[MatLanes<N>], i: usize) -> [[C64; N]; N] {
    let (block, l) = (&blocks[i / LANES], i % LANES);
    let mut m = [[C64::ZERO; N]; N];
    for (row, lanes) in m.iter_mut().zip(block) {
        for (v, z) in row.iter_mut().zip(lanes) {
            *v = C64::new(z.re[l], z.im[l]);
        }
    }
    m
}

/// Sets sample `i`'s matrix to `m`.
pub(crate) fn lane_set<const N: usize>(blocks: &mut [MatLanes<N>], i: usize, m: &[[C64; N]; N]) {
    let (block, l) = (&mut blocks[i / LANES], i % LANES);
    for (row, lanes) in m.iter().zip(block) {
        for (v, z) in row.iter().zip(lanes) {
            z.re[l] = v.re;
            z.im[l] = v.im;
        }
    }
}

/// One lane block with `m` in every lane.
#[inline(always)]
pub(crate) fn splat<const N: usize>(m: &[[C64; N]; N]) -> MatLanes<N> {
    let mut out = [[CLanes::ZERO; N]; N];
    for r in 0..N {
        for c in 0..N {
            out[r][c] = CLanes::splat(m[r][c]);
        }
    }
    out
}

/// Copies the lanes of `src` that `mask` selects into `dst`.
#[inline(always)]
pub(crate) fn select<const N: usize>(dst: &mut MatLanes<N>, src: &MatLanes<N>, mask: LaneMask) {
    match mask {
        0 => return,
        LaneMask::MAX => {
            *dst = *src;
            return;
        }
        _ => {}
    }
    for (d, s) in dst.iter_mut().flatten().zip(src.iter().flatten()) {
        for l in 0..LANES {
            if mask >> l & 1 != 0 {
                d.re[l] = s.re[l];
                d.im[l] = s.im[l];
            }
        }
    }
}

/// [`mat2_mul`](crate::math::mat2_mul) in every lane.
#[inline(always)]
fn mat2_mul_l(a: &Mat2Lanes, b: &Mat2Lanes) -> Mat2Lanes {
    let mut c = [[CLanes::ZERO; 2]; 2];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    c
}

/// [`mat2_dagger`](crate::math::mat2_dagger) in every lane.
#[inline(always)]
fn mat2_dagger_l(a: &Mat2Lanes) -> Mat2Lanes {
    [
        [a[0][0].conj(), a[1][0].conj()],
        [a[0][1].conj(), a[1][1].conj()],
    ]
}

/// [`kron2`](crate::math::kron2) in every lane.
#[inline(always)]
fn kron2_l(a: &Mat2Lanes, b: &Mat2Lanes) -> Mat4Lanes {
    let mut c = [[CLanes::ZERO; 4]; 4];
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..2 {
                for l in 0..2 {
                    c[2 * i + k][2 * j + l] = a[i][j] * b[k][l];
                }
            }
        }
    }
    c
}

/// [`mat4_mul`](crate::math::mat4_mul) in every lane.
#[inline(always)]
fn mat4_mul_l(a: &Mat4Lanes, b: &Mat4Lanes) -> Mat4Lanes {
    let mut c = [[CLanes::ZERO; 4]; 4];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut acc = CLanes::ZERO;
            for (k, &bk) in b.iter().map(|r| &r[j]).enumerate() {
                acc = acc + a[i][k] * bk;
            }
            *cell = acc;
        }
    }
    c
}

/// Validates an operand of `len` blocks against `blocks` lane blocks:
/// one block (the same for every block) or one per block.
#[inline]
fn checked_operand(len: usize, blocks: usize, what: &str) {
    assert!(
        len == 1 || len == blocks,
        "{what} has {len} lane blocks, not 1 or {blocks}"
    );
}

/// The block of an operand that block `k` uses (see [`checked_operand`]).
#[inline(always)]
fn operand<T>(x: &[T], k: usize) -> &T {
    &x[if x.len() == 1 { 0 } else { k }]
}

/// `P ← U·P` in every lane of each block whose mask is not 0, as
/// [`mat2_mul`](crate::math::mat2_mul) computes it; blocks whose mask is
/// 0 keep their values. `u` is one block (applied to every block) or one
/// per block of `p`.
///
/// # Panics
///
/// Panics if `mask` and `p` differ in length, or `u` has neither one
/// block nor as many as `p`.
pub(crate) fn premul_lanes(u: &[Mat2Lanes], p: &mut [Mat2Lanes], mask: &[LaneMask]) {
    premul_lanes_on(Isa::widest(), u, p, mask);
}

/// [`premul_lanes`] on the copy compiled for `isa`.
fn premul_lanes_on(isa: Isa, u: &[Mat2Lanes], p: &mut [Mat2Lanes], mask: &[LaneMask]) {
    assert_eq!(p.len(), mask.len(), "one mask per lane block");
    checked_operand(u.len(), p.len(), "U");
    premul_blocks(isa, u, p, mask);
}

#[inline(always)]
fn premul_blocks_body(u: &[Mat2Lanes], p: &mut [Mat2Lanes], mask: &[LaneMask]) {
    for (k, (p, &mask)) in p.iter_mut().zip(mask).enumerate() {
        if mask != 0 {
            *p = mat2_mul_l(operand(u, k), p);
        }
    }
}

/// `out ← U·(A⊗B)` in every lane of each block whose mask is not 0, as
/// `mat4_mul(u, &kron2(a, b))` computes it; blocks whose mask is 0 keep
/// their values. `u` is one block or one per block of `a`.
///
/// # Panics
///
/// Panics if `a`, `b`, `out` and `mask` differ in length, or `u` has
/// neither one block nor as many as `a`.
pub(crate) fn fold4_lanes(
    u: &[Mat4Lanes],
    a: &[Mat2Lanes],
    b: &[Mat2Lanes],
    out: &mut [Mat4Lanes],
    mask: &[LaneMask],
) {
    fold4_lanes_on(Isa::widest(), u, a, b, out, mask);
}

/// [`fold4_lanes`] on the copy compiled for `isa`.
fn fold4_lanes_on(
    isa: Isa,
    u: &[Mat4Lanes],
    a: &[Mat2Lanes],
    b: &[Mat2Lanes],
    out: &mut [Mat4Lanes],
    mask: &[LaneMask],
) {
    assert!(
        a.len() == b.len() && a.len() == out.len() && a.len() == mask.len(),
        "fold of unequal lane blocks"
    );
    checked_operand(u.len(), a.len(), "U");
    fold4_blocks(isa, u, a, b, out, mask);
}

#[inline(always)]
fn fold4_blocks_body(
    u: &[Mat4Lanes],
    a: &[Mat2Lanes],
    b: &[Mat2Lanes],
    out: &mut [Mat4Lanes],
    mask: &[LaneMask],
) {
    for (k, (((a, b), out), &mask)) in a.iter().zip(b).zip(out).zip(mask).enumerate() {
        if mask != 0 {
            *out = mat4_mul_l(operand(u, k), &kron2_l(a, b));
        }
    }
}

/// `out ← P†·G·P` in every lane of each block whose mask is not 0, as
/// `mat2_mul(&mat2_dagger(p), &mat2_mul(g, p))` computes it; blocks whose
/// mask is 0 keep their values. `g` is one block or one per block of
/// `p`.
///
/// # Panics
///
/// Panics if `p`, `out` and `mask` differ in length, or `g` has neither
/// one block nor as many as `p`.
pub(crate) fn conjugate2_lanes(
    g: &[Mat2Lanes],
    p: &[Mat2Lanes],
    out: &mut [Mat2Lanes],
    mask: &[LaneMask],
) {
    conjugate2_lanes_on(Isa::widest(), g, p, out, mask);
}

/// [`conjugate2_lanes`] on the copy compiled for `isa`.
fn conjugate2_lanes_on(
    isa: Isa,
    g: &[Mat2Lanes],
    p: &[Mat2Lanes],
    out: &mut [Mat2Lanes],
    mask: &[LaneMask],
) {
    assert!(
        p.len() == out.len() && p.len() == mask.len(),
        "conjugation of unequal lane blocks"
    );
    checked_operand(g.len(), p.len(), "G");
    conjugate2_blocks(isa, g, p, out, mask);
}

#[inline(always)]
fn conjugate2_blocks_body(
    g: &[Mat2Lanes],
    p: &[Mat2Lanes],
    out: &mut [Mat2Lanes],
    mask: &[LaneMask],
) {
    for (k, ((p, out), &mask)) in p.iter().zip(out).zip(mask).enumerate() {
        if mask != 0 {
            let gp = mat2_mul_l(operand(g, k), p);
            *out = mat2_mul_l(&mat2_dagger_l(p), &gp);
        }
    }
}

/// `Re Σ_ab A[a][b]·C[a][b]` in every lane, adding the four products to
/// `0.0` in row-major order. `a` is one block or one per block of `c`.
///
/// # Panics
///
/// Panics if `c` and `out` differ in length, or `a` has neither one
/// block nor as many as `c`.
pub(crate) fn re_contract_lanes(a: &[Mat2Lanes], c: &[Mat2Lanes], out: &mut [Lane]) {
    re_contract_lanes_on(Isa::widest(), a, c, out);
}

/// [`re_contract_lanes`] on the copy compiled for `isa`.
fn re_contract_lanes_on(isa: Isa, a: &[Mat2Lanes], c: &[Mat2Lanes], out: &mut [Lane]) {
    assert_eq!(c.len(), out.len(), "contraction of unequal lane blocks");
    checked_operand(a.len(), c.len(), "A");
    re_contract_blocks(isa, a, c, out);
}

/// [`re_contract_lanes`] with the same `A` in every lane: the lanes of
/// `A` are filled inside the loop's copy, not passed in.
///
/// # Panics
///
/// Panics if `c` and `out` differ in length.
pub(crate) fn re_contract_shared_lanes(a: &Mat2, c: &[Mat2Lanes], out: &mut [Lane]) {
    re_contract_shared_lanes_on(Isa::widest(), a, c, out);
}

/// [`re_contract_shared_lanes`] on the copy compiled for `isa`.
fn re_contract_shared_lanes_on(isa: Isa, a: &Mat2, c: &[Mat2Lanes], out: &mut [Lane]) {
    assert_eq!(c.len(), out.len(), "contraction of unequal lane blocks");
    re_contract_shared_blocks(isa, *a, c, out);
}

/// `Re Σ_ab A[a][b]·C[a][b]` of one lane block.
#[inline(always)]
fn re_contract_l(a: &Mat2Lanes, c: &Mat2Lanes) -> Lane {
    let mut acc = [0.0; LANES];
    for (ra, rc) in a.iter().zip(c) {
        for (x, y) in ra.iter().zip(rc) {
            for l in 0..LANES {
                acc[l] += x.re[l] * y.re[l] - x.im[l] * y.im[l];
            }
        }
    }
    acc
}

#[inline(always)]
fn re_contract_blocks_body(a: &[Mat2Lanes], c: &[Mat2Lanes], out: &mut [Lane]) {
    for (k, (c, out)) in c.iter().zip(out).enumerate() {
        *out = re_contract_l(operand(a, k), c);
    }
}

#[inline(always)]
fn re_contract_shared_blocks_body(a: Mat2, c: &[Mat2Lanes], out: &mut [Lane]) {
    let a = splat(&a);
    for (c, out) in c.iter().zip(out) {
        *out = re_contract_l(&a, c);
    }
}

/// Element-wise conjugate of a 2×2 matrix (not the transpose).
pub fn conj2(m: &Mat2) -> Mat2 {
    let mut c = *m;
    for row in &mut c {
        for v in row {
            *v = v.conj();
        }
    }
    c
}

/// Element-wise conjugate of a 4×4 matrix (not the transpose).
pub fn conj4(m: &Mat4) -> Mat4 {
    let mut c = *m;
    for row in &mut c {
        for v in row {
            *v = v.conj();
        }
    }
    c
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod channel_oracle;

#[cfg(test)]
mod lane_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn kernel_matches_statevector_method() {
        use crate::statevector::StateVector;
        let g = Gate::u3(1, 0.7, 0.2, -0.4);
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::h(0));
        sv.apply(&Gate::cx(0, 2));
        let mut raw = sv.amplitudes().to_vec();
        sv.apply(&g);
        apply_mat2(&mut raw, 1, &g.matrix1());
        for (a, b) in raw.iter().zip(sv.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-14));
        }
    }

    /// The chunked mat4 kernel agrees with a straightforward reference
    /// that enumerates blocks by skipping indices with either bit set —
    /// for both qubit orderings and non-adjacent bits.
    #[test]
    fn mat4_kernel_matches_reference() {
        let reference = |amps: &mut [C64], qa: usize, qb: usize, m: &Mat4| {
            let ba = 1usize << qa;
            let bb = 1usize << qb;
            for i in 0..amps.len() {
                if i & (ba | bb) != 0 {
                    continue;
                }
                let idx = [i, i | bb, i | ba, i | ba | bb];
                let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                for (row, &out_i) in idx.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &av) in a.iter().enumerate() {
                        acc += m[row][col] * av;
                    }
                    amps[out_i] = acc;
                }
            }
        };
        let m = Gate::cu3(0, 1, 0.9, -0.2, 0.4).matrix2();
        for (qa, qb) in [(0, 1), (1, 0), (0, 3), (3, 0), (1, 3), (2, 1)] {
            let mut amps: Vec<C64> = (0..16)
                .map(|i| C64::new(0.1 * i as f64, -0.05 * i as f64 + 0.3))
                .collect();
            let mut want = amps.clone();
            apply_mat4(&mut amps, qa, qb, &m);
            reference(&mut want, qa, qb, &m);
            for (a, b) in amps.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-14), "({qa},{qb}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn prob_one_mass_matches_enumerated_sum() {
        let amps: Vec<C64> = (0..8)
            .map(|i| C64::new(0.2 * i as f64, 0.1 - 0.03 * i as f64))
            .collect();
        for q in 0..3 {
            let bit = 1usize << q;
            let want: f64 = amps
                .iter()
                .enumerate()
                .filter(|(i, _)| i & bit != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert!((prob_one_mass(&amps, q) - want).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_is_a_real_check() {
        let mut amps = vec![C64::ONE; 8];
        apply_mat2(&mut amps, 3, &Gate::h(0).matrix1());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_qubits_rejected() {
        let mut amps = vec![C64::ONE; 8];
        apply_mat4(&mut amps, 1, 1, &Gate::cx(0, 1).matrix2());
    }

    #[test]
    fn conj_is_elementwise() {
        let m = Gate::u3(0, 0.3, 0.5, 0.7).matrix1();
        let c = conj2(&m);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(c[i][j], m[i][j].conj());
            }
        }
    }
}
