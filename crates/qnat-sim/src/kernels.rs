//! Low-level gate-application kernels shared by the statevector and
//! density-matrix simulators.
//!
//! All kernels operate on a raw amplitude slice of power-of-two length and
//! interpret "qubit `q`" as bit `q` of the index (little-endian). The
//! density-matrix simulator reuses them through the `vec(ρ)` isomorphism:
//! `ρ → UρU†` becomes `(U ⊗ U*)·vec(ρ)`, so a ket-side update targets bit
//! `q + n` and a bra-side update targets bit `q` with the conjugated matrix.
//!
//! ## Layout for auto-vectorization
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
//! The public kernels take one power-of-two state. The crate-internal
//! `*_rows` variants take a `[batch, 2ⁿ]` buffer of states laid end to
//! end: every kernel only pairs amplitudes inside `2^(q+1)`-aligned
//! blocks, so one call applies the same matrix to every state, with the
//! same arithmetic per amplitude as one call per state.

use crate::math::{Mat2, Mat4, C64};

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
// (`DensityMatrix::apply_gate`, `apply_channel1`), this small wrapper
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
    let bit = checked_bit(amps.len(), q);
    let [[m00, m01], [m10, m11]] = *m;
    mix_pairs(amps, bit, m00, m01, m10, m11);
}

/// The hot loop of [`apply_mat2`]. The matrix entries arrive as by-value
/// arguments of a function that is never inlined, so they stay in
/// registers for the whole loop. Compiled inline, whether LLVM kept
/// re-loading them through the `&Mat2` (and guarded the vector loop with
/// run-time overlap checks) depended on which other functions shared the
/// codegen unit, so unrelated edits elsewhere in the crate could swing
/// `apply_mat2`'s speed by ~1.5×.
#[inline(never)]
fn mix_pairs(amps: &mut [C64], bit: usize, m00: C64, m01: C64, m10: C64, m11: C64) {
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
    let ba = checked_bit(amps.len(), qa);
    let bb = checked_bit(amps.len(), qb);
    assert!(qa != qb, "two-qubit kernel addresses qubit {qa} twice");
    let [[m00, m01, m02, m03], [m10, m11, m12, m13], [m20, m21, m22, m23], [m30, m31, m32, m33]] =
        *m;
    mix_quads(
        amps,
        ba,
        bb,
        [m00, m01, m02, m03],
        [m10, m11, m12, m13],
        [m20, m21, m22, m23],
        [m30, m31, m32, m33],
    );
}

/// The hot loop of [`apply_mat4`], never inlined and handed the matrix
/// rows by value for the same reason as [`mix_pairs`]: its speed must
/// not depend on which callers share its codegen unit.
#[inline(never)]
fn mix_quads(
    amps: &mut [C64],
    ba: usize,
    bb: usize,
    [m00, m01, m02, m03]: [C64; 4],
    [m10, m11, m12, m13]: [C64; 4],
    [m20, m21, m22, m23]: [C64; 4],
    [m30, m31, m32, m33]: [C64; 4],
) {
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

/// Cross matrix of two states on bit `q`:
/// `C[a][b] = Σ_r conj(lam[r,a])·psi[r,b]`, where `r` runs over the other
/// bits. `⟨lam|A_q|psi⟩ = Σ_ab A[a][b]·C[a][b]` for any 2×2 `A` on `q`.
///
/// # Panics
///
/// Panics if the slices differ in length, the length is not a power of
/// two, or `q` is out of range.
pub(crate) fn cross_mat2(psi: &[C64], lam: &[C64], q: usize) -> Mat2 {
    assert_eq!(psi.len(), lam.len(), "cross of states of unequal length");
    checked_state(psi.len());
    let bit = checked_bit(psi.len(), q);
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
