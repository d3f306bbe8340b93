//! The mixing and cross-matrix kernels against the nested-chunk loops,
//! kept here as the reference. Every amplitude and every cross-matrix
//! entry must match **bit for bit**, on every instruction-set copy this
//! CPU runs: the small-block loops only reorder independent updates, the
//! wide copies only run independent amplitudes side by side, and the
//! cross matrix must add its terms in block order whatever loop computes
//! it.

use super::{
    apply_mat4_lanes_on, cross_mat2_lanes_on, lane_blocks, lane_get, lane_set, mat2_rows_on,
    mat4_rows_on, splat, Isa, LaneMask, LANES,
};
use crate::math::{Mat2, Mat4, C64};

/// Nested-chunk 2×2 mix on bit mask `bit`.
fn reference_pairs(amps: &mut [C64], bit: usize, m: &Mat2) {
    let [[m00, m01], [m10, m11]] = *m;
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

/// Nested-chunk 4×4 mix on bit masks `(ba, bb)`, basis
/// `2·bit(ba) + bit(bb)`.
fn reference_quads(amps: &mut [C64], ba: usize, bb: usize, m: &Mat4) {
    let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
    for outer in amps.chunks_exact_mut(hi << 1) {
        let (top, bot) = outer.split_at_mut(hi);
        for (sub_t, sub_b) in top
            .chunks_exact_mut(lo << 1)
            .zip(bot.chunks_exact_mut(lo << 1))
        {
            let (t0, t1) = sub_t.split_at_mut(lo);
            let (b0, b1) = sub_b.split_at_mut(lo);
            let (x1, x2) = if bb == lo { (t1, b0) } else { (b0, t1) };
            for (((a0, a1), a2), a3) in t0
                .iter_mut()
                .zip(x1.iter_mut())
                .zip(x2.iter_mut())
                .zip(b1.iter_mut())
            {
                let v = [*a0, *a1, *a2, *a3];
                let row = |r: [C64; 4]| r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3];
                *a0 = row(m[0]);
                *a1 = row(m[1]);
                *a2 = row(m[2]);
                *a3 = row(m[3]);
            }
        }
    }
}

/// Nested-chunk cross matrix on bit mask `bit`.
fn reference_cross(psi: &[C64], lam: &[C64], bit: usize) -> Mat2 {
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

/// Distinct, irregular amplitudes (not a normalized state: the kernels
/// do not care, and unequal magnitudes expose any misplaced term).
fn amplitudes(len: usize, salt: f64) -> Vec<C64> {
    (0..len)
        .map(|i| {
            let x = i as f64 + salt;
            C64::new((0.731 * x).sin(), (1.37 * x + 0.4).cos())
        })
        .collect()
}

/// A dense, non-unitary matrix whose every entry differs, so a swapped
/// row or column changes the result.
fn matrix<const N: usize>(salt: f64) -> [[C64; N]; N] {
    let mut m = [[C64::ZERO; N]; N];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            let x = (r * N + c) as f64 + salt;
            *v = C64::new((0.53 * x).cos(), (0.29 * x - 1.1).sin());
        }
    }
    m
}

fn assert_bits_eq(got: &[C64], want: &[C64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: amplitude {i}: {g} vs {w}"
        );
    }
}

/// Single states of 1–6 qubits, then batches of 3, 48 and 80 rows of 16
/// amplitudes (80 rows span a full and a partial tile): `(label, length,
/// qubits the slice can address)`.
fn buffers() -> Vec<(String, usize, usize)> {
    let states = (1..=6).map(|n| (format!("{n}-qubit state"), 1usize << n, n));
    let rows = [3usize, 48, 80].map(|r| (format!("{r} rows of 16"), r * 16, 4));
    states.chain(rows).collect()
}

#[test]
fn mix_pairs_matches_the_nested_chunk_loop_bitwise() {
    let m = matrix::<2>(0.5);
    for isa in Isa::supported() {
        for (label, len, n) in buffers() {
            for q in 0..n {
                let mut got = amplitudes(len, q as f64);
                let mut want = got.clone();
                mat2_rows_on(isa, &mut got, q, &m);
                reference_pairs(&mut want, 1 << q, &m);
                assert_bits_eq(&got, &want, &format!("{isa:?}, {label}, qubit {q}"));
            }
        }
    }
}

#[test]
fn mix_quads_matches_the_nested_chunk_loop_bitwise() {
    let m = matrix::<4>(1.5);
    for isa in Isa::supported() {
        for (label, len, n) in buffers() {
            for qa in 0..n {
                for qb in (0..n).filter(|&qb| qb != qa) {
                    let mut got = amplitudes(len, (qa * 8 + qb) as f64);
                    let mut want = got.clone();
                    mat4_rows_on(isa, &mut got, qa, qb, &m);
                    reference_quads(&mut want, 1 << qa, 1 << qb, &m);
                    let what = format!("{isa:?}, {label}, qubits ({qa}, {qb})");
                    assert_bits_eq(&got, &want, &what);
                }
            }
        }
    }
}

/// The cross matrices of every row's state and co-states, each in its
/// lane: one row of one co-state, and 9 rows of 2 (lanes past one
/// block), on 1–6 qubits.
#[test]
fn cross_mat2_matches_the_nested_chunk_loop_bitwise() {
    for isa in Isa::supported() {
        for n in 1..=6 {
            let dim = 1usize << n;
            for (rows, n_seeds) in [(1usize, 1usize), (9, 2)] {
                let width = (1 + n_seeds) * dim;
                let buf = amplitudes(rows * width, 0.25);
                for q in 0..n {
                    let mut got = vec![splat(&[[C64::ZERO; 2]; 2]); lane_blocks(rows * n_seeds)];
                    cross_mat2_lanes_on(isa, &buf, width, dim, q, &mut got);
                    for (i, row) in buf.chunks_exact(width).enumerate() {
                        let (psi, lambdas) = row.split_at(dim);
                        for (s, lam) in lambdas.chunks_exact(dim).enumerate() {
                            let want = reference_cross(psi, lam, 1 << q);
                            assert_bits_eq(
                                lane_get(&got, i * n_seeds + s).as_flattened(),
                                want.as_flattened(),
                                &format!("{isa:?}, {n} qubits, row {i}, seed {s}, qubit {q}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Each marked row through its own lane's matrix, the others left as
/// they are: rows of one 16-amplitude state (the small-block loop) and of
/// two 32-amplitude states (the nested loop on bit 4), 3 and 49 rows.
#[test]
fn mix_quads_lanes_match_the_nested_chunk_loop_bitwise() {
    for isa in Isa::supported() {
        for (width, n) in [(16usize, 4usize), (64, 5)] {
            for rows in [3usize, 49] {
                let ms: Vec<Mat4> = (0..rows).map(|i| matrix::<4>(i as f64)).collect();
                let mut lanes = vec![splat(&[[C64::ZERO; 4]; 4]); lane_blocks(rows)];
                for (i, m) in ms.iter().enumerate() {
                    lane_set(&mut lanes, i, m);
                }
                let mask: Vec<LaneMask> = (0..lane_blocks(rows))
                    .map(|k| [0b0110_1011, LaneMask::MAX, 0][k % 3])
                    .collect();
                for qa in 0..n {
                    for qb in (0..n).filter(|&qb| qb != qa) {
                        let mut got = amplitudes(rows * width, (qa * 8 + qb) as f64);
                        let mut want = got.clone();
                        apply_mat4_lanes_on(isa, &mut got, width, qa, qb, &lanes, &mask);
                        for (i, row) in want.chunks_exact_mut(width).enumerate() {
                            if mask[i / LANES] >> (i % LANES) & 1 != 0 {
                                reference_quads(row, 1 << qa, 1 << qb, &ms[i]);
                            }
                        }
                        let what = format!("{isa:?}, {rows} rows of {width}, qubits ({qa}, {qb})");
                        assert_bits_eq(&got, &want, &what);
                    }
                }
            }
        }
    }
}

/// The entries run the widest copy this CPU has, and the copies above
/// include the baseline one.
#[test]
fn dispatch_takes_the_widest_supported_copy() {
    let supported = Isa::supported();
    assert_eq!(supported.first(), Some(&Isa::Baseline));
    assert_eq!(supported.last(), Some(&Isa::widest()));
}
