//! The batch engine's sample-lane loops against the scalar matrix
//! algebra they replace. Every lane a loop writes must equal, **bit for
//! bit**, what `mat2_mul`, `kron2`, `mat4_mul`, `mat2_dagger` and the
//! scalar contraction compute for that sample alone, on every
//! instruction-set copy this CPU runs: a lane runs the same `f64`
//! operations in the same order, and wider registers only run more lanes
//! side by side. Blocks whose mask is 0 must keep their values.
//!
//! Each loop runs on batches of 1, 7, 48 and 49 samples (a partial
//! block, whole blocks, and whole blocks plus one lane), with an operand
//! shared by every lane and one per lane, on masks that mark every lane,
//! some lanes and no lane of a block, and on lanes that hold the
//! identity spelled out (exact zeros and ones, whose signs the products
//! must keep).

use super::{
    conjugate2_lanes_on, fold4_lanes_on, lane_blocks, lane_get, lane_set, premul_lanes_on,
    re_contract_lanes_on, re_contract_shared_lanes_on, splat, Isa, LaneMask, MatLanes, LANES,
};
use crate::math::{kron2, mat2_dagger, mat2_mul, mat4_mul, Mat2, Mat4, C64};

const BATCHES: [usize; 4] = [1, 7, 48, 49];

/// The scalar contraction `Re Σ_ab A[a][b]·C[a][b]` the VJP ran per
/// sample before the lanes.
fn re_contract(a: &Mat2, c: &Mat2) -> f64 {
    let mut acc = 0.0;
    for (ra, rc) in a.iter().zip(c) {
        for (x, y) in ra.iter().zip(rc) {
            acc += x.re * y.re - x.im * y.im;
        }
    }
    acc
}

/// A dense matrix whose every entry differs; for every fifth sample the
/// identity (exact zeros and ones), and for the next a negated cyclic
/// shift whose zeros are negative (a product of these must keep the
/// signs of its zeros).
fn matrix<const N: usize>(salt: f64, sample: usize) -> [[C64; N]; N] {
    let mut m = [[C64::ZERO; N]; N];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = match sample % 5 {
                3 => C64::real(if r == c { 1.0 } else { 0.0 }),
                4 if c == (r + 1) % N => C64::new(-1.0, -0.0),
                4 => C64::new(-0.0, -0.0),
                _ => {
                    let x = (r * N + c) as f64 + salt + 0.37 * sample as f64;
                    C64::new((0.53 * x).cos(), (0.29 * x - 1.1).sin())
                }
            };
        }
    }
    m
}

/// Every sample's matrix, in lane blocks.
fn lanes<const N: usize>(ms: &[[[C64; N]; N]]) -> Vec<MatLanes<N>> {
    let mut blocks = vec![splat(&[[C64::ZERO; N]; N]); lane_blocks(ms.len())];
    for (i, m) in ms.iter().enumerate() {
        lane_set(&mut blocks, i, m);
    }
    blocks
}

fn samples<const N: usize>(batch: usize, salt: f64) -> Vec<[[C64; N]; N]> {
    (0..batch).map(|i| matrix(salt, i)).collect()
}

/// Masks that mark some lanes of the first block, every lane of the
/// second and none of the third (when the batch has them), then an
/// irregular pattern.
fn masks(batch: usize) -> Vec<LaneMask> {
    (0..lane_blocks(batch))
        .map(|k| match k {
            0 => 0b1011_0101,
            1 => LaneMask::MAX,
            2 => 0,
            _ => (k as LaneMask).wrapping_mul(0x5B) | 1,
        })
        .collect()
}

/// Whether sample `i`'s block is computed: its mask is not 0.
fn computed(mask: &[LaneMask], i: usize) -> bool {
    mask[i / LANES] != 0
}

fn assert_bits_eq<const N: usize>(got: &[[C64; N]; N], want: &[[C64; N]; N], what: &str) {
    for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: {g} vs {w}"
        );
    }
}

/// A dense and a sparse matrix shared by every lane (one block), and one
/// matrix per lane.
fn operands<const N: usize>(batch: usize, salt: f64) -> [(Vec<[[C64; N]; N]>, bool); 3] {
    [
        (vec![matrix(salt, 0); batch], true),
        (vec![matrix(salt, 4); batch], true),
        (samples(batch, salt + 0.5), false),
    ]
}

/// The operand's lane blocks: one block when it is shared.
fn operand_lanes<const N: usize>(us: &[[[C64; N]; N]], shared: bool) -> Vec<MatLanes<N>> {
    if shared {
        vec![splat(&us[0])]
    } else {
        lanes(us)
    }
}

#[test]
fn premul_lanes_match_mat2_mul_bitwise() {
    for isa in Isa::supported() {
        for batch in BATCHES {
            let ps = samples::<2>(batch, 1.25);
            let mask = masks(batch);
            for (us, shared) in operands::<2>(batch, 3.5) {
                let mut got = lanes(&ps);
                premul_lanes_on(isa, &operand_lanes(&us, shared), &mut got, &mask);
                for i in 0..batch {
                    let want = if computed(&mask, i) {
                        mat2_mul(&us[i], &ps[i])
                    } else {
                        ps[i]
                    };
                    let what = format!("{isa:?}, batch {batch}, shared U {shared}, sample {i}");
                    assert_bits_eq(&lane_get(&got, i), &want, &what);
                }
            }
        }
    }
}

#[test]
fn fold4_lanes_match_mat4_mul_of_kron2_bitwise() {
    for isa in Isa::supported() {
        for batch in BATCHES {
            let (pa, pb) = (samples::<2>(batch, 0.75), samples::<2>(batch, 5.25));
            let mask = masks(batch);
            for (us, shared) in operands::<4>(batch, 2.0) {
                let before = samples::<4>(batch, 9.0);
                let mut got = lanes(&before);
                let u = operand_lanes(&us, shared);
                fold4_lanes_on(isa, &u, &lanes(&pa), &lanes(&pb), &mut got, &mask);
                for i in 0..batch {
                    let want: Mat4 = if computed(&mask, i) {
                        mat4_mul(&us[i], &kron2(&pa[i], &pb[i]))
                    } else {
                        before[i]
                    };
                    let what = format!("{isa:?}, batch {batch}, shared U {shared}, sample {i}");
                    assert_bits_eq(&lane_get(&got, i), &want, &what);
                }
            }
        }
    }
}

#[test]
fn conjugate2_lanes_match_the_scalar_conjugation_bitwise() {
    for isa in Isa::supported() {
        for batch in BATCHES {
            let ps = samples::<2>(batch, 4.5);
            let mask = masks(batch);
            for (gs, shared) in operands::<2>(batch, 0.25) {
                let before = samples::<2>(batch, 7.0);
                let mut got = lanes(&before);
                let g = operand_lanes(&gs, shared);
                conjugate2_lanes_on(isa, &g, &lanes(&ps), &mut got, &mask);
                for i in 0..batch {
                    let want = if computed(&mask, i) {
                        mat2_mul(&mat2_dagger(&ps[i]), &mat2_mul(&gs[i], &ps[i]))
                    } else {
                        before[i]
                    };
                    let what = format!("{isa:?}, batch {batch}, shared G {shared}, sample {i}");
                    assert_bits_eq(&lane_get(&got, i), &want, &what);
                }
            }
        }
    }
}

#[test]
fn re_contract_lanes_match_the_scalar_contraction_bitwise() {
    for isa in Isa::supported() {
        for batch in BATCHES {
            let cs = samples::<2>(batch, 6.5);
            let c = lanes(&cs);
            for (as_, shared) in operands::<2>(batch, 8.25) {
                let mut got = vec![[f64::NAN; LANES]; c.len()];
                if shared {
                    re_contract_shared_lanes_on(isa, &as_[0], &c, &mut got);
                } else {
                    re_contract_lanes_on(isa, &lanes(&as_), &c, &mut got);
                }
                let mut via_splat = vec![[f64::NAN; LANES]; c.len()];
                re_contract_lanes_on(isa, &operand_lanes(&as_, shared), &c, &mut via_splat);
                for i in 0..batch {
                    let want = re_contract(&as_[i], &cs[i]);
                    for (lanes, how) in [(&got, "entry"), (&via_splat, "blocks")] {
                        let got = lanes[i / LANES][i % LANES];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{isa:?}, batch {batch}, shared A {shared} by {how}, sample {i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}
