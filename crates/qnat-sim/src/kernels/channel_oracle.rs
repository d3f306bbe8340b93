//! The monomial Kraus-term pass against the dense Kraus loop it replaced,
//! kept here as the reference: for every operator, copy `vec(ρ)`, mix the
//! ket bit with `K` and the bra bit with `K*` (the nested-chunk 2×2 loop),
//! and add the copy into a sum that starts at zero. On every
//! instruction-set copy this CPU runs, every amplitude must compare equal
//! (`==`, so `-0.0 == 0.0`) and every nonzero real or imaginary part must
//! match bit for bit: the pass skips only products with an exact-zero
//! factor, so only the sign of an exact zero may differ.

use super::{conj2, kraus_term_on, Isa};
use crate::channel::{Channel1, InvalidChannelError};
use crate::density::DensityMatrix;
use crate::gate::Gate;
use crate::math::{Mat2, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The dense Kraus loop: `Σᵏ KᵏρKᵏᵈ` over every operator of `ch`, zero
/// operators included, on qubit `q` of an `n`-qubit `vec(ρ)`.
fn reference_channel(rho: &[C64], n: usize, q: usize, ch: &Channel1) -> Vec<C64> {
    let mut acc = vec![C64::ZERO; rho.len()];
    let mut scratch = vec![C64::ZERO; rho.len()];
    for k in ch.kraus() {
        scratch.copy_from_slice(rho);
        reference_pairs(&mut scratch, 1 << (q + n), k);
        reference_pairs(&mut scratch, 1 << q, &conj2(k));
        for (a, t) in acc.iter_mut().zip(&scratch) {
            *a += *t;
        }
    }
    acc
}

/// The pass on the copy compiled for `isa`, term by term as
/// [`DensityMatrix::apply_channel1`] runs it.
fn pass_on(isa: Isa, rho: &[C64], n: usize, q: usize, ch: &Channel1) -> Vec<C64> {
    // Garbage in the output buffer: the first term must overwrite it.
    let mut out = vec![C64::new(f64::NAN, 7.0); rho.len()];
    for (i, term) in ch.monomials().iter().enumerate() {
        kraus_term_on(isa, rho, &mut out, q + n, q, term, i > 0);
    }
    out
}

fn assert_same(got: &[C64], want: &[C64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g == w, "{what}: amplitude {i}: {g} vs {w}");
        for (gp, wp) in [(g.re, w.re), (g.im, w.im)] {
            assert!(
                wp == 0.0 || gp.to_bits() == wp.to_bits(),
                "{what}: amplitude {i}: bits of {g} vs {w}"
            );
        }
    }
}

/// Pauli, amplitude-damping and phase-damping channels at rates 0, 1e-4,
/// 0.3 and 1 (the Pauli shapes at whatever part of the rate they can
/// take).
fn channels() -> Vec<(String, Channel1)> {
    let mut out = Vec::new();
    for p in [0.0, 1e-4, 0.3, 1.0] {
        let shapes = [
            ("depolarizing", Channel1::depolarizing(p)),
            ("pauli x", Channel1::pauli(p, 0.0, 0.0)),
            ("pauli y", Channel1::pauli(0.0, p, 0.0)),
            ("pauli z", Channel1::pauli(0.0, 0.0, p)),
            ("pauli xyz", Channel1::pauli(p / 2.0, p / 3.0, p / 6.0)),
            ("amplitude damping", Channel1::amplitude_damping(p)),
            ("phase damping", Channel1::phase_damping(p)),
        ];
        for (name, ch) in shapes {
            out.push((format!("{name} at {p}"), ch.expect("a valid channel")));
        }
    }
    out
}

/// An `n`-qubit state after random one- and two-qubit gates and a
/// damping channel, so ρ is mixed.
fn random_state(n: usize, rng: &mut StdRng) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    for _ in 0..3 * n {
        let q = rng.gen_range(0..n);
        let [t, p, l] = [(); 3].map(|_| rng.gen_range(-3.0..3.0));
        rho.apply_gate(&Gate::u3(q, t, p, l));
        if n > 1 {
            let r = (q + rng.gen_range(1..n)) % n;
            rho.apply_gate(&Gate::cu3(q, r, t, l, p));
        }
    }
    let damping = Channel1::amplitude_damping(0.2).unwrap();
    rho.apply_channel1(0, &damping);
    rho
}

/// `vec(ρ)`, row-major.
fn vec_of(rho: &DensityMatrix) -> Vec<C64> {
    let dim = rho.dim();
    (0..dim * dim)
        .map(|i| rho.element(i / dim, i % dim))
        .collect()
}

/// A random `n`-qubit `vec(ρ)`, then the same length of distinct,
/// irregular amplitudes (not a state: unequal magnitudes expose any
/// misplaced term).
fn inputs(n: usize, rng: &mut StdRng) -> [(&'static str, Vec<C64>); 2] {
    let irregular = (0..1usize << (2 * n))
        .map(|i| {
            let x = i as f64 + 0.25;
            C64::new((0.731 * x).sin(), (1.37 * x + 0.4).cos())
        })
        .collect();
    [
        ("random state", vec_of(&random_state(n, rng))),
        ("irregular", irregular),
    ]
}

#[test]
fn kraus_pass_matches_the_dense_loop_on_every_copy() {
    let mut rng = StdRng::seed_from_u64(26);
    let channels = channels();
    for n in 1..=5 {
        for (label, amps) in inputs(n, &mut rng) {
            for q in 0..n {
                for (name, ch) in &channels {
                    let want = reference_channel(&amps, n, q, ch);
                    for isa in Isa::supported() {
                        let got = pass_on(isa, &amps, n, q, ch);
                        let what = format!("{isa:?}, {n} qubits, {label}, qubit {q}, {name}");
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }
}

/// The public entry, with one scratch buffer reused across a run of
/// channels on every qubit, equals the dense loop channel by channel.
#[test]
fn apply_channel1_matches_the_dense_loop_across_a_run() {
    let mut rng = StdRng::seed_from_u64(27);
    let channels = channels();
    for n in 1..=5 {
        let mut rho = random_state(n, &mut rng);
        let mut scratch = Vec::new();
        for q in 0..n {
            for (name, ch) in &channels {
                let want = reference_channel(&vec_of(&rho), n, q, ch);
                rho.apply_channel1_with(q, ch, &mut scratch);
                let what = format!("{n} qubits, qubit {q}, {name}");
                assert_same(&vec_of(&rho), &want, &what);
            }
        }
    }
}

/// An operator with a row of two nonzero entries has no monomial pass,
/// so the channel is refused where it is built.
#[test]
fn non_monomial_operators_are_refused() {
    let c = C64::real(0.6);
    let s = C64::real(0.8);
    // A rotation: complete on its own, two nonzero entries per row.
    let rot = [[c, -s], [s, c]];
    assert!(matches!(
        Channel1::from_kraus(vec![rot]),
        Err(InvalidChannelError { .. })
    ));
    // One dense row is enough.
    let half = std::f64::consts::FRAC_1_SQRT_2;
    let k0 = [[C64::real(half), C64::real(half)], [C64::ZERO, C64::ZERO]];
    let k1 = [[C64::ZERO, C64::ZERO], [C64::real(half), C64::real(-half)]];
    assert!(Channel1::from_kraus(vec![k0, k1]).is_err());
}
