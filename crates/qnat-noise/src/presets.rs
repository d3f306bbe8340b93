//! Preset device noise models.
//!
//! Synthetic stand-ins for the IBMQ machines the paper evaluates on. The
//! absolute error magnitudes and their *ordering* follow the paper's
//! anchors: Yorktown's single-qubit gate error is ≈5× Santiago's (§1 and
//! Appendix A.3.1), the Yorktown SX error distribution on qubit 1 is
//! `{X: 0.00096, Y: 0.00096, Z: 0.00096}` (§3.2), Santiago's qubit-0
//! readout matrix is `[[0.984, 0.016], [0.022, 0.978]]` (§3.2), and
//! Melbourne (15 qubits, used for the 10-class tasks) is the noisiest.
//! Per-qubit heterogeneity ("the same gate on different qubits has up to
//! 10× probability difference") is modeled by a deterministic multiplier
//! pattern.

use crate::device::DeviceModel;
use crate::error_spec::PauliErrorSpec;
use crate::readout::ReadoutError;

/// Deterministic per-qubit spread multipliers, mimicking calibration
/// heterogeneity across a chip (up to ~3.6× between best and worst qubit).
const QUBIT_SPREAD: [f64; 8] = [1.0, 1.45, 0.62, 1.9, 0.85, 1.25, 0.7, 2.2];

fn spread(q: usize) -> f64 {
    QUBIT_SPREAD[q % QUBIT_SPREAD.len()]
}

/// Parameters distilled from a device's calibration summary.
struct Anchor {
    name: &'static str,
    qv: u32,
    /// Mean total single-qubit Pauli error.
    sq: f64,
    /// Mean total two-qubit Pauli error (per qubit, per gate).
    tq: f64,
    /// Readout flip probabilities (0→1, 1→0).
    ro: (f64, f64),
    /// Amplitude damping per single-qubit gate.
    t1: f64,
    /// Phase damping per single-qubit gate.
    t2: f64,
}

fn line_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n - 1).map(|i| (i, i + 1)).collect()
}

fn build(anchor: Anchor, n: usize, edges: Vec<(usize, usize)>) -> DeviceModel {
    let mut b = DeviceModel::builder(anchor.name, n)
        .quantum_volume(anchor.qv)
        .tq_duration_factor(8.0);
    for q in 0..n {
        let s = spread(q);
        b = b
            .single_qubit_error(
                q,
                PauliErrorSpec::symmetric((anchor.sq * s).min(0.9))
                    .expect("preset probabilities valid"),
            )
            .readout(
                q,
                ReadoutError::asymmetric((anchor.ro.0 * s).min(0.45), (anchor.ro.1 * s).min(0.45))
                    .expect("preset readout valid"),
            )
            .damping(q, (anchor.t1 * s).min(0.5), (anchor.t2 * s).min(0.5));
    }
    for (k, (a, bq)) in edges.into_iter().enumerate() {
        let s = spread(k + 3); // edge spread decoupled from qubit spread
        b = b.edge(
            a,
            bq,
            PauliErrorSpec::symmetric((anchor.tq * s).min(0.9)).expect("preset probabilities"),
        );
    }
    b.build().expect("preset models are valid by construction")
}

/// IBMQ-Santiago stand-in: 5-qubit line, QV 32 — the least noisy device in
/// the paper's pool.
pub fn santiago() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-santiago",
            qv: 32,
            sq: 5.8e-4,
            tq: 1.2e-2,
            ro: (0.024, 0.033),
            t1: 4.0e-4,
            t2: 6.0e-4,
        },
        5,
        line_edges(5),
    )
}

/// IBMQ-Yorktown stand-in: 5-qubit "bowtie", QV 8 — single-qubit error ≈5×
/// Santiago's (paper §1).
pub fn yorktown() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-yorktown",
            qv: 8,
            sq: 2.9e-3,
            tq: 3.1e-2,
            ro: (0.053, 0.068),
            t1: 1.6e-3,
            t2: 2.4e-3,
        },
        5,
        vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
    )
}

/// IBMQ-Belem stand-in: 5-qubit T topology, QV 16.
pub fn belem() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-belem",
            qv: 16,
            sq: 1.2e-3,
            tq: 2.0e-2,
            ro: (0.038, 0.048),
            t1: 8.0e-4,
            t2: 1.2e-3,
        },
        5,
        vec![(0, 1), (1, 2), (1, 3), (3, 4)],
    )
}

/// IBMQ-Athens stand-in: 5-qubit line, QV 32 (retired mid-study in the
/// paper).
pub fn athens() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-athens",
            qv: 32,
            sq: 4.0e-4,
            tq: 1.5e-2,
            ro: (0.023, 0.032),
            t1: 5.0e-4,
            t2: 7.0e-4,
        },
        5,
        line_edges(5),
    )
}

/// IBMQ-Melbourne stand-in: 15-qubit ladder, the noisiest device — used for
/// the 10-class tasks.
pub fn melbourne() -> DeviceModel {
    let mut edges = Vec::new();
    // Two rows (0..=6 and 7..=13) plus rungs and a tail qubit 14.
    for i in 0..6 {
        edges.push((i, i + 1));
        edges.push((i + 7, i + 8));
    }
    for i in 0..7 {
        edges.push((i, i + 7));
    }
    edges.push((13, 14));
    build(
        Anchor {
            name: "ibmq-melbourne",
            qv: 8,
            sq: 2.0e-3,
            tq: 4.2e-2,
            ro: (0.06, 0.082),
            t1: 1.8e-3,
            t2: 2.8e-3,
        },
        15,
        edges,
    )
}

/// IBMQ-Quito stand-in: 5-qubit T topology, QV 16.
pub fn quito() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-quito",
            qv: 16,
            sq: 1.0e-3,
            tq: 1.9e-2,
            ro: (0.045, 0.06),
            t1: 7.0e-4,
            t2: 1.0e-3,
        },
        5,
        vec![(0, 1), (1, 2), (1, 3), (3, 4)],
    )
}

/// IBMQ-Lima stand-in: 5-qubit T topology, QV 8.
pub fn lima() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-lima",
            qv: 8,
            sq: 9.0e-4,
            tq: 1.7e-2,
            ro: (0.038, 0.052),
            t1: 6.0e-4,
            t2: 9.0e-4,
        },
        5,
        vec![(0, 1), (1, 2), (1, 3), (3, 4)],
    )
}

/// IBMQ-Bogota stand-in: 5-qubit line, QV 32.
pub fn bogota() -> DeviceModel {
    build(
        Anchor {
            name: "ibmq-bogota",
            qv: 32,
            sq: 7.0e-4,
            tq: 1.5e-2,
            ro: (0.03, 0.042),
            t1: 5.0e-4,
            t2: 8.0e-4,
        },
        5,
        line_edges(5),
    )
}

/// An ideal, noise-free "device" with an all-to-all line topology — used
/// for noise-free baselines.
pub fn noise_free(n_qubits: usize) -> DeviceModel {
    let mut b = DeviceModel::builder("noise-free", n_qubits).quantum_volume(u32::MAX);
    for i in 0..n_qubits.saturating_sub(1) {
        b = b.edge(i, i + 1, PauliErrorSpec::zero());
    }
    b.build().expect("noise-free model is valid")
}

/// All real-device presets, in roughly increasing-noise order.
pub fn all_devices() -> Vec<DeviceModel> {
    vec![
        santiago(),
        athens(),
        bogota(),
        lima(),
        quito(),
        belem(),
        yorktown(),
        melbourne(),
    ]
}

/// Looks up a preset by (case-insensitive) name suffix, e.g. `"santiago"`.
pub fn by_name(name: &str) -> Option<DeviceModel> {
    let lower = name.to_lowercase();
    all_devices()
        .into_iter()
        .find(|d| d.name().ends_with(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_round_trips_every_device() {
        // Every preset must be reachable back through by_name, via its
        // full registered name, its bare suffix, and any casing — and the
        // looked-up model must be the identical calibration data.
        for dev in all_devices() {
            let full = dev.name().to_owned();
            let suffix = full.rsplit('-').next().unwrap_or(&full).to_owned();
            for query in [full.clone(), suffix.clone(), suffix.to_uppercase()] {
                let found =
                    by_name(&query).unwrap_or_else(|| panic!("by_name({query:?}) lost {full}"));
                assert_eq!(found.name(), full, "query {query:?}");
                assert_eq!(
                    found.mean_single_qubit_error(),
                    dev.mean_single_qubit_error(),
                    "query {query:?} returned different calibration"
                );
                assert_eq!(found.n_qubits(), dev.n_qubits(), "query {query:?}");
            }
        }
        assert!(by_name("no-such-device").is_none());
    }

    #[test]
    fn yorktown_is_about_five_times_santiago() {
        let ratio = yorktown().mean_single_qubit_error() / santiago().mean_single_qubit_error();
        assert!((4.0..6.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn noise_ordering_matches_paper() {
        let devs = all_devices();
        // Santiago is the least noisy, Melbourne the worst.
        let errs: Vec<f64> = devs.iter().map(|d| d.mean_single_qubit_error()).collect();
        assert!(errs[0] < errs[errs.len() - 2]);
        // Yorktown has the worst single-qubit gates (5× Santiago, paper §1);
        // Melbourne has the worst two-qubit gates and readout.
        let worst_sq = devs
            .iter()
            .max_by(|a, b| {
                a.mean_single_qubit_error()
                    .total_cmp(&b.mean_single_qubit_error())
            })
            .unwrap();
        assert_eq!(worst_sq.name(), "ibmq-yorktown");
        let worst_tq = devs
            .iter()
            .max_by(|a, b| {
                a.mean_two_qubit_error()
                    .total_cmp(&b.mean_two_qubit_error())
            })
            .unwrap();
        assert_eq!(worst_tq.name(), "ibmq-melbourne");
    }

    #[test]
    fn all_presets_validate_and_serialize() {
        for d in all_devices() {
            d.validate().unwrap();
            let back = DeviceModel::from_json(&d.to_json()).unwrap();
            assert_eq!(d, back);
        }
    }

    #[test]
    fn melbourne_has_15_qubits() {
        assert_eq!(melbourne().n_qubits(), 15);
    }

    #[test]
    fn qubit_heterogeneity_is_present() {
        let d = santiago();
        let e0 = d.single_qubit_error(0).total();
        let e3 = d.single_qubit_error(3).total();
        assert!((e3 / e0 - 1.9).abs() < 1e-9);
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("santiago").is_some());
        assert!(by_name("Yorktown").is_some());
        assert!(by_name("osaka").is_none());
    }

    #[test]
    fn noise_free_has_zero_errors() {
        let d = noise_free(4);
        assert_eq!(d.mean_single_qubit_error(), 0.0);
        assert_eq!(d.mean_two_qubit_error(), 0.0);
        assert_eq!(d.mean_readout_error(), 0.0);
    }
}
