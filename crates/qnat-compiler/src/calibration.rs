//! Tracker-sourced calibration views for noise-adaptive compilation.
//!
//! Level-3 transpilation scores layouts against a [`DeviceModel`]'s error
//! rates. When a live calibration tracker (the `qnat-calib` crate)
//! estimates a device's *instantaneous* error rate, this module turns
//! that estimate into the drifted model the level-3 pipeline should
//! compile against — with one crucial property for plan caching:
//!
//! **The estimate is quantized before it touches the model.** Plan caches
//! key compiled artifacts on `DeviceModel::fingerprint()`, which hashes
//! the model's full JSON. Feeding a raw estimate through would change the
//! fingerprint on every jittery update and thrash the cache; snapping the
//! estimate to a `quant_step` grid first means only *meaningful* drift
//! (a full step of movement) produces a new fingerprint and recompiles,
//! while estimator noise inside one step reuses the cached plan.

use qnat_noise::device::DeviceModel;

/// Snaps `estimate` to the `step` grid: `round(estimate / step) · step`.
///
/// `step <= 0` disables quantization (the raw estimate passes through) —
/// callers that want cache-stable fingerprints should keep it positive.
/// The result is clamped to `[0, 1]`, matching the tracker's estimate
/// range.
pub fn quantize_estimate(estimate: f64, step: f64) -> f64 {
    let e = estimate.clamp(0.0, 1.0);
    if step <= 0.0 || !step.is_finite() {
        return e;
    }
    ((e / step).round() * step).clamp(0.0, 1.0)
}

/// The drifted [`DeviceModel`] a tracker estimate implies, quantized for
/// fingerprint stability.
///
/// `reference` is the error rate the tracker observed (or would observe)
/// at calibration time — the rate corresponding to drift scale 1. The
/// view scales both gate and readout errors by
/// `quantize(estimate) / reference`, so an estimate at the reference
/// returns (a clone of) the calibrated model and a doubled estimate
/// compiles against doubled error rates. Non-positive or non-finite
/// `reference` falls back to the unscaled model — there is no trustworthy
/// baseline to scale against.
pub fn calibrated_view(
    model: &DeviceModel,
    estimate: f64,
    reference: f64,
    quant_step: f64,
) -> DeviceModel {
    if reference <= 0.0 || !reference.is_finite() {
        return model.clone();
    }
    let q = quantize_estimate(estimate, quant_step);
    let scale = q / reference;
    model.drifted(scale, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_noise::presets;

    #[test]
    fn quantization_snaps_to_grid_and_clamps() {
        assert_eq!(quantize_estimate(0.123, 0.05), 0.1);
        assert_eq!(quantize_estimate(0.126, 0.05), 0.15000000000000002);
        assert_eq!(quantize_estimate(-3.0, 0.05), 0.0);
        assert_eq!(quantize_estimate(7.0, 0.05), 1.0);
        // Disabled quantization passes the clamped estimate through.
        assert_eq!(quantize_estimate(0.123, 0.0), 0.123);
    }

    #[test]
    fn jitter_within_a_step_keeps_the_fingerprint() {
        let model = presets::santiago();
        let a = calibrated_view(&model, 0.101, 0.1, 0.05);
        let b = calibrated_view(&model, 0.099, 0.1, 0.05);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "jitter must not recompile"
        );
        let c = calibrated_view(&model, 0.16, 0.1, 0.05);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "a full quantization step of drift must recompile"
        );
    }

    #[test]
    fn reference_estimate_reproduces_the_calibrated_model() {
        let model = presets::santiago();
        let view = calibrated_view(&model, 0.1, 0.1, 0.05);
        assert_eq!(view.fingerprint(), model.drifted(1.0, 1.0).fingerprint());
        // A doubled estimate doubles the error scales.
        let hot = calibrated_view(&model, 0.2, 0.1, 0.05);
        assert_eq!(hot.fingerprint(), model.drifted(2.0, 2.0).fingerprint());
    }

    #[test]
    fn degenerate_reference_falls_back_to_the_static_model() {
        let model = presets::santiago();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let view = calibrated_view(&model, 0.4, bad, 0.05);
            assert_eq!(view.fingerprint(), model.fingerprint());
        }
    }
}
