//! The [`CalibrationTracker`]: an online learned estimator of per-device
//! instantaneous error rates, trained on the execution-report stream.
//!
//! ## Features and label
//!
//! Every delivered job contributes one observation per device, extracted
//! from the job's [`ExecutionReport`] through the stable per-backend
//! accessors ([`ExecutionReport::backend_usage`] and friends): retry
//! rate, terminal failure, validation-failure rate, breaker fast-fails,
//! normalized backoff and fallback usage. The supervised label is the
//! job's *empirical per-attempt failure fraction*
//! `y = (retries + terminal) / attempts` — the maximum-likelihood sample
//! of the device's effective failure probability that the fault layer's
//! drift coupling ties to calibration decay. Each observation carries an
//! importance weight equal to its attempt count: a per-job failure
//! fraction is a biased sample of the per-attempt rate (mean-of-ratios ≠
//! ratio-of-means), and attempt-weighting both the window summaries and
//! the regression loss moves the stationary point to exactly
//! `Σ failures / Σ attempts` — the unbiased per-attempt rate.
//!
//! ## Model
//!
//! Per device, a logistic regressor `ŷ = σ(w · φ)` over a sliding
//! feature window: `φ` summarizes the last `window` observations (means,
//! the latest label, and a first-half/second-half trend term that lets
//! the model extrapolate `DriftModel::Linear` creep instead of lagging
//! it). One Adam step per observation, on the driver thread, through the
//! `qnat-autodiff` tape — non-finite gradients are skipped by the
//! optimizer, and the sigmoid clamps every estimate into `[0, 1]` by
//! construction.
//!
//! ## Update discipline
//!
//! Observations arrive keyed by a dense, monotone ticket (the fleet-wide
//! job index). The tracker buffers out-of-order arrivals in a reorder
//! buffer and applies them strictly in ticket order, so the final
//! tracker state is a pure function of the observation *set* — bitwise
//! invariant to pilot/worker timing, the same epochs-of-one discipline
//! the health layer uses (property-pinned in `tests/calib_props.rs`).

use qnat_autodiff::tape::Tape;
use qnat_autodiff::tensor::Tensor;
use qnat_core::executor::{BackendUsage, ExecutionReport};
use qnat_core::train::{Adam, AdamConfig};
use qnat_noise::device::DeviceModel;
use std::collections::{BTreeMap, VecDeque};

/// Raw per-observation features (see module docs).
const N_RAW: usize = 6;
/// Regression features `φ` derived from the window.
const N_PHI: usize = 9;

/// Tracker hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// Sliding-window length per device (clamped to ≥ 2).
    pub window: usize,
    /// Observations required before [`CalibrationTracker::estimate`]
    /// returns `Some` — the cold-start guard under which callers fall
    /// back to static calibration.
    pub min_observations: u64,
    /// Adam learning rate for the per-observation update.
    pub lr: f64,
    /// EMA coefficient of the prediction-residual tracker (`0 < α ≤ 1`).
    pub residual_alpha: f64,
    /// Uncertainty margin: routing estimates are inflated by
    /// `margin · residual_ema`, so devices the model predicts badly look
    /// riskier to the router — the per-device adaptive score weight.
    pub uncertainty_margin: f64,
    /// Quantization step for compile-time calibration views
    /// ([`CalibrationTracker::compile_view`]); keeps plan-cache
    /// fingerprints stable under estimator jitter.
    pub quant_step: f64,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            window: 32,
            min_observations: 8,
            lr: 0.08,
            residual_alpha: 0.1,
            uncertainty_margin: 1.0,
            quant_step: 0.02,
        }
    }
}

/// One raw observation in a device's window.
#[derive(Debug, Clone, Copy)]
struct Observation {
    raw: [f64; N_RAW],
    label: f64,
    /// Importance weight = attempts behind the label (clamped). A per-job
    /// failure fraction is a biased sample of the per-attempt rate
    /// (mean-of-ratios ≠ ratio-of-means); attempt-weighting the window
    /// means and the regression loss makes the stationary point exactly
    /// `Σ failures / Σ attempts` — the unbiased per-attempt rate.
    weight: f64,
}

/// Per-device estimator state.
#[derive(Debug, Clone)]
struct DeviceTrack {
    window: VecDeque<Observation>,
    weights: Vec<f64>,
    adam: Adam,
    residual_ema: f64,
    abs_err_sum: f64,
    /// Attempt-weighted squared prequential residuals (see
    /// [`CalibrationTracker::brier`]).
    sq_err_sum: f64,
    err_weight_sum: f64,
    err_count: u64,
    observations: u64,
    skipped: u64,
}

impl DeviceTrack {
    fn new(config: &CalibConfig) -> Self {
        let adam_config = AdamConfig {
            lr_max: config.lr,
            warmup_epochs: 0,
            total_epochs: 0,
            weight_decay: 0.0,
            ..AdamConfig::default()
        };
        DeviceTrack {
            window: VecDeque::with_capacity(config.window.max(2)),
            weights: vec![0.0; N_PHI],
            adam: Adam::new(adam_config, N_PHI),
            residual_ema: 0.0,
            abs_err_sum: 0.0,
            sq_err_sum: 0.0,
            err_weight_sum: 0.0,
            err_count: 0,
            observations: 0,
            skipped: 0,
        }
    }

    /// The window summary `φ` the regressor scores — `None` while the
    /// window is empty.
    fn phi(&self) -> Option<[f64; N_PHI]> {
        if self.window.is_empty() {
            return None;
        }
        let n = self.window.len();
        let mut mean_raw = [0.0; N_RAW];
        let mut mean_y = 0.0;
        let mut total_w = 0.0;
        for obs in &self.window {
            for (m, r) in mean_raw.iter_mut().zip(obs.raw) {
                *m += obs.weight * r;
            }
            mean_y += obs.weight * obs.label;
            total_w += obs.weight;
        }
        for m in &mut mean_raw {
            *m /= total_w;
        }
        mean_y /= total_w;
        // Old-half vs new-half weighted label means: positive when
        // failures are accelerating, negative when a recalibration
        // snapped them back.
        let half = n / 2;
        let trend = if half == 0 {
            0.0
        } else {
            let wmean = |it: &mut dyn Iterator<Item = &Observation>| {
                let (mut s, mut w) = (0.0, 0.0);
                for o in it {
                    s += o.weight * o.label;
                    w += o.weight;
                }
                s / w
            };
            wmean(&mut self.window.iter().skip(n - half))
                - wmean(&mut self.window.iter().take(half))
        };
        let last = self.window.back().map_or(0.0, |o| o.label);
        Some([
            1.0,
            mean_y,
            last,
            trend,
            mean_raw[0],
            mean_raw[1],
            mean_raw[2],
            mean_raw[3],
            mean_raw[4],
        ])
    }

    fn predict(&self, phi: &[f64; N_PHI]) -> f64 {
        let z: f64 = self.weights.iter().zip(phi).map(|(w, x)| w * x).sum();
        sigmoid(z)
    }
}

/// Numerically stable logistic sigmoid (matches the tape's forward).
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// One device's row in [`CalibrationHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCalibrationView {
    /// Device name.
    pub name: String,
    /// Current error-rate estimate (`None` during cold start).
    pub estimate: Option<f64>,
    /// The routing estimate: `estimate` plus the uncertainty margin.
    pub routing_estimate: Option<f64>,
    /// EMA of the absolute prediction residual.
    pub residual: f64,
    /// Window occupancy in `[0, 1]`.
    pub window_fill: f64,
    /// Observations applied so far (skipped no-evidence reports
    /// excluded).
    pub observations: u64,
}

/// A point-in-time view of the tracker, for `/healthz` and operators.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationHealth {
    /// One row per device, in fleet order.
    pub devices: Vec<DeviceCalibrationView>,
    /// Tickets applied in order so far.
    pub applied: u64,
    /// Out-of-order observations waiting in the reorder buffer.
    pub pending: usize,
}

/// A buffered observation awaiting its turn in ticket order.
#[derive(Debug, Clone)]
struct PendingObservation {
    device: usize,
    usage: BackendUsage,
    ok: bool,
}

/// Online learned calibration tracker over a fleet of named devices.
/// See the module docs for the model and update discipline.
#[derive(Debug, Clone)]
pub struct CalibrationTracker {
    config: CalibConfig,
    names: Vec<String>,
    tracks: Vec<DeviceTrack>,
    pending: BTreeMap<u64, PendingObservation>,
    next_ticket: u64,
}

impl CalibrationTracker {
    /// A tracker over `names` (fleet order), all devices cold.
    pub fn new(config: CalibConfig, names: Vec<String>) -> Self {
        let tracks = names.iter().map(|_| DeviceTrack::new(&config)).collect();
        CalibrationTracker {
            config,
            names,
            tracks,
            pending: BTreeMap::new(),
            next_ticket: 0,
        }
    }

    /// A tracker warm-started from declared per-device error rates.
    ///
    /// `φ[0]` is a constant bias feature, so seeding that weight to
    /// `logit(prior)` makes the cold regressor's first prediction exactly
    /// the declared calibration rate instead of the uninformed
    /// `σ(0) = 0.5` — prequential error during warm-up then starts from
    /// the same place as a frozen-preset baseline and Adam refines from
    /// the declared rate rather than from ignorance. Priors are clamped
    /// into `[1e-3, 1 − 1e-3]` (and non-finite priors ignored); devices
    /// beyond `priors.len()` stay cold at zero weights.
    pub fn with_priors(config: CalibConfig, names: Vec<String>, priors: &[f64]) -> Self {
        let mut tracker = Self::new(config, names);
        for (track, &prior) in tracker.tracks.iter_mut().zip(priors) {
            if !prior.is_finite() {
                continue;
            }
            let p = prior.clamp(1e-3, 1.0 - 1e-3);
            track.weights[0] = (p / (1.0 - p)).ln();
        }
        tracker
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &CalibConfig {
        &self.config
    }

    /// Tracked device names, in fleet order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Sums a report's per-backend usage into one evidence record via the
    /// stable [`ExecutionReport`] accessors — primary and fallback
    /// backends both count: the job's full attempt economy is the
    /// device's cost.
    pub fn report_usage(report: &ExecutionReport) -> BackendUsage {
        let mut total = BackendUsage::default();
        let keys: Vec<String> = report.backend_keys().map(str::to_owned).collect();
        for key in keys {
            total.merge(&report.backend_usage(&key));
        }
        total
    }

    /// Records the outcome of fleet ticket `ticket` on device `device`.
    /// Applies buffered observations strictly in ticket order; tickets
    /// already applied are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn observe(&mut self, ticket: u64, device: usize, usage: &BackendUsage, ok: bool) {
        assert!(device < self.tracks.len(), "device index out of range");
        if ticket < self.next_ticket {
            return;
        }
        self.pending.insert(
            ticket,
            PendingObservation {
                device,
                usage: *usage,
                ok,
            },
        );
        while let Some(obs) = self.pending.remove(&self.next_ticket) {
            self.next_ticket += 1;
            self.apply(&obs);
        }
    }

    fn apply(&mut self, obs: &PendingObservation) {
        let Some((raw, label, weight)) = extract(&obs.usage, obs.ok) else {
            self.tracks[obs.device].skipped += 1;
            return;
        };
        let config = self.config;
        let track = &mut self.tracks[obs.device];
        // Prequential step: predict the incoming label from the window
        // *before* it, account the residual, then train on it.
        if let Some(phi) = track.phi() {
            let predicted = track.predict(&phi);
            let residual = (label - predicted).abs();
            track.residual_ema = if track.err_count == 0 {
                residual
            } else {
                config.residual_alpha * residual
                    + (1.0 - config.residual_alpha) * track.residual_ema
            };
            track.abs_err_sum += residual;
            track.sq_err_sum += weight * residual * residual;
            track.err_weight_sum += weight;
            track.err_count += 1;
            let mut tape = Tape::new();
            let wv = tape.input(Tensor::new(track.weights.clone(), vec![1, N_PHI]));
            let z = tape.matmul_const(wv, Tensor::new(phi.to_vec(), vec![N_PHI, 1]));
            let p = tape.sigmoid(z);
            let yv = tape.input(Tensor::new(vec![label], vec![1, 1]));
            let d = tape.sub(p, yv);
            let sq = tape.mul(d, d);
            // Importance-weight the squared error by the observation's
            // attempt count (see `Observation::weight`).
            let wt = tape.input(Tensor::new(vec![weight], vec![1, 1]));
            let weighted = tape.mul(sq, wt);
            let loss = tape.mean(weighted);
            let grads = tape.backward(loss);
            let gw = grads.get(wv, &tape);
            track.adam.step(&mut track.weights, gw.data(), config.lr);
        }
        track.window.push_back(Observation { raw, label, weight });
        while track.window.len() > config.window.max(2) {
            track.window.pop_front();
        }
        track.observations += 1;
    }

    /// The current error-rate estimate for `device` — `σ(w·φ)` over the
    /// live window, always finite and in `[0, 1]`. `None` during cold
    /// start (fewer than [`CalibConfig::min_observations`] applied).
    pub fn estimate(&self, device: usize) -> Option<f64> {
        let track = self.tracks.get(device)?;
        if track.observations < self.config.min_observations {
            return None;
        }
        let phi = track.phi()?;
        Some(track.predict(&phi).clamp(0.0, 1.0))
    }

    /// The routing estimate: [`CalibrationTracker::estimate`] inflated by
    /// the uncertainty margin `margin · residual_ema` and re-clamped —
    /// devices the model predicts badly score as riskier.
    pub fn routing_estimate(&self, device: usize) -> Option<f64> {
        let e = self.estimate(device)?;
        let margin = self.config.uncertainty_margin * self.tracks[device].residual_ema;
        Some((e + margin).clamp(0.0, 1.0))
    }

    /// EMA of the absolute prediction residual for `device` (0 while
    /// cold).
    pub fn residual(&self, device: usize) -> f64 {
        self.tracks.get(device).map_or(0.0, |t| t.residual_ema)
    }

    /// Mean absolute prequential prediction error so far (`None` before
    /// the first scored prediction).
    pub fn mae(&self, device: usize) -> Option<f64> {
        let track = self.tracks.get(device)?;
        if track.err_count == 0 {
            return None;
        }
        Some(track.abs_err_sum / track.err_count as f64)
    }

    /// Attempt-weighted mean squared prequential prediction error — the
    /// prequential Brier score (`None` before the first scored
    /// prediction). This is the *proper* accuracy yardstick for a
    /// per-attempt rate estimator, and both halves of the weighting
    /// matter: against noisy per-job failure fractions, mean absolute
    /// error is minimized by the label *median* (rewarding
    /// under-prediction), and even *unweighted* squared error is
    /// minimized by the mean of the per-job ratios — which sits below
    /// the per-attempt rate (mean-of-ratios ≠ ratio-of-means, exactly
    /// the bias the training loss weights away). Weighting each squared
    /// residual by its attempt count makes the minimizer
    /// `Σ failures / Σ attempts` — the same per-attempt rate the
    /// regressor targets. Benches gate tracker-vs-frozen-preset
    /// accuracy on this.
    pub fn brier(&self, device: usize) -> Option<f64> {
        let track = self.tracks.get(device)?;
        if track.err_count == 0 || track.err_weight_sum <= 0.0 {
            return None;
        }
        Some(track.sq_err_sum / track.err_weight_sum)
    }

    /// Window occupancy for `device` in `[0, 1]`.
    pub fn window_fill(&self, device: usize) -> f64 {
        self.tracks.get(device).map_or(0.0, |t| {
            t.window.len() as f64 / self.config.window.max(2) as f64
        })
    }

    /// Observations applied for `device` (evidence-free reports are
    /// skipped and not counted).
    pub fn observations(&self, device: usize) -> u64 {
        self.tracks.get(device).map_or(0, |t| t.observations)
    }

    /// The regressor weights for `device` — exposed so determinism tests
    /// can compare tracker states bitwise.
    pub fn weights(&self, device: usize) -> &[f64] {
        &self.tracks[device].weights
    }

    /// Tickets applied in order so far (the reorder buffer's low-water
    /// mark).
    pub fn applied(&self) -> u64 {
        self.next_ticket
    }

    /// Out-of-order observations waiting in the reorder buffer.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The calibration view this tracker implies for `device`'s `model`:
    /// [`qnat_compiler::calibrated_view`] fed the current estimate,
    /// quantized by [`CalibConfig::quant_step`] so plan-cache
    /// fingerprints move only under meaningful drift. `reference` is the
    /// error rate at calibration (drift scale 1). Cold devices return
    /// the static model unchanged.
    pub fn compile_view(&self, device: usize, model: &DeviceModel, reference: f64) -> DeviceModel {
        match self.estimate(device) {
            Some(e) => qnat_compiler::calibrated_view(model, e, reference, self.config.quant_step),
            None => model.clone(),
        }
    }

    /// A point-in-time health snapshot of every device.
    pub fn health(&self) -> CalibrationHealth {
        let devices = (0..self.tracks.len())
            .map(|i| DeviceCalibrationView {
                name: self.names[i].clone(),
                estimate: self.estimate(i),
                routing_estimate: self.routing_estimate(i),
                residual: self.residual(i),
                window_fill: self.window_fill(i),
                observations: self.observations(i),
            })
            .collect();
        CalibrationHealth {
            devices,
            applied: self.applied(),
            pending: self.pending(),
        }
    }
}

/// The largest importance weight one observation may carry — bounds the
/// influence of any single pathological report on the window.
const MAX_WEIGHT: f64 = 64.0;

/// Extracts `(raw features, label, weight)` from one usage record, or
/// `None` when the record carries no evidence (nothing was attempted and
/// no fast-fail was recorded). The weight is the attempt count clamped
/// to `[1, MAX_WEIGHT]`.
fn extract(usage: &BackendUsage, ok: bool) -> Option<([f64; N_RAW], f64, f64)> {
    let attempts = usage.attempts;
    if attempts == 0 {
        if usage.fast_failed_jobs == 0 {
            return None;
        }
        // A breaker fast-fail ran nothing, but it *is* evidence: the
        // breaker opened because recent attempts failed.
        return Some(([0.0, 1.0, 0.0, 1.0, 0.0, 0.0], 1.0, 1.0));
    }
    let a = attempts as f64;
    let weight = a.clamp(1.0, MAX_WEIGHT);
    let terminal = if ok { 0.0 } else { 1.0 };
    let retry_rate = (usage.retries as f64 / a).clamp(0.0, 1.0);
    let validation_rate = (usage.validation_failures as f64 / a).clamp(0.0, 1.0);
    let fast_fail = if usage.fast_failed_jobs > 0 { 1.0 } else { 0.0 };
    let backoff_per_attempt = usage.backoff_ms as f64 / a;
    let backoff_norm = backoff_per_attempt / (backoff_per_attempt + 50.0);
    let fallback = if usage.fallback_jobs > 0 { 1.0 } else { 0.0 };
    let label = ((usage.retries as f64 + terminal) / a).clamp(0.0, 1.0);
    Some((
        [
            retry_rate,
            terminal,
            validation_rate,
            fast_fail,
            backoff_norm,
            fallback,
        ],
        label,
        weight,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A usage record for a job that succeeded after `retries` retries.
    fn usage(retries: usize) -> BackendUsage {
        BackendUsage {
            attempts: retries + 1,
            retries,
            backoff_ms: 8 * retries as u64,
            ..BackendUsage::default()
        }
    }

    fn tracker() -> CalibrationTracker {
        CalibrationTracker::new(CalibConfig::default(), vec!["a".into(), "b".into()])
    }

    /// A seed-deterministic retry count whose long-run failure fraction
    /// is close to `rate` (each attempt fails with probability ≈ rate,
    /// geometric retries capped at 3).
    fn synthetic_retries(rate: f64, t: u64) -> usize {
        let mut r = 0;
        for k in 0..3u64 {
            let h = qnat_core::executor::splitmix64(t.wrapping_mul(0x9e37) ^ k);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < rate {
                r += 1;
            } else {
                break;
            }
        }
        r
    }

    #[test]
    fn cold_start_returns_none_then_estimates() {
        let mut t = tracker();
        for k in 0..7 {
            assert_eq!(t.estimate(0), None, "cold at {k}");
            t.observe(k, 0, &usage(0), true);
        }
        t.observe(7, 0, &usage(0), true);
        let e = t.estimate(0).expect("warm after min_observations");
        assert!((0.0..=1.0).contains(&e));
        // Device 1 saw nothing and stays cold.
        assert_eq!(t.estimate(1), None);
    }

    #[test]
    fn tracks_a_constant_failure_rate() {
        let mut t = tracker();
        for k in 0..600 {
            t.observe(k, 0, &usage(synthetic_retries(0.35, k)), true);
        }
        let e = t.estimate(0).expect("warm");
        assert!(
            (e - 0.35).abs() < 0.12,
            "estimate {e} should approach the true per-attempt rate 0.35"
        );
        // The frozen wrong prior (0.0) is much farther than the tracker.
        let mae = t.mae(0).expect("scored");
        assert!(mae < 0.35, "prequential MAE {mae} beats predicting zero");
    }

    #[test]
    fn out_of_order_tickets_apply_in_ticket_order() {
        let obs: Vec<(u64, usize, BackendUsage, bool)> = (0..40u64)
            .map(|k| {
                (
                    k,
                    (k % 2) as usize,
                    usage(synthetic_retries(0.4, k)),
                    k % 5 != 0,
                )
            })
            .collect();
        let mut in_order = tracker();
        for (t, d, u, ok) in &obs {
            in_order.observe(*t, *d, u, *ok);
        }
        let mut shuffled = tracker();
        // A worst-case arrival order: all of the tail first, then the
        // head that unblocks the whole buffer.
        for (t, d, u, ok) in obs.iter().rev() {
            shuffled.observe(*t, *d, u, *ok);
        }
        for d in 0..2 {
            assert_eq!(in_order.weights(d), shuffled.weights(d), "device {d}");
            assert_eq!(in_order.estimate(d), shuffled.estimate(d));
            assert_eq!(in_order.residual(d), shuffled.residual(d));
        }
        assert_eq!(shuffled.pending(), 0);
        assert_eq!(shuffled.applied(), 40);
    }

    #[test]
    fn pathological_usage_keeps_estimates_clamped_and_finite() {
        let mut t = tracker();
        let nasty = [
            BackendUsage {
                attempts: usize::MAX,
                retries: usize::MAX,
                validation_failures: usize::MAX,
                fast_failed_jobs: usize::MAX,
                fallback_jobs: usize::MAX,
                backoff_ms: u64::MAX,
            },
            BackendUsage::default(),
            BackendUsage {
                attempts: 1,
                backoff_ms: u64::MAX,
                ..BackendUsage::default()
            },
        ];
        for k in 0..60u64 {
            t.observe(k, 0, &nasty[(k % 3) as usize], k % 2 == 0);
        }
        let e = t.estimate(0).expect("warm");
        assert!(e.is_finite() && (0.0..=1.0).contains(&e), "estimate {e}");
        assert!(t.residual(0).is_finite());
        for w in t.weights(0) {
            assert!(w.is_finite(), "weights stay finite");
        }
    }

    #[test]
    fn evidence_free_reports_are_skipped_not_counted() {
        let mut t = tracker();
        // attempts == 0 and no fast-fail: no evidence.
        t.observe(0, 0, &BackendUsage::default(), true);
        assert_eq!(t.observations(0), 0);
        assert_eq!(t.applied(), 1, "the ticket still advances");
        // A fast-fail with zero attempts *is* evidence (label 1).
        t.observe(
            1,
            0,
            &BackendUsage {
                fast_failed_jobs: 1,
                ..BackendUsage::default()
            },
            false,
        );
        assert_eq!(t.observations(0), 1);
    }

    #[test]
    fn report_usage_folds_every_backend_key() {
        let mut report = ExecutionReport::default();
        report.by_backend.insert(
            "emulator(a)".into(),
            BackendUsage {
                attempts: 4,
                retries: 3,
                backoff_ms: 24,
                ..BackendUsage::default()
            },
        );
        report.by_backend.insert(
            "noise-model(a)".into(),
            BackendUsage {
                attempts: 1,
                fallback_jobs: 1,
                ..BackendUsage::default()
            },
        );
        let total = CalibrationTracker::report_usage(&report);
        assert_eq!(total.attempts, 5);
        assert_eq!(total.retries, 3);
        assert_eq!(total.fallback_jobs, 1);
        assert_eq!(total.backoff_ms, 24);
    }
}
