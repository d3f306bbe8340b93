//! Property pins for the calibration tracker's three contracts (ISSUE 9):
//!
//! 1. **Arrival-order invariance** — tracker state is a function of the
//!    observation *set*, not the arrival schedule: any permutation of
//!    ticket deliveries (any split of the stream across workers/pilots,
//!    any epoch boundary) lands on bitwise-identical tracker state,
//!    because the reorder buffer applies strictly in ticket order.
//! 2. **Replayable decisions** — [`replay_decision`] recomputes a routing
//!    winner from the recorded score components alone, with ties broken
//!    toward the lower fleet index, for arbitrary candidate tables.
//! 3. **Clamped estimates** — no report stream, however pathological
//!    (zero attempts, `usize::MAX` counters, saturated backoff), drives
//!    any estimate out of `[0, 1]` or produces a non-finite number.

use proptest::prelude::*;
use qnat_calib::{replay_decision, CalibConfig, CalibDecision, CalibrationTracker};
use qnat_calib::{CandidateScore, NoiseSource};
use qnat_core::executor::BackendUsage;

/// One delivered-job observation: device index, usage evidence, outcome.
type Obs = (usize, BackendUsage, bool);

const N_DEVICES: usize = 3;

fn usage_from(
    (attempts, retries, vf, ff, fb, backoff): (usize, usize, usize, usize, usize, u64),
) -> BackendUsage {
    BackendUsage {
        attempts,
        retries,
        validation_failures: vf,
        fast_failed_jobs: ff,
        fallback_jobs: fb,
        backoff_ms: backoff,
    }
}

/// Realistic usage: a handful of attempts with correlated counters.
fn arb_usage() -> impl Strategy<Value = BackendUsage> {
    (
        0usize..6,
        0usize..8,
        0usize..4,
        0usize..2,
        0usize..2,
        0u64..2000,
    )
        .prop_map(usage_from)
}

/// Pathological usage: every counter independently 0, huge, or saturated.
fn pathological_usage() -> impl Strategy<Value = BackendUsage> {
    let count = || prop_oneof![Just(0usize), Just(1), Just(usize::MAX), 0usize..1000];
    let ms = prop_oneof![Just(0u64), Just(u64::MAX), 0u64..100_000];
    (count(), count(), count(), count(), count(), ms).prop_map(usage_from)
}

fn arb_obs(usage: impl Strategy<Value = BackendUsage>) -> impl Strategy<Value = Obs> {
    (0..N_DEVICES, usage, prop_oneof![Just(true), Just(false)])
}

/// A seed-keyed Fisher–Yates permutation of `0..n` — the arbitrary
/// arrival schedule (any worker interleaving, any epoch split).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64: cheap, uniform-enough for a shuffle key.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn tracker() -> CalibrationTracker {
    CalibrationTracker::new(
        CalibConfig {
            min_observations: 1,
            window: 8,
            ..CalibConfig::default()
        },
        (0..N_DEVICES).map(|i| format!("dev-{i}")).collect(),
    )
}

/// One device's comparable state: estimate and routing-estimate bits,
/// residual bits, window-fill bits, observation count.
type DeviceBits = (Option<u64>, Option<u64>, u64, u64, u64);

/// The per-device state the properties compare, with the floats as raw
/// bits so "equal" means *bitwise* equal, not merely approximately.
fn fingerprint(t: &CalibrationTracker) -> Vec<DeviceBits> {
    (0..N_DEVICES)
        .map(|i| {
            (
                t.estimate(i).map(f64::to_bits),
                t.routing_estimate(i).map(f64::to_bits),
                t.residual(i).to_bits(),
                t.window_fill(i).to_bits(),
                t.observations(i),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delivering the same ticketed observations in *any* arrival order —
    /// any interleaving of workers, any epoch split — produces bitwise
    /// identical tracker state, and the reorder buffer fully drains.
    #[test]
    fn tracker_state_is_bitwise_invariant_to_arrival_order(
        obs in prop::collection::vec(arb_obs(arb_usage()), 1..24),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let arrival = permutation(obs.len(), shuffle_seed);
        let mut in_order = tracker();
        for (ticket, (device, usage, ok)) in obs.iter().enumerate() {
            in_order.observe(ticket as u64, *device, usage, *ok);
        }
        let mut permuted = tracker();
        for &ticket in &arrival {
            let (device, usage, ok) = &obs[ticket];
            permuted.observe(ticket as u64, *device, usage, *ok);
        }
        prop_assert_eq!(fingerprint(&in_order), fingerprint(&permuted));
        prop_assert_eq!(in_order.health(), permuted.health());
        prop_assert_eq!(permuted.pending(), 0, "reorder buffer must drain");
        prop_assert_eq!(permuted.applied(), obs.len() as u64);
    }

    /// A decision whose winner is *constructed* to score strictly below
    /// every other candidate replays to exactly that winner, whatever the
    /// other components are; exact score ties break to the lower index.
    #[test]
    fn replay_recovers_the_winner_and_breaks_ties_low(
        depth_weight in 0.0f64..2.0,
        noise_weight in 0.1f64..2.0,
        rows in prop::collection::vec(
            (0.0f64..1.0, 0.0f64..50.0, 0.0f64..0.5),
            2..6,
        ),
        winner in 0usize..64,
    ) {
        let candidates: Vec<CandidateScore> = rows
            .iter()
            .enumerate()
            .map(|(index, &(noise, depth, penalty))| CandidateScore {
                device: format!("dev-{index}"),
                index,
                noise,
                source: NoiseSource::Predicted,
                depth,
                penalty,
                score: depth_weight * depth + noise_weight * noise + penalty,
            })
            .collect();
        let chosen = winner % candidates.len();
        let mut rigged = candidates.clone();
        // Pull the designated winner strictly below the field: zero its
        // additive terms and shrink its noise term under the global min.
        let floor = candidates
            .iter()
            .map(|c| c.score)
            .fold(f64::INFINITY, f64::min);
        rigged[chosen].depth = 0.0;
        rigged[chosen].penalty = 0.0;
        rigged[chosen].noise = (floor / noise_weight * 0.5).clamp(0.0, 1.0) * 0.5;
        let decision = CalibDecision {
            job: 0,
            depth_weight,
            noise_weight,
            candidates: rigged,
            chosen,
        };
        let replayed = replay_decision(&decision).expect("non-empty");
        // The rigged winner is unbeatable unless another candidate also
        // scores exactly 0 — then the router's rule says lower index.
        let rigged_score = decision.depth_weight * decision.candidates[chosen].depth
            + decision.noise_weight * decision.candidates[chosen].noise
            + decision.candidates[chosen].penalty;
        let expected = decision
            .candidates
            .iter()
            .position(|c| {
                decision.depth_weight * c.depth
                    + decision.noise_weight * c.noise
                    + c.penalty
                    <= rigged_score
            })
            .expect("the rigged winner itself qualifies");
        prop_assert_eq!(replayed, expected);
    }

    /// However pathological the report stream, every exposed number stays
    /// finite and inside its documented range.
    #[test]
    fn estimates_stay_finite_and_clamped_under_pathological_streams(
        obs in prop::collection::vec(arb_obs(pathological_usage()), 1..40),
    ) {
        let mut t = tracker();
        for (ticket, (device, usage, ok)) in obs.iter().enumerate() {
            t.observe(ticket as u64, *device, usage, *ok);
        }
        prop_assert_eq!(t.applied(), obs.len() as u64);
        for i in 0..N_DEVICES {
            if let Some(e) = t.estimate(i) {
                prop_assert!(e.is_finite() && (0.0..=1.0).contains(&e), "estimate {e}");
            }
            if let Some(r) = t.routing_estimate(i) {
                prop_assert!(
                    r.is_finite() && (0.0..=1.0).contains(&r),
                    "routing estimate {r}"
                );
            }
            if let Some(m) = t.mae(i) {
                prop_assert!(m.is_finite() && m >= 0.0, "mae {m}");
            }
            if let Some(b) = t.brier(i) {
                prop_assert!(b.is_finite() && b >= 0.0, "brier {b}");
            }
            let res = t.residual(i);
            prop_assert!(res.is_finite() && res >= 0.0, "residual {res}");
            let fill = t.window_fill(i);
            prop_assert!((0.0..=1.0).contains(&fill), "window fill {fill}");
        }
    }
}
