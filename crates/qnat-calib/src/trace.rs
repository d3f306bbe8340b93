//! [`CalibTrace`]: the replayable record of prediction-driven routing.
//!
//! Which device a fleet router picks under `ScorePolicy::Predicted`
//! depends on tracker state at decision time, which is timing-dependent
//! (the documented relaxation the routing layer already accepts for
//! breaker state). What must *not* be lost is auditability: every
//! decision records the exact score components of every candidate —
//! estimate source included — so [`replay_decision`] recomputes the
//! winner from the trace alone, bitwise, with no tracker or fleet state
//! in hand. The serving-side replay story is unchanged: the winning
//! attempt still re-executes bitwise from the `RoutingTrace`, because
//! per-job seeds never depend on the routing decision.

/// Where a candidate's noise term came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseSource {
    /// The static (or declared-drift) calibration estimate — used during
    /// tracker cold start.
    Static,
    /// The tracker's routing estimate (prediction + uncertainty margin).
    Predicted,
}

/// One candidate's scored row in a routing decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Device name.
    pub device: String,
    /// Device index in fleet order (the tie-break key: lower wins).
    pub index: usize,
    /// The noise term used (tracker estimate or static fallback).
    pub noise: f64,
    /// Which source produced `noise`.
    pub source: NoiseSource,
    /// Engine load (queued + running) at decision time.
    pub depth: f64,
    /// Breaker penalty applied (0 / half-open / open).
    pub penalty: f64,
    /// The final score: `w.depth·depth + w.noise·noise + penalty`.
    pub score: f64,
}

/// One prediction-driven routing decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibDecision {
    /// Fleet ticket the decision routed.
    pub job: u64,
    /// Depth weight in force.
    pub depth_weight: f64,
    /// Noise weight in force.
    pub noise_weight: f64,
    /// Every candidate scored, in fleet-index order.
    pub candidates: Vec<CandidateScore>,
    /// Fleet index of the chosen device.
    pub chosen: usize,
}

/// Every prediction-driven decision, in routing order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibTrace {
    /// Decisions in the order the router made them.
    pub decisions: Vec<CalibDecision>,
}

/// Recomputes a decision's winner from its recorded components: each
/// candidate's score is rebuilt as
/// `depth_weight·depth + noise_weight·noise + penalty` and the argmin
/// wins, ties to the lower fleet index — the router's exact rule.
/// Returns `None` for a decision with no candidates.
///
/// A mismatch with [`CalibDecision::chosen`] (or with the recorded
/// per-candidate scores) means the trace was corrupted or the scoring
/// rule changed — the determinism property `tests/calib_props.rs` pins.
pub fn replay_decision(decision: &CalibDecision) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for c in &decision.candidates {
        let score = decision.depth_weight * c.depth + decision.noise_weight * c.noise + c.penalty;
        let better = match best {
            None => true,
            Some((_, b)) => score < b,
        };
        if better {
            best = Some((c.index, score));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(index: usize, noise: f64, depth: f64, penalty: f64) -> CandidateScore {
        CandidateScore {
            device: format!("d{index}"),
            index,
            noise,
            source: NoiseSource::Predicted,
            depth,
            penalty,
            score: 0.01 * depth + noise + penalty,
        }
    }

    #[test]
    fn replay_picks_the_recorded_argmin() {
        let d = CalibDecision {
            job: 7,
            depth_weight: 0.01,
            noise_weight: 1.0,
            candidates: vec![
                candidate(0, 0.4, 2.0, 0.0),
                candidate(1, 0.1, 0.0, 0.0),
                candidate(2, 0.1, 0.0, 0.05),
            ],
            chosen: 1,
        };
        assert_eq!(replay_decision(&d), Some(1));
    }

    #[test]
    fn ties_break_toward_the_lower_index() {
        let d = CalibDecision {
            job: 0,
            depth_weight: 0.0,
            noise_weight: 1.0,
            candidates: vec![candidate(3, 0.2, 0.0, 0.0), candidate(5, 0.2, 0.0, 0.0)],
            chosen: 3,
        };
        assert_eq!(replay_decision(&d), Some(3));
        assert_eq!(
            replay_decision(&CalibDecision {
                candidates: vec![],
                ..d
            }),
            None
        );
    }
}
