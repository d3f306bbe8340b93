//! Shared latency statistics for the throughput benches.
//!
//! Extracted from `benches/serve_throughput.rs` (ISSUE 5 satellite): the
//! original inline percentile computed `sorted.len() - 1` and panicked on
//! an empty sample via usize underflow. Both the serving and transport
//! benches now share this guarded helper.

use std::time::Duration;

/// Nearest-rank percentile of an **ascending-sorted** latency sample, in
/// milliseconds. `p` is on the 0–100 scale (clamped). Returns `None` for
/// an empty sample instead of underflowing.
pub fn percentile_ms(sorted: &[Duration], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let frac = (p / 100.0).clamp(0.0, 1.0);
    let idx = (frac * last as f64).round() as usize;
    Some(sorted[idx.min(last)].as_secs_f64() * 1e3)
}

/// The p50/p90/p99 triple the bench reports write, from an **unsorted**
/// sample (sorted internally). All zeros for an empty sample.
pub fn latency_percentiles_ms(samples: &mut [Duration]) -> (f64, f64, f64) {
    samples.sort();
    (
        percentile_ms(samples, 50.0).unwrap_or(0.0),
        percentile_ms(samples, 90.0).unwrap_or(0.0),
        percentile_ms(samples, 99.0).unwrap_or(0.0),
    )
}

/// The tail quadruple the load harness gates on, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyTails {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile — needs ≥1000 samples to mean more than the
    /// max; on shorter slices nearest-rank makes it exactly the max,
    /// which is the honest reading.
    pub p999: f64,
}

/// p50/p90/p99/p999 from an **unsorted** sample (sorted internally).
/// All zeros for an empty sample.
pub fn latency_tails_ms(samples: &mut [Duration]) -> LatencyTails {
    samples.sort();
    LatencyTails {
        p50: percentile_ms(samples, 50.0).unwrap_or(0.0),
        p90: percentile_ms(samples, 90.0).unwrap_or(0.0),
        p99: percentile_ms(samples, 99.0).unwrap_or(0.0),
        p999: percentile_ms(samples, 99.9).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_millis(v)).collect()
    }

    #[test]
    fn empty_sample_is_none_not_a_panic() {
        assert_eq!(percentile_ms(&[], 50.0), None);
        assert_eq!(latency_percentiles_ms(&mut Vec::new()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = ms(&[7]);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_ms(&s, p), Some(7.0));
        }
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let s = ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile_ms(&s, 0.0), Some(1.0));
        assert_eq!(percentile_ms(&s, 50.0), Some(6.0), "round(0.5 * 9) = 5");
        assert_eq!(percentile_ms(&s, 100.0), Some(10.0));
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let s = ms(&[3, 9]);
        assert_eq!(percentile_ms(&s, -10.0), Some(3.0));
        assert_eq!(percentile_ms(&s, 250.0), Some(9.0));
    }

    #[test]
    fn triple_sorts_its_input() {
        let mut s = ms(&[9, 1, 5]);
        let (p50, p90, p99) = latency_percentiles_ms(&mut s);
        assert_eq!((p50, p90, p99), (5.0, 9.0, 9.0));
    }

    #[test]
    fn p999_guards_empty_and_short_slices() {
        // Empty: zeros, no underflow.
        assert_eq!(latency_tails_ms(&mut Vec::new()), LatencyTails::default());
        // Short slice: p999 collapses to the max — nearest-rank on 3
        // samples cannot resolve a 1-in-1000 tail.
        let mut short = ms(&[9, 1, 5]);
        let tails = latency_tails_ms(&mut short);
        assert_eq!(tails.p999, 9.0);
        assert_eq!(tails.p99, 9.0);
        // Long slice: p999 sits between p99 and the max.
        let mut long: Vec<Duration> = (1..=2000).map(Duration::from_millis).collect();
        let tails = latency_tails_ms(&mut long);
        assert!(tails.p99 < tails.p999, "p999 resolves past p99: {tails:?}");
        assert!(tails.p999 <= 2000.0);
        assert_eq!(
            tails.p999, 1998.0,
            "nearest rank: round(0.999 * 1999) = 1997"
        );
    }
}
