//! Order statistics over latency samples.

use crate::yardstick::slowdown;
use qnat_json::Json;
use std::collections::BTreeMap;

/// A tail percentile the sample actually supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99, or lower when the sample is short).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (upper median for even counts); `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    v.get(v.len() / 2).copied()
}

/// The nearest-rank `p`-th percentile; `None` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied()
}

/// The tail latency to report: p99 when at least [`TAIL_SUPPORT`]
/// samples lie beyond it, otherwise the highest nearest-rank percentile
/// that still has that many samples beyond it. `None` when the sample
/// cannot support any tail.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    // Nearest rank of p99 is ceil(0.99 n); it leaves n − rank samples
    // beyond it.
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_SUPPORT);
    let percentile = if rank == p99_rank {
        99.0
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        percentile,
        value: sorted(xs)[rank - 1],
        samples: n,
    })
}

/// The arithmetic mean; `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Length of the windows a run's samples are grouped into, seconds.
pub const WINDOW_S: f64 = 0.5;

/// Groups samples into consecutive [`WINDOW_S`] windows by their offset
/// in seconds from the start of the measured phase.
pub fn windows<T>(
    samples: impl IntoIterator<Item = T>,
    offset_s: impl Fn(&T) -> f64,
) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = Vec::new();
    for s in samples {
        let w = (offset_s(&s).max(0.0) / WINDOW_S) as usize;
        if out.len() <= w {
            out.resize_with(w + 1, Vec::new);
        }
        out[w].push(s);
    }
    out
}

/// The share of a run's windows kept as quiet: one in this many.
pub const QUIET_ONE_IN: usize = 2;

/// Indices of the quietest half of `windows` (at least one), by
/// lowest `cost`, in window order.
///
/// Even scaled by the yardstick, a window the host's other tenants
/// slowed reads a few percent high, because no yardstick slows by
/// exactly the workload's factor. Keeping the half of the windows in
/// which the yardstick ran fastest measures the program at the
/// machine's quietest, where that error is smallest: a change to the
/// program itself moves every window alike. Windows holding fewer than
/// half the operations of the fullest one (the run's ragged edges) are
/// not candidates.
pub fn quietest<T>(windows: &[Vec<T>], cost: impl Fn(usize, &[T]) -> f64) -> Vec<usize> {
    let fullest = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut ranked: Vec<(f64, usize)> = windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty() && 2 * w.len() >= fullest)
        .map(|(i, w)| (cost(i, w), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut kept: Vec<usize> = ranked[..ranked.len().div_ceil(QUIET_ONE_IN)]
        .iter()
        .map(|&(_, i)| i)
        .collect();
    kept.sort_unstable();
    kept
}

/// How many times slower than the yardstick's reference the machine ran
/// in each [`WINDOW_S`] window of a run.
#[derive(Debug, Clone)]
pub struct Speed {
    windows: Vec<Option<f64>>,
    run: f64,
}

impl Speed {
    /// The slowdown of each window, from `(offset_s, cpu, unit_ms)`
    /// yardstick readings taken during the run: per window, the mean
    /// over CPUs of each CPU's median slowdown.
    pub fn of(readings: &[(f64, usize, f64)]) -> Speed {
        let over_cpus = |rs: &[&(f64, usize, f64)]| {
            let mut by_cpu: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for &&(_, cpu, ms) in rs {
                by_cpu.entry(cpu).or_default().push(ms);
            }
            let per_cpu: Vec<f64> = by_cpu.values().filter_map(|ms| slowdown(ms)).collect();
            mean(&per_cpu)
        };
        let windows = windows(readings.iter(), |(at, _, _)| *at)
            .iter()
            .map(|w| over_cpus(w))
            .collect();
        let all: Vec<&(f64, usize, f64)> = readings.iter().collect();
        Speed {
            windows,
            run: over_cpus(&all).unwrap_or(1.0),
        }
    }

    /// The slowdown in window `w`; the whole run's where the window
    /// holds no reading.
    pub fn at(&self, w: usize) -> f64 {
        self.windows.get(w).copied().flatten().unwrap_or(self.run)
    }
}

/// Latency figures over a set of operations.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Operations summarised.
    pub ops: usize,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// Tail latency, when the sample supports one.
    pub tail: Option<Tail>,
    /// Operations per second of latency (the closed-loop rate): the
    /// median over the windows of each window's rate, so one window an
    /// outlier lands in does not move it.
    pub per_busy_s: f64,
    /// Windows the operations came from, of how many.
    pub windows: (usize, usize),
    /// Median slowdown of those windows; the latencies are divided by
    /// each window's own slowdown when the summary is scaled.
    pub slowdown: f64,
    /// Whether the latencies are scaled to the reference speed.
    pub scaled: bool,
}

/// One window of a run: its operations' latencies (ms) and how much
/// slower than the reference the machine ran in it.
#[derive(Debug, Clone)]
pub struct Window {
    /// Latencies, ms, as measured.
    pub ms: Vec<f64>,
    /// The window's slowdown.
    pub slowdown: f64,
}

/// A run's latencies, grouped into windows of time.
#[derive(Debug, Clone, Default)]
pub struct Windowed(pub Vec<Window>);

impl Windowed {
    /// Groups `(offset_s, ms)` operations into [`WINDOW_S`] windows by
    /// their offset into the measured phase, each with its slowdown.
    pub fn of(ops: &[(f64, f64)], speed: &Speed) -> Windowed {
        Windowed(
            windows(ops.iter(), |(at, _)| *at)
                .into_iter()
                .enumerate()
                .filter(|(_, w)| !w.is_empty())
                .map(|(i, w)| Window {
                    ms: w.into_iter().map(|&(_, ms)| ms).collect(),
                    slowdown: speed.at(i),
                })
                .collect(),
        )
    }

    /// Summaries over every operation as measured, and over the
    /// [`quietest`] windows by slowdown with each latency scaled to the
    /// reference speed.
    pub fn all_and_quiet(&self) -> (Summary, Summary) {
        let ws = &self.0;
        let lens: Vec<Vec<()>> = ws.iter().map(|w| vec![(); w.ms.len()]).collect();
        let kept = quietest(&lens, |i, _| ws[i].slowdown);
        let quiet: Vec<Vec<f64>> = kept
            .iter()
            .map(|&i| ws[i].ms.iter().map(|ms| ms / ws[i].slowdown).collect())
            .collect();
        let all: Vec<Vec<f64>> = ws.iter().map(|w| w.ms.clone()).collect();
        let slow = |idx: &mut dyn Iterator<Item = usize>| {
            median(&idx.map(|i| ws[i].slowdown).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        (
            Summary::of(&all, (ws.len(), ws.len()), slow(&mut (0..ws.len())), false),
            Summary::of(
                &quiet,
                (kept.len(), ws.len()),
                slow(&mut kept.iter().copied()),
                true,
            ),
        )
    }

    /// The median latency of each window as measured, for the record:
    /// how much the host's other tenants moved the run.
    pub fn p50s(&self) -> Json {
        Json::nums(self.0.iter().map(|w| median(&w.ms).unwrap_or(f64::NAN)))
    }

    /// Each window's slowdown, for the record.
    pub fn slowdowns(&self) -> Json {
        Json::nums(self.0.iter().map(|w| w.slowdown))
    }
}

impl Summary {
    fn of(groups: &[Vec<f64>], windows: (usize, usize), slowdown: f64, scaled: bool) -> Summary {
        let ms: Vec<f64> = groups.iter().flatten().copied().collect();
        let rates: Vec<f64> = groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| g.len() as f64 / (g.iter().sum::<f64>() / 1e3))
            .collect();
        Summary {
            ops: ms.len(),
            p50_ms: median(&ms).unwrap_or(f64::NAN),
            p90_ms: percentile(&ms, 90.0).unwrap_or(f64::NAN),
            tail: tail(&ms),
            per_busy_s: median(&rates).unwrap_or(f64::NAN),
            windows,
            slowdown,
            scaled,
        }
    }

    /// The tail latency, ms (NaN when unsupported).
    pub fn tail_ms(&self) -> f64 {
        self.tail.map_or(f64::NAN, |t| t.value)
    }

    /// The summary for a result record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops", Json::Num(self.ops as f64)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p90_ms", Json::Num(self.p90_ms)),
            ("tail_ms", Json::Num(self.tail_ms())),
            (
                "tail_percentile",
                Json::Num(self.tail.map_or(f64::NAN, |t| t.percentile)),
            ),
            ("per_busy_s", Json::Num(self.per_busy_s)),
            (
                "windows",
                Json::nums([self.windows.0 as f64, self.windows.1 as f64]),
            ),
            ("slowdown", Json::Num(self.slowdown)),
            ("scaled", Json::Bool(self.scaled)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    fn beyond(xs: &[f64], t: &Tail) -> usize {
        xs.iter().filter(|&&x| x > t.value).count()
    }

    #[test]
    fn p99_when_the_sample_supports_it() {
        for n in [1000, 1001, 4567, 100_000] {
            let xs = ramp(n);
            let t = tail(&xs).unwrap();
            assert_eq!(t.percentile, 99.0, "n = {n}");
            assert_eq!(t.samples, n);
            assert!(beyond(&xs, &t) >= TAIL_SUPPORT, "n = {n}");
        }
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn short_samples_report_the_highest_supported_percentile() {
        let xs = ramp(500);
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 98.0);
        assert_eq!(t.value, 490.0);
        assert_eq!(beyond(&xs, &t), TAIL_SUPPORT);

        let xs = ramp(11);
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(beyond(&xs, &t), TAIL_SUPPORT);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn too_few_samples_support_no_tail() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windows_group_by_offset() {
        let at = |k: f64| k * WINDOW_S;
        let w = windows([at(0.1), at(0.9), at(1.0), at(2.5), at(2.7)], |&t| t);
        assert_eq!(
            w,
            vec![
                vec![at(0.1), at(0.9)],
                vec![at(1.0)],
                vec![at(2.5), at(2.7)]
            ]
        );
    }

    #[test]
    fn quietest_keeps_the_cheapest_half_of_full_windows() {
        // Four full windows, slow (cost ~2) except windows 1 and 2
        // (cost ~1), plus a ragged last window that looks cheapest.
        let mut ws: Vec<Vec<f64>> = (0..4)
            .map(|i| match i {
                1 => vec![1.05; 10],
                2 => vec![1.0; 10],
                _ => vec![2.0 + i as f64 / 100.0; 10],
            })
            .collect();
        ws.push(vec![0.5; 3]);
        let cost = |_: usize, w: &[f64]| median(w).unwrap();
        assert_eq!(quietest(&ws, cost), vec![1, 2]);
        // Five candidates keep three; one keeps itself.
        let many: Vec<Vec<f64>> = (0..5).map(|i| vec![5.0 - i as f64; 10]).collect();
        assert_eq!(quietest(&many, cost), vec![2, 3, 4]);
        assert_eq!(quietest(&ws[..1], cost), vec![0]);
        assert!(quietest::<f64>(&[], cost).is_empty());
    }

    #[test]
    fn latencies_are_scaled_by_their_windows_slowdown() {
        let r = crate::yardstick::REFERENCE_MS;
        // Window 0: CPU 0 at reference speed, CPU 1 three times slower;
        // window 1: both at reference speed.
        let speed = Speed::of(&[(0.1, 0, r), (0.2, 1, 3.0 * r), (0.6, 0, r), (0.7, 1, r)]);
        assert_eq!(speed.at(0), 2.0);
        assert_eq!(speed.at(1), 1.0);
        // A window without readings takes the whole run's: CPU 0 at 1,
        // CPU 1 at the upper median 3.
        assert_eq!(speed.at(7), 2.0);

        let ops: Vec<(f64, f64)> = [0.05, 0.15, 0.25, 0.35]
            .iter()
            .map(|&at| (at, 10.0))
            .chain([0.55, 0.65, 0.75, 0.85].iter().map(|&at| (at, 5.0)))
            .collect();
        let (all, quiet) = Windowed::of(&ops, &speed).all_and_quiet();
        assert_eq!((all.p50_ms, all.scaled), (10.0, false));
        // The quieter half is window 1 alone.
        assert_eq!(
            (quiet.p50_ms, quiet.scaled, quiet.windows),
            (5.0, true, (1, 2))
        );
        assert_eq!(quiet.per_busy_s, 200.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(20);
        assert_eq!(percentile(&xs, 90.0), Some(18.0));
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
