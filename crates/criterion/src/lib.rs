//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this minimal harness
//! supports the API subset the workspace benches use: [`Criterion`] with
//! `bench_function` / `bench_with_input` / `benchmark_group`,
//! [`BenchmarkId`], [`Throughput`], [`Bencher::iter`], [`black_box`], and the
//! `criterion_group!` / `criterion_main!` macros. Instead of rigorous
//! statistics it reports the median of a small fixed number of timed
//! batches — enough to compare orders of magnitude, not to detect
//! single-digit-percent regressions.

#![warn(missing_docs)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched code.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Names one case of a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A compound id `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{parameter}", function.into()),
        }
    }

    /// An id carrying only the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Work done per iteration, set on a group with
/// [`BenchmarkGroup::throughput`]; reports then add the time per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (amplitudes, rows, …) processed per iteration.
    Elements(u64),
}

/// Passed to bench closures; times the workload.
#[derive(Default)]
pub struct Bencher {
    /// Median batch time per iteration, once [`Bencher::iter`] ran.
    per_iter_ns: Option<f64>,
}

/// Timed batches per measurement; the report is their median.
const BATCHES: usize = 5;

/// The median of `batches` (each `iters_per_batch` iterations long), in
/// nanoseconds per iteration. One batch slowed by preemption moves the
/// median by at most one rank, where it would drag a mean by its whole
/// excess.
fn median_per_iter_ns(batches: &[Duration], iters_per_batch: u64) -> f64 {
    let mut sorted = batches.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    };
    median.as_nanos() as f64 / iters_per_batch.max(1) as f64
}

impl Bencher {
    /// Runs `f` in a few equal timed batches and records the median
    /// batch's time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warmup, then timed batches sized so the fastest workloads
        // still accumulate measurable time per batch.
        black_box(f());
        let probe = Instant::now();
        black_box(f());
        let once = probe.elapsed();
        let per_batch = if once < Duration::from_micros(50) {
            (Duration::from_millis(2).as_nanos() / once.as_nanos().max(1)) as u64
        } else {
            1
        }
        .max(1);
        let mut batches = [Duration::ZERO; BATCHES];
        for batch in &mut batches {
            let start = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            *batch = start.elapsed();
        }
        self.per_iter_ns = Some(median_per_iter_ns(&batches, per_batch));
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        let Some(per_iter) = self.per_iter_ns else {
            println!("{label:50} (no measurement)");
            return;
        };
        match throughput {
            Some(Throughput::Elements(n)) => println!(
                "{label:50} {:>12.2} ns/iter {:>10.3} ns/elem",
                per_iter,
                per_iter / n.max(1) as f64
            ),
            None => println!("{label:50} {:>12.2} ns/iter", per_iter),
        }
    }
}

/// Top-level benchmark registry (stand-in for `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Benches a single named function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        b.report(name, None);
        self
    }

    /// Benches a function against one input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b, input);
        b.report(&id.label, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            name,
            throughput: None,
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the work per iteration of the benches that follow in the
    /// group, so their reports add the time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benches a named function within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        b.report(&format!("{}/{name}", self.name), self.throughput);
        self
    }

    /// Benches a function against one input value within the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.label), self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group function (`criterion_group!` subset).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main` (`criterion_main!` subset).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_batch_does_not_move_the_median() {
        let ms = Duration::from_millis;
        // Four ~10 ms batches of 10 iterations and one preempted 100 ms
        // batch: the mean would read 2.8 ms per iteration.
        let batches = [ms(10), ms(11), ms(100), ms(9), ms(10)];
        assert_eq!(median_per_iter_ns(&batches, 10), 1_000_000.0);
        let fast_outlier = [ms(10), ms(1), ms(12), ms(11), ms(13)];
        assert_eq!(median_per_iter_ns(&fast_outlier, 10), 1_100_000.0);
        // An even count averages the middle pair.
        assert_eq!(
            median_per_iter_ns(&[ms(4), ms(2), ms(40), ms(6)], 2),
            2_500_000.0
        );
    }

    #[test]
    fn bench_function_reports_and_returns() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.bench_function("f", |b| b.iter(|| black_box(2 * 2)));
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::from_parameter(4), &4, |b, &n| {
            b.iter(|| black_box(n * n))
        });
        g.finish();
    }
}
