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
//!
//! Like criterion, it takes a name filter: `cargo bench --bench <b> --
//! <filter>` runs only the cases whose id (`group/case`, or the bare
//! name outside a group) contains `<filter>`. A bench's own acceptance
//! gate asks [`Criterion::selects`] with its group's name. With no
//! filter everything runs.

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
#[derive(Debug)]
pub struct Criterion {
    /// Only ids containing this run; `None` runs everything.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Takes the name filter from the command line.
    fn default() -> Criterion {
        Criterion {
            filter: filter_from_args(std::env::args().skip(1)),
        }
    }
}

/// The name filter among a bench binary's arguments: the first one that
/// is not a flag (`cargo bench` adds `--bench`).
fn filter_from_args(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|a| !a.starts_with('-'))
}

impl Criterion {
    /// Whether the case or gate `id` runs: there is no filter, or `id`
    /// contains it.
    pub fn selects(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Benches a single named function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if self.selects(name) {
            let mut b = Bencher::default();
            f(&mut b);
            b.report(name, None);
        }
        self
    }

    /// Benches a function against one input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        if self.selects(&id.label) {
            let mut b = Bencher::default();
            f(&mut b, input);
            b.report(&id.label, None);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            throughput: None,
            announced: false,
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    /// Whether the group's header is printed: before its first case that
    /// runs.
    announced: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the work per iteration of the benches that follow in the
    /// group, so their reports add the time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one case of the group, `f` timing it, if the filter selects
    /// its id.
    fn run(&mut self, case: &str, f: impl FnOnce(&mut Bencher)) {
        let id = format!("{}/{case}", self.name);
        if !self.parent.selects(&id) {
            return;
        }
        if !self.announced {
            println!("group: {}", self.name);
            self.announced = true;
        }
        let mut b = Bencher::default();
        f(&mut b);
        b.report(&id, self.throughput);
    }

    /// Benches a named function within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        self.run(name, |b| f(b));
        self
    }

    /// Benches a function against one input value within the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run(&id.label, |b| f(b, input));
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
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |a: &[&str]| filter_from_args(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), None);
        assert_eq!(args(&["--bench"]), None);
        assert_eq!(
            args(&["gate_kernels", "--bench"]).as_deref(),
            Some("gate_kernels")
        );
        assert_eq!(args(&["--bench", "mat4"]).as_deref(), Some("mat4"));
    }

    #[test]
    fn only_ids_containing_the_filter_run() {
        let mut c = Criterion {
            filter: Some("gate_kernels".into()),
        };
        let mut ran = Vec::new();
        c.bench_function("gate_kernels_alone", |_| ran.push("bare"));
        c.bench_function("statevector_run", |_| ran.push("skipped bare"));
        let mut g = c.benchmark_group("gate_kernels");
        g.bench_function("mat2", |_| ran.push("case"));
        g.bench_with_input(BenchmarkId::new("mat4", 4), &4, |_, _| ran.push("input"));
        g.finish();
        let mut g = c.benchmark_group("density_channel");
        g.bench_function("mat2", |_| ran.push("other group"));
        g.finish();
        assert_eq!(ran, ["bare", "case", "input"]);
        assert!(c.selects("gate_kernels"));
        assert!(!c.selects("gradients_train_batch"));
        // A filter may pick one case of a group, and not the group's gate.
        let c = Criterion {
            filter: Some("gate_kernels/mat4".into()),
        };
        assert!(c.selects("gate_kernels/mat4/4"));
        assert!(!c.selects("gate_kernels"));
    }

    #[test]
    fn without_a_filter_everything_runs() {
        let mut c = Criterion { filter: None };
        let mut ran = 0;
        c.bench_function("a", |_| ran += 1);
        let mut g = c.benchmark_group("g");
        g.bench_function("b", |_| ran += 1);
        g.finish();
        assert_eq!(ran, 2);
        assert!(c.selects("anything"));
    }

    #[test]
    fn bench_function_reports_and_returns() {
        let mut c = Criterion { filter: None };
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion { filter: None };
        let mut g = c.benchmark_group("g");
        g.bench_function("f", |b| b.iter(|| black_box(2 * 2)));
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::from_parameter(4), &4, |b, &n| {
            b.iter(|| black_box(n * n))
        });
        g.finish();
    }
}
