//! The QuantumNAT stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve|mitigate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from the seed, sets the stack up several
//! times (reporting the median set-up time), measures the workload for
//! the given seconds, checks every output, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run measures an untraced and a traced pass of half the length each
//! and reports the per-layer metrics, which are timed from this crate
//! around calls into each layer's public functions, plus the tracing
//! overhead. A layer the workload does not use reports 0.
//!
//! The line before the result is the run's record — commit, compiler,
//! CPU, core count, workload configuration, per-phase counts and the
//! metrics under their workload-specific names — and the same record,
//! plus the traced run's spans, is written under `.bench_out/`.

mod mitigate;
mod schedule;
mod serve;
mod stack;
mod stats;
mod trace;
mod train;
mod yardstick;

use qnat_json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload run hands back.
pub struct Outcome {
    /// Operations attempted (training steps, requests, sweeps).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold; empty when every output was
    /// correct.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload's configuration.
    pub config: Json,
    /// Per-phase counts and the workload-specific metric names.
    pub detail: Json,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("transport.encode_us", "us"),
    ("transport.decode_us", "us"),
    ("transport.submit_rtt_ms", "ms"),
    ("transport.wait_rtt_ms", "ms"),
    ("transport.body_bytes", "bytes"),
    ("transport.keepalive_reuses", "count"),
    ("transport.mitigate_overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.executor_setup_us", "us"),
    ("serve.sweep_span_ms", "ms"),
    ("serve.refused", "count"),
    ("core.attempts_per_job", "count"),
    ("core.eval_block_us", "us"),
    ("core.tape_ms_per_step", "ms"),
    ("core.adam_us", "us"),
    ("core.aggregate_us", "us"),
    ("noise.emulator_us", "us"),
    ("noise.emulator_us_scale1", "us"),
    ("noise.emulator_us_scale3", "us"),
    ("noise.emulator_us_scale5", "us"),
    ("noise.emulator_ns_per_amp_op", "ns"),
    ("noise.inject_us", "us"),
    ("noise.injected_gates", "count"),
    ("compiler.bind_us", "us"),
    ("compiler.chain_us", "us"),
    ("compiler.fold_us", "us"),
    ("compiler.gates_per_job", "count"),
    ("sim.adjoint_us", "us"),
    ("trace.overhead_ms", "ms"),
];

/// How many times a run sets its workload up to time `setup_s`.
const SETUPS: usize = 7;

/// A run's set-up time.
pub struct SetupTime {
    /// Median seconds, each set-up scaled to the reference speed by the
    /// yardstick timed just before it.
    pub scaled_s: f64,
    /// Median seconds as measured.
    pub raw_s: f64,
}

/// Sets up `SETUPS` times and returns the median set-up time with the
/// last set-up; earlier ones are torn down outside the timing.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (SetupTime, T) {
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (s, r, out) = yardstick::scaled_setup(&mut setup);
        scaled.push(s);
        raw.push(r);
        kept = Some(out);
    }
    let time = SetupTime {
        scaled_s: stats::median(&scaled).expect("at least one set-up"),
        raw_s: stats::median(&raw).expect("at least one set-up"),
    };
    (time, kept.expect("at least one set-up"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(metrics: &Metrics, names: &[(&str, &str)]) -> Json {
    Json::Obj(
        names
            .iter()
            .map(|&(name, unit)| {
                let value = metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|serve|mitigate> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "train" => train::run(args.seed, args.seconds, args.trace),
        "serve" => serve::run(args.seed, args.seconds, args.trace),
        "mitigate" => mitigate::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    for name in outcome.metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "workload reported undeclared metric {name}"
        );
    }
    for (name, value) in &outcome.metrics {
        if !value.is_finite() {
            outcome
                .violations
                .push(format!("metric {name} is not finite"));
        }
    }
    let correct = outcome.violations.is_empty();
    for v in &outcome.violations {
        eprintln!("perfbench: check failed: {v}");
    }

    let metrics = metrics_json(&outcome.metrics, names);
    let record = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::Str(commit())),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("cpu", Json::Str(cpu_model())),
        ("nproc", Json::Num(stack::nproc() as f64)),
        ("config", outcome.config),
        ("detail", outcome.detail),
        (
            "violations",
            Json::Arr(
                outcome
                    .violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect(),
            ),
        ),
        ("metrics", metrics.clone()),
    ]);
    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(format!("{stem}.json"), record.to_json_pretty()))
        .and_then(|()| match args.trace {
            true => std::fs::write(
                format!("{stem}.spans.jsonl"),
                trace::to_jsonl(&outcome.spans),
            ),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.*: {e}");
    }

    println!("{}", record.to_json());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
