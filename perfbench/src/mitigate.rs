//! `mitigate`: closed loop, one client on one keep-alive connection,
//! sending `POST /v1/mitigate` ZNE sweeps — scales 1/3/5, per-gate
//! folding, linear fit, readout inversion — over the §4.2 block with
//! MNIST-4 test rows drawn by seed.
//!
//! Each sweep fans out into three bulk-lane sub-runs on 1×, 3× and 5×
//! deeper circuits instead of one small interactive job, so the
//! emulator takes most of its time and the transport a small share: an
//! emulator change should move it far more than `serve`, a codec change
//! far less.

use crate::schedule::{SweepInput, Sweeps};
use crate::stack::{
    block_circuits, device, emulator_ops, nproc, start_server, Probe, Shape, SCALE_SPANS,
};
use crate::stats::{mean, median, Speed, Windowed};
use crate::trace::{durations_us, Span};
use crate::yardstick::Speedometer;
use crate::{timed_setups, Metrics, Outcome};
use qnat_compiler::folding::{fold_circuit, FoldStrategy};
use qnat_core::mitigate::ZneMethod;
use qnat_json::Json;
use qnat_serve::{aggregate_sweep, MitigatedJob};
use qnat_sim::circuit::Circuit;
use qnat_sim::measure::Confusion;
use qnat_sim::statevector::StateVector;
use qnat_transport::wire::MitigatedResult;
use qnat_transport::{TransportClient, TransportServer};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALES: [usize; 3] = [1, 3, 5];
/// Sweeps run through a set-up stack before the pass starts, outside
/// the set-up time; set-up itself ends with the first served sweep.
const WARMUP_SWEEPS: usize = 4;

struct Served {
    // The client drops before the server, so its worker sees the
    // connection close.
    client: TransportClient,
    circuits: Vec<Circuit>,
    confusions: Vec<Confusion>,
    _server: TransportServer,
}

impl Served {
    fn job(&self, row: usize) -> MitigatedJob {
        MitigatedJob::zne(self.circuits[row].clone(), None).with_readout(self.confusions.clone())
    }
}

fn setup(seed: u64, probe: Option<Arc<Probe>>) -> Served {
    let circuits = block_circuits(seed);
    let n = circuits[0].n_qubits();
    let confusions = device().confusions().into_iter().take(n).collect();
    let server = start_server(seed, probe);
    let client = TransportClient::new(server.local_addr());
    let served = Served {
        client,
        circuits,
        confusions,
        _server: server,
    };
    served.sweeps(seed, 1);
    served
}

impl Served {
    /// Sends the first `n` sweeps of the seed's sequence.
    fn sweeps(&self, seed: u64, n: usize) {
        for input in Sweeps::new(seed, self.circuits.len()).take(n) {
            self.client
                .mitigate(&self.job(input.row), input.sweep_seed)
                .expect("warm-up sweep");
        }
    }
}

/// What the checks and counts need of a served sweep, so memory does not
/// grow with the run by more than a few words a sweep.
#[derive(Debug, Clone, PartialEq)]
struct Swept {
    mitigated: Vec<f64>,
    raw: Option<Vec<f64>>,
    attempts: usize,
    jobs: usize,
}

impl From<MitigatedResult> for Swept {
    fn from(r: MitigatedResult) -> Swept {
        Swept {
            mitigated: r.mitigated.expectations,
            raw: r.raw,
            attempts: r.report.attempts,
            jobs: r.report.jobs,
        }
    }
}

/// One sweep as the client saw it.
struct Sample {
    input: SweepInput,
    /// Seconds into the pass the sweep was sent.
    at_s: f64,
    latency_ms: f64,
    result: Result<Swept, String>,
}

/// Sends sweeps back to back for `seconds`, with a speedometer thread
/// timing yardstick units on every CPU throughout.
fn pass(s: &Served, seed: u64, seconds: f64, probe: Option<&Probe>) -> (Vec<Sample>, Speed) {
    s.sweeps(seed, WARMUP_SWEEPS);
    if let Some(p) = probe {
        p.tracer.take(); // warm-up spans
        p.results.lock().expect("result sink poisoned").clear();
    }
    let budget = Duration::from_secs_f64(seconds);
    let speedometer = Speedometer::start(nproc());
    let start = Instant::now();
    let mut samples = Vec::new();
    for (i, input) in Sweeps::new(seed, s.circuits.len()).enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let job = s.job(input.row);
        if let Some(p) = probe {
            p.sweep.store(i as u64, Ordering::SeqCst);
        }
        let t0 = Instant::now();
        let result = s.client.mitigate(&job, input.sweep_seed);
        let t1 = Instant::now();
        if let Some(p) = probe {
            p.tracer
                .record("transport.mitigate", i as u64, "request", t0, t1);
        }
        samples.push(Sample {
            input,
            at_s: (t0 - start).as_secs_f64(),
            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
            result: result.map(Swept::from).map_err(|e| e.to_string()),
        });
    }
    (samples, speedometer.finish(start))
}

fn mean_abs_error(zs: &[f64], ideal: &[f64]) -> f64 {
    zs.iter()
        .zip(ideal)
        .map(|(z, i)| (z - i).abs())
        .sum::<f64>()
        / ideal.len() as f64
}

/// Every sweep succeeded; on average the mitigated expectations sit
/// closer to the noise-free statevector than the raw ones; and a
/// repeated sweep seed returns a bitwise-identical result.
fn check(s: &Served, samples: &[Sample], violations: &mut Vec<String>) {
    let mut ideal: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let (mut raw_err, mut mitigated_err) = (Vec::new(), Vec::new());
    for sample in samples {
        let r = match &sample.result {
            Ok(r) => r,
            Err(e) => {
                if violations.len() < 10 {
                    violations.push(format!("sweep failed: {e}"));
                }
                continue;
            }
        };
        let row = sample.input.row;
        let ideal = ideal.entry(row).or_insert_with(|| {
            let c = &s.circuits[row];
            let mut psi = StateVector::zero_state(c.n_qubits());
            psi.run(c);
            psi.expect_all_z()
        });
        let Some(raw) = &r.raw else {
            violations.push("sweep returned no raw baseline".into());
            continue;
        };
        raw_err.push(mean_abs_error(raw, ideal));
        mitigated_err.push(mean_abs_error(&r.mitigated, ideal));
    }
    let (raw_err, mitigated_err) = (mean(&raw_err), mean(&mitigated_err));
    if !matches!((raw_err, mitigated_err), (Some(r), Some(m)) if m < r) {
        violations.push(format!(
            "mitigated error {mitigated_err:?} is not below raw error {raw_err:?}"
        ));
    }
    if let Some(first) = samples.iter().find(|x| x.result.is_ok()) {
        let again = s
            .client
            .mitigate(&s.job(first.input.row), first.input.sweep_seed)
            .map(Swept::from)
            .map_err(|e| e.to_string());
        let bits = |r: &Swept| {
            let m: Vec<u64> = r.mitigated.iter().map(|z| z.to_bits()).collect();
            let raw: Option<Vec<u64>> = r
                .raw
                .as_ref()
                .map(|zs| zs.iter().map(|z| z.to_bits()).collect());
            (m, raw)
        };
        match (&first.result, &again) {
            (Ok(a), Ok(b)) if bits(a) == bits(b) => {}
            _ => violations.push(format!(
                "sweep seed {} did not replay bitwise",
                first.input.sweep_seed
            )),
        }
    }
}

fn config() -> Json {
    Json::obj([
        (
            "job",
            Json::Str(
                "standard(16,4,1,2) block 0 routed for santiago at level 2, mnist-4 test rows"
                    .into(),
            ),
        ),
        (
            "backend",
            Json::Str("emulator(santiago), exact expectations".into()),
        ),
        ("engine_workers", Json::Num(nproc() as f64)),
        ("scales", Json::nums(SCALES.map(|s| s as f64))),
        ("folding", Json::Str("per-gate".into())),
        ("fit", Json::Str("linear".into())),
        ("readout_inversion", Json::Bool(true)),
        (
            "loop",
            Json::Str("closed, one client, one keep-alive connection".into()),
        ),
    ])
}

/// The pass's sweeps in windows, each with the yardstick's slowdown.
fn windowed(samples: &[Sample], speed: &Speed) -> Windowed {
    let ops: Vec<(f64, f64)> = samples.iter().map(|s| (s.at_s, s.latency_ms)).collect();
    Windowed::of(&ops, speed)
}

fn summary(samples: &[Sample], speed: &Speed) -> Json {
    let windowed = windowed(samples, speed);
    let (all, quiet) = windowed.all_and_quiet();
    let ok = samples.iter().filter(|s| s.result.is_ok()).count();
    Json::obj([
        ("sent", Json::Num(samples.len() as f64)),
        ("succeeded", Json::Num(ok as f64)),
        ("failed", Json::Num((samples.len() - ok) as f64)),
        ("refused", Json::Num(0.0)),
        ("mitigate_sweeps_per_s", Json::Num(quiet.per_busy_s)),
        ("mitigate_p50_ms", Json::Num(quiet.p50_ms)),
        ("mitigate_p90_ms", Json::Num(quiet.p90_ms)),
        ("mitigate_tail_ms", Json::Num(quiet.tail_ms())),
        ("all_windows", all.to_json()),
        ("quiet_windows", quiet.to_json()),
        ("window_p50_ms", windowed.p50s()),
        ("window_slowdown", windowed.slowdowns()),
    ])
}

fn failed(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.result.is_err()).count() as u64
}

/// Runs the workload: end-to-end metrics untraced, or per-layer metrics
/// from a traced pass next to an untraced one of equal length.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut metrics = Metrics::new();
    let mut violations = Vec::new();
    if !traced {
        let (setup_time, served) = timed_setups(|| setup(seed, None));
        let (samples, speed) = pass(&served, seed, seconds, None);
        check(&served, &samples, &mut violations);
        let (_, quiet) = windowed(&samples, &speed).all_and_quiet();
        let attempted = samples.len() as u64;
        let failed = failed(&samples);
        metrics.insert("setup_s", setup_time.scaled_s);
        metrics.insert(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
        metrics.insert("throughput_per_s", quiet.per_busy_s);
        metrics.insert("p50_ms", quiet.p50_ms);
        return Outcome {
            attempted,
            failed,
            violations,
            metrics,
            config: config(),
            detail: Json::obj([
                ("untraced", summary(&samples, &speed)),
                ("setup_raw_s", Json::Num(setup_time.raw_s)),
            ]),
            spans: Vec::new(),
        };
    }

    let plain = {
        let served = setup(seed, None);
        let plain = pass(&served, seed, seconds / 2.0, None);
        check(&served, &plain.0, &mut violations);
        plain
    };
    let probe = Probe::new(Shape::Sweeps);
    let served = setup(seed, Some(Arc::clone(&probe)));
    let (samples, speed) = pass(&served, seed, seconds / 2.0, Some(&probe));

    // Folding and aggregation, replayed per sweep from outside: the
    // folds the server made, and the aggregation over the sub-run
    // results the probe kept (which must reproduce the served result).
    let results = std::mem::take(&mut *probe.results.lock().expect("result sink poisoned"));
    let model = device();
    let mut gates = Vec::new();
    // Density-matrix amplitude operations of each sub-run, by (sweep, k).
    let mut amp_ops_of: BTreeMap<(u64, usize), f64> = BTreeMap::new();
    for (i, sample) in samples.iter().enumerate() {
        let req = i as u64;
        let circuit = &served.circuits[sample.input.row];
        let mut runs = vec![circuit.clone()];
        for &scale in &SCALES[1..] {
            runs.push(probe.tracer.time("compiler.fold", req, "serve.sweep", || {
                fold_circuit(circuit, scale, FoldStrategy::PerGate).expect("odd scales fold")
            }));
        }
        gates.push(runs.iter().map(Circuit::len).sum::<usize>() as f64);
        for (k, c) in runs.iter().enumerate() {
            let amp_ops = emulator_ops(c, &model) as f64 * 4f64.powi(c.n_qubits() as i32);
            amp_ops_of.insert((req, k), amp_ops);
        }
        let runs: Vec<_> = (0..SCALES.len() as u64)
            .filter_map(|k| results.get(&(req, k)).cloned())
            .collect();
        if runs.len() != SCALES.len() {
            violations.push(format!("sweep {i}: probe saw {} sub-runs", runs.len()));
            continue;
        }
        let aggregated = probe.tracer.time("core.aggregate", req, "serve.sweep", || {
            aggregate_sweep(&SCALES, &runs, Some(&served.confusions), ZneMethod::Linear)
        });
        if let (Ok(a), Ok(r)) = (&aggregated, &sample.result) {
            if a.expectations != r.mitigated {
                violations.push(format!(
                    "sweep {i}: replayed aggregation differs from the served one"
                ));
            }
        }
    }
    // The replay check below sends one more sweep; keep its spans out.
    let spans = probe.tracer.take();
    check(&served, &samples, &mut violations);

    // Per sweep: from the first sub-run's factory call to the last
    // sub-run's emulator return.
    let mut window: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "serve.factory" || SCALE_SPANS.contains(&s.name))
    {
        let w = window.entry(s.req).or_insert((u64::MAX, 0));
        if s.name == "serve.factory" {
            w.0 = w.0.min(s.start_ns);
        } else {
            w.1 = w.1.max(s.end_ns);
        }
    }
    let sweep_ms: BTreeMap<u64, f64> = window
        .iter()
        .filter(|(_, (a, b))| b > a)
        .map(|(&req, &(a, b))| (req, (b - a) as f64 / 1e6))
        .collect();
    let overhead_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "transport.mitigate")
        .filter_map(|s| sweep_ms.get(&s.req).map(|sweep| s.us() / 1e3 - sweep))
        .collect();
    let emulator: Vec<&Span> = spans
        .iter()
        .filter(|s| SCALE_SPANS.contains(&s.name))
        .collect();
    let amp_ops: f64 = emulator
        .iter()
        .filter_map(|s| {
            let k = SCALE_SPANS.iter().position(|&n| n == s.name)?;
            amp_ops_of.get(&(s.req, k))
        })
        .sum();
    let emulator_ns: f64 = emulator
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    let all_emulator_us: Vec<f64> = emulator.iter().map(|s| s.us()).collect();
    let swept: Vec<&Swept> = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let attempts: usize = swept.iter().map(|r| r.attempts).sum();
    let jobs: usize = swept.iter().map(|r| r.jobs).sum();
    let med = |name: &str| median(&durations_us(&spans, name)).unwrap_or(f64::NAN);
    let p50 = |s: &[Sample], speed: &Speed| windowed(s, speed).all_and_quiet().1.p50_ms;

    metrics.insert(
        "transport.mitigate_overhead_ms",
        median(&overhead_ms).unwrap_or(f64::NAN),
    );
    metrics.insert(
        "serve.sweep_span_ms",
        median(&sweep_ms.values().copied().collect::<Vec<_>>()).unwrap_or(f64::NAN),
    );
    metrics.insert("serve.executor_setup_us", med("serve.factory"));
    metrics.insert(
        "core.attempts_per_job",
        attempts as f64 / jobs.max(1) as f64,
    );
    metrics.insert("core.aggregate_us", med("core.aggregate"));
    metrics.insert(
        "noise.emulator_us",
        median(&all_emulator_us).unwrap_or(f64::NAN),
    );
    metrics.insert("noise.emulator_us_scale1", med(SCALE_SPANS[0]));
    metrics.insert("noise.emulator_us_scale3", med(SCALE_SPANS[1]));
    metrics.insert("noise.emulator_us_scale5", med(SCALE_SPANS[2]));
    metrics.insert("noise.emulator_ns_per_amp_op", emulator_ns / amp_ops);
    metrics.insert("compiler.fold_us", med("compiler.fold"));
    metrics.insert("compiler.gates_per_job", mean(&gates).unwrap_or(f64::NAN));
    metrics.insert(
        "trace.overhead_ms",
        p50(&samples, &speed) - p50(&plain.0, &plain.1),
    );

    Outcome {
        attempted: (plain.0.len() + samples.len()) as u64,
        failed: failed(&plain.0) + failed(&samples),
        violations,
        metrics,
        config: config(),
        detail: Json::obj([
            ("untraced", summary(&plain.0, &plain.1)),
            ("traced", summary(&samples, &speed)),
        ]),
        spans,
    }
}
