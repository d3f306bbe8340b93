//! A fixed unit of CPU work, timed next to the workload, that measures
//! how fast the machine runs at that moment.
//!
//! Small shared VMs slow down by up to 2× for seconds to minutes when
//! the host's other tenants load the physical cores under them. The
//! guest sees next to no steal time — its vCPUs keep running, only
//! slower — so neither CPU time nor longer runs take the swing out.
//! Every time figure the benchmark reports is therefore scaled to the
//! speed of a quiet machine: it is divided by how much slower than
//! [`REFERENCE_MS`] the yardstick ran in the same half-second. The
//! yardstick uses nothing from the repository's crates, so a change to
//! the program moves the scaled figures exactly as it moves the raw
//! ones, while the host's swings cancel.
//!
//! A unit mixes the kinds of work the stack does: complex arithmetic
//! over a 4-qubit density matrix's worth of amplitudes (the simulators
//! and the emulator), number formatting and parsing (the JSON codec and
//! transport) and small allocations (the tape). Each part slows under
//! contention by a different factor; the mix tracks the workloads to
//! within a few percent. Units are timed in the running thread's CPU
//! time, so a unit the guest's own scheduler interrupts is not counted
//! slow.

use crate::stats::{median, Speed};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU milliseconds one unit takes on a quiet 2-vCPU Xeon VM (Sapphire
/// Rapids class, KVM); figures are scaled to this speed.
pub const REFERENCE_MS: f64 = 0.27;

/// Amplitudes the arithmetic part sweeps: a 4-qubit density matrix.
const AMPS: usize = 256;
/// Single-qubit rotations the arithmetic part applies.
const ROTATIONS: usize = 360;
/// Numbers the text part formats, parses back and sums.
const NUMBERS: usize = 600;
/// Vectors the allocation part builds.
const VECTORS: usize = 1200;

/// Applies `rotations` unitary rotations, each to one bit of the
/// amplitude index, and returns the state's norm (1 up to rounding).
fn arithmetic(rotations: usize) -> f64 {
    let mut re = [0.0f64; AMPS];
    let mut im = [0.0f64; AMPS];
    for i in 0..AMPS {
        re[i] = ((i * 37) % 101) as f64 / 101.0;
        im[i] = ((i * 53) % 97) as f64 / 97.0;
    }
    let norm: f64 = re.iter().chain(&im).map(|x| x * x).sum::<f64>().sqrt();
    re.iter_mut().chain(im.iter_mut()).for_each(|x| *x /= norm);
    let (c, s) = (0.6, 0.8);
    for r in 0..rotations {
        let bit = 1 << (r % 8);
        for i in (0..AMPS).filter(|i| i & bit == 0) {
            let j = i | bit;
            let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
            re[i] = c * ar + s * bi;
            im[i] = c * ai - s * br;
            re[j] = c * br + s * ai;
            im[j] = c * bi - s * ar;
        }
    }
    re.iter().chain(&im).map(|x| x * x).sum()
}

/// Formats `numbers` pseudo-random floats into one string, parses them
/// back and returns their sum.
fn text(numbers: usize) -> f64 {
    let mut s = String::new();
    let mut x = 0.123_456_789_f64;
    for _ in 0..numbers {
        x = (x * 3.7 + 0.1).fract();
        let _ = write!(s, "{x},");
    }
    let parsed: Vec<f64> = s
        .split(',')
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect();
    parsed.iter().sum()
}

/// Builds `vectors` short vectors, keeping one in three alive, and
/// returns how many elements were kept.
fn allocations(vectors: usize) -> usize {
    let mut kept: Vec<Vec<f64>> = Vec::new();
    for i in 0..vectors {
        let v: Vec<f64> = (0..(i % 48) + 8).map(|k| k as f64).collect();
        if i % 3 == 0 {
            kept.push(v);
        } else {
            black_box(&v);
        }
    }
    kept.iter().map(Vec::len).sum()
}

#[cfg(target_os = "linux")]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pins the calling thread to CPU `cpu`; false when it cannot be.
    pub fn pin_to(cpu: usize) -> bool {
        let mut mask = [0u64; 16];
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a valid CPU set of the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// The calling thread's CPU time, ms.
    pub fn thread_cpu_ms() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is readable");
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    /// Threads stay unpinned off Linux.
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }

    /// Wall time stands in for thread CPU time off Linux, ms.
    pub fn thread_cpu_ms() -> f64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
    }
}

/// Runs one unit and returns the CPU time it took, ms.
pub fn unit_ms() -> f64 {
    let t = clock::thread_cpu_ms();
    black_box(arithmetic(black_box(ROTATIONS)));
    black_box(text(black_box(NUMBERS)));
    black_box(allocations(black_box(VECTORS)));
    clock::thread_cpu_ms() - t
}

/// How many times slower than the reference the machine ran over a set
/// of unit timings (their median over [`REFERENCE_MS`]); `None` when
/// there are none.
pub fn slowdown(units_ms: &[f64]) -> Option<f64> {
    median(units_ms).map(|m| m / REFERENCE_MS)
}

/// Runs `setup` with units timed just before it, and returns its wall
/// time scaled to the reference speed along with its output.
pub fn scaled_setup<T>(setup: impl FnOnce() -> T) -> (f64, f64, T) {
    const UNITS: usize = 8;
    let units: Vec<f64> = (0..UNITS).map(|_| unit_ms()).collect();
    let t = Instant::now();
    let out = setup();
    let secs = t.elapsed().as_secs_f64();
    let slow = slowdown(&units).unwrap_or(1.0);
    (secs / slow, secs, out)
}

/// Background threads, one pinned to each CPU, timing one unit every
/// few milliseconds, for workloads whose own threads cannot stop to run
/// one. The host slows each vCPU by its own factor at any moment, so a
/// workload spread over all of them is scaled by their mean.
pub struct Speedometer {
    stop: Arc<AtomicBool>,
    readings: Arc<Mutex<Vec<Reading>>>,
    threads: Vec<JoinHandle<()>>,
}

/// One timed unit: when it started, on which CPU, and its CPU ms.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    cpu: usize,
    ms: f64,
}

/// Pause between a speedometer thread's units: about 5% of its CPU.
const PERIOD: Duration = Duration::from_millis(5);

impl Speedometer {
    /// Starts timing units on each of `cpus` CPUs.
    pub fn start(cpus: usize) -> Speedometer {
        let stop = Arc::new(AtomicBool::new(false));
        let readings = Arc::new(Mutex::new(Vec::new()));
        let threads = (0..cpus)
            .map(|cpu| {
                let (stop, readings) = (Arc::clone(&stop), Arc::clone(&readings));
                std::thread::spawn(move || {
                    clock::pin_to(cpu);
                    while !stop.load(Ordering::Relaxed) {
                        let at = Instant::now();
                        let ms = unit_ms();
                        readings
                            .lock()
                            .expect("reading sink poisoned")
                            .push(Reading { at, cpu, ms });
                        std::thread::sleep(PERIOD);
                    }
                })
            })
            .collect();
        Speedometer {
            stop,
            readings,
            threads,
        }
    }

    /// Stops the threads, waits for them and returns the machine's
    /// speed in each window since `start`, from every unit they timed.
    pub fn finish(mut self, start: Instant) -> Speed {
        for t in self.halt() {
            t.join().expect("speedometer thread");
        }
        let readings: Vec<(f64, usize, f64)> = self
            .readings
            .lock()
            .expect("reading sink poisoned")
            .iter()
            .map(|r| {
                (
                    r.at.saturating_duration_since(start).as_secs_f64(),
                    r.cpu,
                    r.ms,
                )
            })
            .collect();
        Speed::of(&readings)
    }

    /// Tells the threads to stop and hands back their handles.
    fn halt(&mut self) -> Vec<JoinHandle<()>> {
        self.stop.store(true, Ordering::Relaxed);
        std::mem::take(&mut self.threads)
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        for t in self.halt() {
            // A panic here would abort an unwinding thread; the panic a
            // speedometer thread died of has been reported already.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_what_it_claims() {
        assert!((arithmetic(ROTATIONS) - 1.0).abs() < 1e-9);
        let sum = text(NUMBERS);
        assert!(sum > 0.0 && sum < NUMBERS as f64);
        assert!(allocations(VECTORS) > 0);
        assert!(unit_ms() > 0.0);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(&[]), None);
        assert_eq!(
            slowdown(&[REFERENCE_MS, 2.0 * REFERENCE_MS, 4.0 * REFERENCE_MS]),
            Some(2.0)
        );
    }

    #[test]
    fn the_speedometer_stops_and_reports() {
        let start = Instant::now();
        let s = Speedometer::start(2);
        std::thread::sleep(Duration::from_millis(40));
        let readings = s.readings.lock().expect("reading sink poisoned").clone();
        for cpu in 0..2 {
            assert!(readings.iter().any(|r| r.cpu == cpu));
        }
        assert!(readings.iter().all(|r| r.ms > 0.0));
        let speed = s.finish(start);
        assert!(speed.at(0) > 0.0 && speed.at(0).is_finite());
    }
}
