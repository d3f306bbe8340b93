//! The serving engine behind its HTTP front door: bind an ephemeral
//! port, drive a submit/poll/wait round trip over real TCP with a 50%
//! fault-injecting primary, read `/healthz`, and drain gracefully.
//!
//! ```sh
//! cargo run --release --example http_serving
//! ```
//!
//! Used by `scripts/ci.sh` as the transport smoke gate (under a
//! timeout, so an accept-loop or drain deadlock fails loudly): exits
//! nonzero unless every submitted ticket completes, the poll/wait
//! round trip succeeds, and shutdown reports a full drain.

use quantumnat::core::batch::BatchJob;
use quantumnat::core::executor::{ResilientExecutor, RetryPolicy, ThreadSleeper};
use quantumnat::noise::backend::{BackendError, SimulatorBackend};
use quantumnat::noise::fault::{FaultSpec, FaultyBackend};
use quantumnat::serve::{Lane, ServeConfig, ServeEngine};
use quantumnat::sim::circuit::Circuit;
use quantumnat::sim::gate::Gate;
use quantumnat::transport::{TicketStatus, TransportClient, TransportConfig, TransportServer};

/// Flaky primary (50% transient faults), clean fallback, real but small
/// wall-clock backoff — the throughput benches' standard fault model.
fn factory(_job: u64, seed: u64) -> Result<ResilientExecutor, BackendError> {
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 3,
        max_backoff_ms: 12,
        ..RetryPolicy::default()
    };
    Ok(ResilientExecutor::with_fallback(
        Box::new(FaultyBackend::new(
            SimulatorBackend::new(seed),
            FaultSpec::transient(0.5, seed),
        )),
        Box::new(SimulatorBackend::new(seed ^ 0x5eed)),
        policy,
    )
    .with_sleeper(Box::new(ThreadSleeper::default())))
}

fn job(k: usize) -> BatchJob {
    let mut c = Circuit::new(2);
    c.push(Gate::ry(0, 0.07 * k as f64 + 0.1));
    c.push(Gate::cx(0, 1));
    BatchJob::exact(c)
}

fn main() {
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 4,
            seed: 0xB47C,
            ..ServeConfig::default()
        },
        factory,
    );
    let server = TransportServer::bind("127.0.0.1:0", TransportConfig::default(), engine)
        .expect("bind an ephemeral port");
    let addr = server.local_addr();
    println!("front door listening on http://{addr}");
    let client = TransportClient::new(addr);

    // Submit a small workload over the wire.
    const N: usize = 12;
    let tickets: Vec<u64> = (0..N)
        .map(|k| {
            client
                .submit(&job(k), Lane::Interactive)
                .expect("the blocking lane accepts the workload")
        })
        .collect();
    println!("submitted {N} jobs, tickets 0..{}", N - 1);

    // One non-blocking poll: any answer is legal while workers churn —
    // the point is that the round trip itself works.
    match client.poll(tickets[0]).expect("poll round trip") {
        Some(TicketStatus::Ready(outcome)) => {
            let m = outcome.result.expect("fallback absorbs exhausted retries");
            println!(
                "ticket 0 ready on first poll: {} expectations",
                m.expectations.len()
            );
        }
        Some(status) => println!("ticket 0 still {status:?}"),
        None => unreachable!("ticket 0 was just submitted"),
    }

    // Wait out every ticket; the fallback guarantees success under the
    // 50% fault rate.
    let mut ok = 0;
    for &t in &tickets {
        if let Some(outcome) = client.wait(t).expect("wait round trip") {
            if outcome.result.is_ok() {
                ok += 1;
            }
        }
    }
    // Ticket 0 may have been consumed by the poll above.
    assert!(ok >= N - 1, "jobs complete under fault injection: {ok}/{N}");
    println!("{ok} waits returned ok results");

    let health = client.healthz().expect("healthz");
    println!("healthz: {}", health.to_json());

    // Graceful drain: every submitted ticket was completed, none shed.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(
        stats.completed, N as u64,
        "graceful drain finishes everything"
    );
    assert_eq!(
        stats.rejected_full + stats.shed_oldest + stats.shed_admission,
        0
    );
    println!(
        "drained: {} submitted, {} completed — front door down cleanly",
        stats.submitted, stats.completed
    );
}
