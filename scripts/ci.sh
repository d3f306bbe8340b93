#!/usr/bin/env sh
# Full CI gate, in the order a reviewer wants failures surfaced:
#   1. tier-1: release build + the whole workspace test suite (the root
#              manifest's `default-members` covers every crate, so this
#              one stage runs the health, serve, transport, fleet, calib
#              and mitigation suites in debug, the breaker-trip smoke
#              test included)
#   2. serve:  a deadlock-guarded smoke run of the serving example
#              against a fault-injecting backend (the example itself
#              asserts a nonzero completed-job count; the timeout turns a
#              queue deadlock into a loud failure)
#   3. transport: a deadlock-guarded smoke run of the http_serving
#              example (ephemeral port, 50% fault injection,
#              submit/poll/wait over real TCP; the example asserts a full
#              graceful drain, the timeout turns an accept-loop or drain
#              deadlock into a loud failure)
#   4. fleet:  a deadlock-guarded smoke run of the fleet_routing example
#              (three devices, the preferred one goes terminally dark
#              mid-run; the example asserts failover keeps the
#              completed-job count at 100% with zero refusals)
#   5. lint:   clippy -D warnings (scripts/lint.sh; the workspace sweep
#              includes qnat-serve's, qnat-transport's and qnat-fleet's
#              unwrap_used walls)
#   6. fmt:    cargo fmt --all -- --check, so formatting drift fails CI
#              instead of piling up unnoticed
#   7. docs:   rustdoc over the workspace with every warning denied
#              (RUSTDOCFLAGS="-D warnings"): a doc link left pointing at
#              a renamed, deleted or private item fails the build
#   8. sim-bench: the simulator hot-path gate — the kernel bounds-check
#              regression tests re-run under --release (the checks must
#              survive optimized builds, not just debug_assert), the
#              batch adjoint oracle (batch_vjp_oracle: batch forward +
#              VJP equal the gate-by-gate sweep to 1e-12, and a sample is
#              bitwise the same in any batch or chunking) and the
#              training-step oracle (forward_oracle: train_forward keeps
#              loss, probabilities and RNG state bitwise equal to the
#              serial per-sample eval_block loop; gradients agree to
#              1e-12 relative to the largest entry, since the VJP sums
#              Σ_q g_q·∂⟨Z_q⟩/∂θ inside the adjoint sweep while the loop
#              contracts Jacobians after it — bitwise until the batch
#              VJP replaced the Jacobians; and eval_block without
#              gradients, the forward inference shares, bitwise equal to
#              the gradient path), and concurrent_steps (four threads
#              training at once on the shared parked block workers each
#              match a lone step bitwise), all re-run under --release
#              (thread-chunking bugs show under optimized timing), then
#              the gradients bench, which asserts one batch forward +
#              VJP beats 48 per-sample adjoint calls by >= 2x on the
#              §4.2 training blocks, and that one noise-free batch
#              forward over 48 §4.2 rows (the inference path) matches
#              48 per-row statevector runs to 1e-12 at >= 1.3x their
#              rate; it writes both to results/BENCH_gradients.json.
#              The per-qubit mat2/mat4 kernel timings live in
#              `cargo bench -p qnat-bench --bench sim_kernels`
#   9. load:   the overload-robustness gate — the socket-level chaos
#              suite (resets, slow-loris, stalls, corruption against a
#              live server; no hung workers, no leaked connection
#              slots), then the open-loop load harness (Poisson +
#              bursty arrivals, mixed interactive/bulk/malformed
#              traffic, backend churn mid-run) which writes goodput and
#              p50/p90/p99/p999 to results/BENCH_load.json and asserts
#              the overload SLO: p99 stays flat under 429/503 shedding
#              and the pooled keep-alive client sustains >= 2x the
#              connection-per-call request rate
#  10. perf:   the batch-, serve-, transport- and fleet-throughput
#              acceptance benches, which assert the 4-worker pool /
#              serving engine / HTTP front door / routed fleet beats
#              single-threaded submission by >= 2x on a 64-job workload
#              with real wall-clock backoff (the transport and fleet
#              benches also write latency percentiles to
#              results/BENCH_transport.json and results/BENCH_fleet.json).
#              The transport bench first runs the wire-codec scaling
#              gate: in the same binary, decoding a /v1/jobs body 16x
#              the §4.2 submit body must take <= 32x as long as the 1x
#              body (linear ≈ 16x, the old quadratic parser 179x); it writes
#              encode/decode µs and ns/byte to results/BENCH_codec.json
#  11. calib-bench: the calibration acceptance gate — drifting-fleet
#              scenarios (RandomWalk and StepRecalibration heavy drift)
#              asserting ScorePolicy::Predicted beats Static on
#              accuracy-per-attempt and the learned tracker beats a
#              frozen-preset baseline on attempt-weighted prequential
#              Brier score; writes results/BENCH_calib.json
#  12. mitigate: the ZNE acceptance bench, which asserts the served
#              gate-folding sweep beats the raw noisy expectation error
#              on the §4.2 block under Santiago emulator noise and
#              writes arm-by-arm errors plus sweep latency percentiles
#              to results/BENCH_zne.json
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== serve: example smoke gate (deadlock-guarded) =="
cargo build --release --example serving
timeout 120 cargo run --release --example serving

echo "== transport: example smoke gate (deadlock-guarded) =="
cargo build --release --example http_serving
timeout 120 cargo run --release --example http_serving

echo "== fleet: example smoke gate (deadlock-guarded) =="
cargo build --release --example fleet_routing
timeout 120 cargo run --release --example fleet_routing

echo "== lint: scripts/lint.sh =="
./scripts/lint.sh

echo "== fmt: cargo fmt --check =="
cargo fmt --all -- --check

echo "== docs: cargo doc, warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== sim-bench: release-mode kernel bounds regression =="
cargo test -q --release -p qnat-sim --test kernel_bounds

echo "== sim-bench: release-mode batch adjoint and training-step oracles, concurrent steps =="
cargo test -q --release -p qnat-sim --test batch_vjp_oracle
cargo test -q --release -p qnat-core --test forward_oracle
cargo test -q --release -p qnat-core --test concurrent_steps

echo "== sim-bench: batch VJP (>= 2x per-sample adjoint) and batch inference forward (>= 1.3x per-row) gates =="
cargo bench -p qnat-bench --bench gradients

echo "== load: socket-level chaos suite =="
cargo test -q --release -p qnat-transport --test transport_chaos

echo "== load: open-loop load harness SLO gate (deadlock-guarded) =="
cargo build --release -p qnat-bench --bin load_harness
timeout 180 cargo run --release -p qnat-bench --bin load_harness

echo "== bench: batch_throughput acceptance gate =="
cargo bench -p qnat-bench --bench batch_throughput

echo "== bench: serve_throughput acceptance gate =="
cargo bench -p qnat-bench --bench serve_throughput

echo "== bench: wire-codec scaling (decode 16x body <= 32x) + transport_throughput acceptance gates =="
cargo bench -p qnat-bench --bench transport_throughput

echo "== bench: fleet_routing acceptance gate =="
cargo bench -p qnat-bench --bench fleet_routing

echo "== bench: calib_tracking acceptance gate =="
cargo bench -p qnat-bench --bench calib_tracking

echo "== mitigate: ZNE acceptance gate =="
cargo bench -p qnat-bench --bench zne_mitigation

echo "CI OK"
