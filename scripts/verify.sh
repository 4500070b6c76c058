#!/usr/bin/env bash
# Canonical tier-1 gate (see ROADMAP.md). Must pass on a clean checkout
# with an empty cargo registry cache and no network: the workspace has no
# external dependencies, so --offline is exact, not best-effort.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace
cargo fmt --check
# Lint gate: every clippy warning is an error. This includes the MSRV
# check (incompatible_msrv): no code may call an API newer than the
# declared `rust-version`.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Fast single-seed slice of the chaos fault-matrix gate (scripts/chaos.sh
# runs the full multi-seed sweep).
cargo run --release --offline --example chaos_sweep -- --seeds 1
# Trace→counters reconciliation gate: one traced seed per protocol (clean
# and impaired) must replay into its counters bit-for-bit (DESIGN.md §9).
cargo run --release --offline -p rfid-bench --bin obs_report -- --reconcile
# Disabled-path telemetry overhead guard; writes target/BENCH_obs.json.
cargo bench --offline -p rfid-bench --bench obs
# Sweep-engine smoke slice (DESIGN.md §10): a small Table I grid, once
# cold on one worker and once cache-warm at the default width. Writes the
# cells/sec + cache-hit-rate entries to target/BENCH_sweep.json.
rm -rf target/sweep-cache target/BENCH_sweep.json
cargo run --release --offline -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000 --workers 1
cargo run --release --offline -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000
# Chaos-soak recovery slice (DESIGN.md §11): small recovery grid asserting
# the convergence invariant (coverage 1.0 wherever loss < 1.0), the
# dead-channel breaker contract and the trace/counter coverage cross-check.
# Writes target/BENCH_recovery.json.
cargo run --release --offline -p rfid-bench --bin repro -- recovery --runs 2 --max-n 500 --workers 1
# Hot-path smoke slice (DESIGN.md §12): end-to-end throughput including a
# 100k-tag run with a tags/sec floor and a 1M-tag HPP run to completion;
# the bench itself enforces the speedup floors against the pre-change
# baselines (≥10× on at least one gated 100k case) and exits nonzero on a
# miss.
cargo bench --offline -p rfid-bench --bench hotpath
# The crash-chaos checkpoint/restore gate (DESIGN.md §13) and the
# chaos-soak fleet-resilience gate (DESIGN.md §16) are integration tests
# (crates/bench/tests/crash_chaos.rs, chaos_soak.rs) run by `cargo test`
# above.
# Profiling-plane gate (DESIGN.md §14): the disabled span path must stay
# within timer noise of the profiled run, and full profiling on a 100k-tag
# HPP session must stay under its overhead ceiling. Profiling on/off
# bit-identity is a unit test in rfid-protocols' session module.
cargo bench --offline -p rfid-bench --bench obsplane
# Daemon serving gate (DESIGN.md §15): an in-process fleet on port 0
# absorbs hundreds of sessions from concurrent TCP clients plus a loopback
# baseline; every session must complete. The smoke run then serves one
# clean and one impaired session over real TCP and shuts down cleanly over
# the wire.
cargo bench --offline -p rfid-bench --bench daemon
cargo run --release --offline -p rfid-bench --bin rfid_daemon -- --smoke
# The chaos-smoke run proves one chaos seed end-to-end over real TCP.
cargo run --release --offline -p rfid-bench --bin rfid_daemon -- --chaos-smoke

echo "verify: OK"
