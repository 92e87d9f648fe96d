#!/usr/bin/env bash
# The full local gate: format, lints as errors, and the test suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> repro faults --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- faults --scale quick >/dev/null

echo "==> repro crowd --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- crowd --scale quick >/dev/null

echo "==> repro shard-smoke --scale quick (N x M fleet + router determinism gate)"
# Runs a small sharded-fleet cell, checks every shard served traffic,
# and re-runs it at --jobs 1 and 2 asserting byte-identical digests;
# exits nonzero on any mismatch.
cargo run -q --release -p renofs-bench --bin repro -- shard-smoke --scale quick

echo "==> repro soak --seeds 24 --scale quick (chaos oracle gate)"
# Exits nonzero on any oracle violation; a fixed seed range keeps the
# gate deterministic and bounded.
cargo run -q --release -p renofs-bench --bin repro -- soak --seeds 24 --scale quick >/dev/null

echo "==> repro soak --lease --seeds 12 --scale quick (NQNFS lease oracle gate)"
# Lease worlds (write-behind clients, crash/reboot and partition
# windows) against the tightened lease oracle grace; exits nonzero on
# any violation.
cargo run -q --release -p renofs-bench --bin repro -- soak --lease --seeds 12 \
    --scale quick >/dev/null

echo "==> repro soak --duration 30 --seeds 8 (streaming budget-mode smoke)"
# Time-boxed streaming-oracle run: exits 1 on the first violation
# (fail-fast), caps at 8 seeds so it finishes well inside the box.
cargo run -q --release -p renofs-bench --bin repro -- soak --duration 30 --seeds 8 \
    --scale quick >/dev/null

echo "==> cargo test -p renofs-bench --features profile (alloc discipline + profiler)"
cargo test -q -p renofs-bench --features profile --release

echo "==> repro bench --check BENCH_pr4.json (queue + crowd + lease regression gates)"
# Also holds the BENCH_pr8.json lease gate (>=60% write-RPC recovery
# vs noconsist at zero soak violations) and the BENCH_pr9.json shard
# gate (LAN aggregate op/s at M=4 >= 2x M=1, all shards routed,
# fairness >= 0.8, byte-identical between fresh runs at jobs 1 and 2).
cargo run -q --release -p renofs-bench --bin repro -- bench --scale quick --check BENCH_pr4.json

echo "All checks passed."
