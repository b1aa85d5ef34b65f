#!/usr/bin/env bash
# The full CI gate, runnable locally:
#
#   ./scripts/ci.sh
#
# Formatting, lints, the complete test suite, and a quick chaos smoke
# (the seeded fault-injection test from tests/chaos.rs at its CI-sized
# workload). Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== fmt ==="
cargo fmt --all -- --check

echo "=== clippy ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== clippy (ceh-obs, pedantic surface) ==="
# The observability core is new shared infrastructure: hold it to
# warnings-as-errors on its own, too, so workspace-wide allow()s can
# never mask a regression in it.
cargo clippy -p ceh-obs --all-targets -- -D warnings

echo "=== rustdoc ==="
# Every intra-doc link resolves and none points at a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "=== test ==="
cargo test -q --workspace

echo "=== persistent index example ==="
# The examples are otherwise only compiled (by clippy): run the one that
# writes a WAL'd index to files, reopens it and checks it.
cargo run -q -p ceh-harness --example persistent_index

echo "=== benchmark unit tests ==="
# perfbench/ is its own Cargo workspace, so the workspace test run above
# does not reach it: percentile math, per-op ratio bases, /proc parsing,
# the oracle and the BENCHMARK.json metric tables.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "=== allocation tests (release) ==="
# The zero-allocation claims (a warm find; a warm insert or delete that
# does not restructure) checked on the optimised build the benchmark
# runs, not only on the debug build of the test run above.
cargo test -q -p ceh-core --release --test find_allocs --test update_allocs

echo "=== lock manager (release) ==="
# The lock word's fast path (one CAS per uncontended grant) races the
# waiter table for real only on the optimised build: the unit tests,
# conversions, stress and word-path interleavings again, in release.
cargo test -q -p ceh-locks --release

echo "=== chaos smoke ==="
CEH_QUICK=1 cargo test -q -p ceh-harness --test chaos

echo "=== transport smoke ==="
# The distributed hash file as real processes: `ceh serve` children on
# loopback sockets driven by `ceh client`, once over clean sockets and
# once under a seeded drop/dup/sever plan with a bucket manager
# SIGKILLed mid-workload and restarted from its data directory — the
# workload's exact oracle must hold both times.
CEH_QUICK=1 cargo test -q -p ceh-cli --release --test transport_smoke

echo "=== top smoke ==="
# The live observability plane: a 4-node `ceh serve` cluster under an
# injected per-frame delay, a short workload, then `ceh top --once
# --json` — the document must validate against
# schemas/live_snapshot.schema.json with nonzero windowed ops/s and a
# populated slow-op entry, and a SIGKILLed bucket manager must show as
# a marked-stale row within the bounded poll deadline.
CEH_QUICK=1 cargo test -q -p ceh-cli --release --test top_smoke

echo "=== storage smoke ==="
# Real durable files: `ceh serve --backend file --data-dir` children are
# filled, every bucket manager is SIGKILLed with no warning, the
# processes restart over the same directories, and every acked key must
# read back from frames.ceh/wal.ceh — zero acked-data loss.
CEH_QUICK=1 cargo test -q -p ceh-cli --release --test storage_smoke

echo "=== metrics smoke ==="
# 10k-op mixed workload; the emitted RunReport JSON must validate
# against schemas/run_report.schema.json and conserve operation counts.
cargo run -q --release -p ceh-bench --bin metrics_smoke -- --json > /dev/null

echo "=== trace smoke ==="
# Seeded cluster workload with causal tracing on; the Chrome-format
# export must validate against schemas/trace.schema.json and at least
# one trace must carry a full request → dispatch → bucket chain.
cargo run -q --release -p ceh-bench --bin trace_smoke -- --json > /dev/null

echo "=== lock-discipline lint ==="
# ceh-lint must be clean over crates/ (violations are fixed or carry an
# inline `ceh-lint: allow(...)` justification).
cargo run -q --release -p ceh-check --bin ceh-lint

echo "=== check smoke ==="
# Bounded-exhaustive schedule exploration (bound 3, no pruning, 2-thread
# workloads; bound 2 pruned for 3 threads), a real-thread
# linearizability run, and the lint — all must come back clean.
cargo run -q --release -p ceh-bench --bin check_smoke

echo "=== detector self-test (check-inject) ==="
# The feature-gated label-A mutation must be *caught* by the explorer
# with a replayable minimized schedule — proof the detector has teeth.
# Separate invocation: the feature flips the code under test.
cargo test -q -p ceh-check --release --features check-inject --test inject

echo "=== race smoke (check-race) ==="
# The happens-before race detector: litmus-corpus verdicts must match
# (racy programs caught with a minimized two-access witness, race-free
# programs clean), the deterministic workloads must be race-clean
# at preemption bound 3, and the committed race-fixture corpus must
# still *reproduce* its races. Separate invocations: the feature
# compiles the shadow-access seam in.
cargo run -q --release -p ceh-cli --features check-race --bin ceh -- check race --bound 3
cargo test -q -p ceh-check --release --features check-race --test race

echo "=== race smoke (injected seqlock bug) ==="
# The check-inject missing-Release seqlock writer must be caught, blamed
# on the payload via the committed speculative read, minimized, and
# reproducible from its committed fixture.
cargo test -q -p ceh-check --release --features "check-race check-inject" --test race_inject

echo "=== race smoke (injected optimistic-find bug) ==="
# A lock-free find that skips validating its page's version must be
# caught as a race on the page (a committed speculative read unordered
# with a split's write), minimized, and reproducible from its committed
# fixture. Its own feature, so the label-A self-test above is unchanged.
cargo test -q -p ceh-check --release --features "check-race check-inject-find" --test race_inject_find

echo "=== race smoke (injected in-bucket-update bug) ==="
# An in-bucket update whose upgrade CAS starts from the page's current
# header instead of its validated read's snapshot must be caught as a
# race on the page (the read the CAS commits, unordered with the write
# that slipped in before it), minimized, and reproducible from its
# committed fixture. Its own feature, like the two above.
cargo test -q -p ceh-check --release --features "check-race check-inject-update" --test race_inject_update

echo "=== schedule-fixture corpus ==="
# Every committed minimized schedule must replay clean on the current
# protocol (a reproduced violation means a pinned bug is back).
cargo test -q -p ceh-harness --release --test schedule_fixtures

echo "=== crash smoke ==="
# The recovery fuzzer's seeded crash-point sweep (power cut at every
# reachable durability point, recovery held to the durability oracle),
# one distributed crash_site/restart_site round, and a RunReport carrying
# the storage.wal.* / storage.recovery.* counters validated against
# schemas/run_report.schema.json.
cargo run -q --release -p ceh-bench --bin crash_smoke -- --json > /dev/null

echo "=== crash-fixture corpus ==="
# Every committed crash fixture must replay clean: the durability bug it
# pins (e.g. the mid-truncate replay regression) must stay fixed.
cargo test -q -p ceh-harness --release --test crash_fixtures

echo "CI gate passed."
