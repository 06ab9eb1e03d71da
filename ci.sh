#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests, and a static-analysis
# sweep of every shipped template. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark harness builds and smoke-runs (perf/run.sh --smoke)"
# perf/ is its own workspace: nothing else compiles perf/src/layers.rs, so
# a renamed library entry point (DESIGN.md, "Frozen adapter names") would
# otherwise break only the benchmark. Run first, so that it fails in the
# first minutes rather than after the full suite.
perf/run.sh --smoke > /dev/null

echo "==> certifier memory tripwire (large CNN under a 256 MB address space)"
# The concurrency certificate is O(steps x lanes) (docs/concurrency.md).
# As an n^2-bit closure it alone took 656 MB for the first plan and
# 272 MB for the second, so the limit fails if the quadratic comes back;
# both peak under 70 MB. No timing assertion: the address-space limit is
# deterministic and the sandbox clock is not.
gpuflow="${CARGO_TARGET_DIR:-target}/release/gpuflow"
( ulimit -v 262144
  "$gpuflow" run cnn-large:499x402 --devices c870x3 --overlap --json > /dev/null
  "$gpuflow" check cnn-large:512x512 --devices c870x2 --hazards > /dev/null )

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> examples build and run"
cargo build --release -q --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--- example $name"
    cargo run --release -q --example "$name" > /dev/null
done

echo "==> exact PB scheduler perf tripwire (ablation_pb_scaling --smoke)"
cargo run --release -q -p gpuflow-bench --bin ablation_pb_scaling -- --smoke

echo "==> chaos resilience gate (gpuflow chaos --smoke)"
# Seeded device loss at the midpoint of a 2-device run on each benchmark
# template (plus transient-fault sweeps) must recover, match the
# reference evaluation bit-for-bit, and replay deterministically.
cargo run --release -q -p gpuflow-cli --bin gpuflow -- chaos --smoke

echo "==> serving gate (gpuflow serve --smoke)"
# Deterministic single-process ladder: cache miss -> hit -> incremental,
# a queued run admitting after a holder releases, typed infeasible and
# backpressure rejects, stats accounting, drain on shutdown; plus the
# guard gates — a flood must trip the breaker, shed with retry hints,
# keep the admitted execute p99 within 2x the unloaded tail, and
# reclose; and a daemon restarted from its plan-cache journal must
# serve a byte-identical warm hit.
cargo run --release -q -p gpuflow-cli --bin gpuflow -- serve --smoke

echo "==> serving soak gate (gpuflow serve --soak, chaos-faulted)"
# Concurrent clients stream mixed compile/run/faulted-run requests;
# every request must end completed-and-verified or cleanly typed-rejected.
# Then the network phase: a seeded transport-fault storm (conn drops,
# slow clients, garbage, partial writes) run twice must replay
# bit-identically, and a malformed-frame corpus must never wedge the
# daemon or starve a well-formed peer.
cargo run --release -q -p gpuflow-cli --bin gpuflow -- serve --soak

echo "==> profiler attribution gate (gpuflow profile --smoke)"
# Every bundled template (serial, streams=2, and the c870x2 cluster)
# must reconcile exactly: per engine, busy + attributed-gap nanoseconds
# telescope to the makespan with zero drift. A single unattributed
# nanosecond fails. Advisor-vs-replan divergence >10% prints a GF0061
# note but does not fail (docs/profiling.md).
cargo run --release -q -p gpuflow-cli --bin gpuflow -- profile --smoke

echo "==> plan-cache perf tripwire (extension_serve --smoke)"
# Warm-cache p50 must stay >=10x below the cold-compile p50.
cargo run --release -q -p gpuflow-bench --bin extension_serve -- --smoke

echo "==> stream scheduler perf tripwire (extension_streams --smoke)"
# streams=2 must land strictly below the serial launch chain on the
# 4-orientation edge template and the small CNN, with every stream plan
# GF005x-certified.
cargo run --release -q -p gpuflow-bench --bin extension_streams -- --smoke

echo "==> committed result files reproduce (14 deterministic bins vs docs/results/)"
# Simulated time and bytes moved are exact, so these tables are an oracle:
# a planner refactor that claims "same behaviour" must reprint every one.
cargo build --release -q -p gpuflow-bench
benchbin="$PWD/${CARGO_TARGET_DIR:-target}/release"
for b in fig1c_memory_regions fig2_transfer_breakdown fig3_schedule_comparison \
         fig6_pb_optimal fig8_scalability table1_data_transfer table2_exec_time \
         ablation_fragmentation ablation_pb_gap ablation_scheduling \
         extension_multigpu extension_overlap extension_templates; do
    "$benchbin/$b" | diff -u "docs/results/$b.txt" - || { echo "stale docs/results/$b.txt"; exit 1; }
done
# extension_streams writes its table (and BENCH_streams.json) relative to
# the working directory; run it in a scratch one and compare both.
streamsdir="$(mktemp -d)"
mkdir -p "$streamsdir/docs/results"
(cd "$streamsdir" && "$benchbin/extension_streams" > /dev/null)
diff -u docs/results/extension_streams.txt "$streamsdir/docs/results/extension_streams.txt"
diff -u BENCH_streams.json "$streamsdir/BENCH_streams.json"
rm -rf "$streamsdir"
# The bit-exact simulation ledger, in the release profile the bins above
# use (`cargo test` checked it in the debug build, sanitizer on).
cargo test --release -q --test sim_ledger

echo "==> gpuflow check over shipped templates"
for gfg in assets/*.gfg; do
    echo "--- $gfg"
    cargo run --release -q -p gpuflow-cli --bin gpuflow -- check "$gfg" --device custom:1
done

echo "==> concurrency certification sweep (check --hazards, 1/2/4 devices)"
# Every bundled template must earn the GF005x concurrency certificate on
# a single device, the 2009 two-card pair, and a four-way modern cluster
# (docs/concurrency.md). The mutation property suites under `cargo test`
# above prove injected hazards are always diagnosed.
for src in fig3 edge:1200x1200,k=9,o=4 cnn-small:512x512 \
           assets/edge_4or.gfg assets/pipeline.gfg; do
    for devs in "" "--devices c870x2" "--devices modernx4"; do
        echo "--- check $src $devs"
        # shellcheck disable=SC2086
        cargo run --release -q -p gpuflow-cli --bin gpuflow -- \
            check "$src" --hazards $devs > /dev/null
    done
done

echo "==> gpuflow trace export + reconciliation (single device, exact, cluster)"
# `trace` re-parses its own Chrome-trace export and exits nonzero if the
# summed per-event byte counters drift from the plan's canonical stats.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -q -p gpuflow-cli --bin gpuflow -- \
    trace fig3 --device custom:1 --out "$tracedir/fig3.json" > /dev/null
cargo run --release -q -p gpuflow-cli --bin gpuflow -- \
    trace fig3 --device custom:1 --exact --out "$tracedir/fig3_exact.json" > /dev/null
cargo run --release -q -p gpuflow-cli --bin gpuflow -- \
    trace assets/pipeline.gfg --devices c870x2 --out "$tracedir/pipeline_multi.json" > /dev/null
for t in fig3 fig3_exact pipeline_multi; do
    grep -q '"traceEvents"' "$tracedir/$t.json" || { echo "bad trace $t"; exit 1; }
done

echo "CI OK"
