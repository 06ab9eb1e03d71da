#!/usr/bin/env bash
# Build the release `gpuflow` binary and `gpuflow-perf`, then run the
# benchmark (see perf/README.md):
#
#   perf/run.sh                                   every workload, seed 1
#   perf/run.sh --seeds 1,2,3 [--workload W]      several seeds, with spreads
#   perf/run.sh --trace 1                         the per-layer traced runs
#   perf/run.sh --smoke                           schema and correctness only
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1     one run
#   perf/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p gpuflow-cli
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="$CARGO_TARGET_DIR/release"
# Not `exec`: the benchmark reads the peak RSS of its own children, and a
# process that replaced this shell would inherit cargo and rustc as such.
if [ "${1:-}" = compare ]; then
    "$bin/gpuflow-perf" "$@"
else
    "$bin/gpuflow-perf" --gpuflow "$bin/gpuflow" "$@"
fi
