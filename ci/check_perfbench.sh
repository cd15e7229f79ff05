#!/usr/bin/env bash
# Builds and smoke-runs the standalone perfbench package (perfbench/,
# its own workspace with a path dependency on this repository), so a
# library change that breaks its imports, its FNV pins or its
# correctness checks fails here instead of only in a benchmark run.
#
#   1. rustfmt and clippy (-D warnings) over perfbench, which the
#      root workspace's `cargo fmt --check` and `cargo clippy` never see;
#   2. perfbench's own tests (release, offline);
#   3. every workload once, untraced, for 2 s at seed 1 — the seed whose
#      generated grids are checked against the pins in perfbench/src/ops.rs;
#   4. corpus_replay once more with tracing on (spans go to perfbench/out/).
#
# Each run's last stdout line is its JSON result; the script fails
# unless it reports "correct": true and "failed": 0. Timings are printed
# but not gated: a 2 s run is a smoke test, not a measurement.
#
# Usage: ci/check_perfbench.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=perfbench/Cargo.toml
cargo fmt --check --manifest-path "$manifest"
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest"

status=0
run() {
    local result
    result=$(cargo run --quiet --release --offline --manifest-path "$manifest" -- \
        --seed 1 --seconds 2 "$@" | tail -n 1)
    echo "perfbench $*: $result"
    if ! python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$result"; then
        echo "FAIL: perfbench $* did not report correct with 0 failed ops" >&2
        status=1
    fi
}

for workload in corpus_replay seed_fanout paper_scale; do
    run --workload "$workload" --trace 0
done
run --workload corpus_replay --trace 1

exit "$status"
