#!/usr/bin/env bash
# Thread-count spot-check and wall-clock gates for the paper-figure
# binaries.
#
# Every figure whose report is deterministic and built from scenario
# files (fig15, fig16, fig_contention, fig_hetero, fig_load, fig_noise,
# fig_scale) keeps its quick grid in the golden corpus:
# ci/check_scenarios.sh and `cargo test` compare those reports against
# scenarios/reports/ on 1 and 4 threads. The experiment harnesses
# fig11 and fig13 are not scenario-driven, so this script checks that
# they emit byte-identical `--quick --json` reports on 1 and 4 worker
# threads. Mismatching pairs are left under $DIFF_DIR (default
# target/baseline-diff/) for CI to upload as an artifact.
#
# Then the wall-clock regression gates run: `event_engine --gate`
# re-measures the simulator hot loop and fails if any row of the
# committed BENCH_event_engine.json regressed by more than 15%
# ns/event, and `fig_sweep_throughput --gate` re-times the full cached
# sweep grid and fails if any thread-count row's scenarios/sec fell
# more than 15% below the committed BENCH_sweep_throughput.json. Both
# reports carry wall time, so they are gated, never byte-compared.
#
# Usage: ci/check_baselines.sh           (uses cargo run --release)
set -euo pipefail

cd "$(dirname "$0")/.."

DIFF_DIR="${DIFF_DIR:-target/baseline-diff}"

rm -rf "$DIFF_DIR"
mkdir -p "$DIFF_DIR"

status=0
for bin in fig11 fig13; do
    t1="$DIFF_DIR/$bin.t1.json"
    t4="$DIFF_DIR/$bin.t4.json"
    cargo run --release -p hisq-bench --bin "$bin" -- --quick --threads 4 --json > "$t4"
    cargo run --release -p hisq-bench --bin "$bin" -- --quick --threads 1 --json > "$t1"
    if cmp "$t1" "$t4"; then
        rm "$t1" "$t4"
        echo "ok   $bin (1 vs 4 threads)"
    else
        echo "FAIL $bin: --threads 1 and --threads 4 reports differ" >&2
        echo "     both copies kept at $t1 and $t4" >&2
        status=1
    fi
done

rmdir "$DIFF_DIR" 2> /dev/null || true

# The ns/event regression gate (reads the committed baseline, never
# rewrites it).
if cargo bench -p hisq-bench --bench event_engine -- --gate; then
    echo "ok   event_engine (ns/event gate)"
else
    echo "FAIL event_engine: ns/event regressed past the committed gate" >&2
    status=1
fi

# The sweep-throughput regression gate: full-sweep scenarios/sec with
# the shared compile cache, gated against BENCH_sweep_throughput.json
# (reads the committed baseline, never rewrites it).
if cargo run --release -p hisq-bench --bin fig_sweep_throughput -- --gate; then
    echo "ok   fig_sweep_throughput (scenarios/sec gate)"
else
    echo "FAIL fig_sweep_throughput: sweep throughput regressed past the committed gate" >&2
    status=1
fi

exit "$status"
