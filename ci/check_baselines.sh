#!/usr/bin/env bash
# Wall-clock regression gates for the simulator and the sweep engine.
#
# `event_engine --gate` re-measures the simulator hot loop and fails if
# any row of the committed BENCH_event_engine.json regressed by more
# than 15% ns/event, and `fig_sweep_throughput --gate` re-times the full
# cached sweep grid and fails if any thread-count row's scenarios/sec
# fell more than 15% below the committed BENCH_sweep_throughput.json.
# Both reports carry wall time, so they are gated, never byte-compared.
#
# The figures' deterministic bytes are checked elsewhere: the seven
# sweep figures' quick grids are golden-corpus reports, compared by
# ci/check_scenarios.sh and, on 1 and 4 threads, by `cargo test`, and the
# fig11/fig13 JSON is byte-pinned by crates/hisq-bench/tests/figure_cli.rs.
#
# Usage: ci/check_baselines.sh           (uses cargo run --release)
set -euo pipefail

cd "$(dirname "$0")/.."

status=0

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
