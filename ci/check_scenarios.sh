#!/usr/bin/env bash
# Golden-corpus replay gate for the release `hisq` binary.
#
# Replays every scenario file in scenarios/ once through `hisq run
# --threads 4` and byte-compares the output against the committed
# report in scenarios/reports/. The corpus includes the --quick grids
# of the `figure` binary's seven sweep figures (fig15, fig16,
# fig_contention, fig_hetero, fig_load, fig_noise, fig_scale), so
# their reports are pinned here too; their full grids live in
# scenarios/full/, which the scenarios/*.json glob does not match.
# fig_scale's quick grid reaches a BISP root router at node address
# 4094, the top of the 12-bit node field. The thread-count comparison
# is `cargo test`'s (tests/compile_cache_equivalence.rs): every file,
# uncached on 1 thread and cached on 1 and 4, against the same
# committed report; `hisq run` is that cached sweep on a fresh cache.
# One file additionally runs with `--repetitions` to pin the
# seed++ expansion semantics, and the load_saturation report is
# grepped for the job-engine metric surface (latency percentiles) so
# the multi-tenant path can't silently degrade to a plain replay.
#
# Mismatching outputs are left under $DIFF_DIR (default
# target/scenario-diff/) for CI to upload as an artifact.
#
# Usage: ci/check_scenarios.sh            (builds hisq if needed)
#        HISQ=path/to/hisq ci/check_scenarios.sh
set -euo pipefail

cd "$(dirname "$0")/.."

HISQ="${HISQ:-target/release/hisq}"
DIFF_DIR="${DIFF_DIR:-target/scenario-diff}"

if [ ! -x "$HISQ" ]; then
    cargo build --release --bin hisq
fi

rm -rf "$DIFF_DIR"
mkdir -p "$DIFF_DIR"

status=0

for file in scenarios/*.json; do
    stem="$(basename "$file" .json)"
    golden="scenarios/reports/$stem.json"
    if [ ! -f "$golden" ]; then
        echo "FAIL $stem: no committed report at $golden" >&2
        status=1
        continue
    fi
    out="$DIFF_DIR/$stem.json"
    "$HISQ" run "$file" --threads 4 --json > "$out" 2> /dev/null
    if cmp -s "$out" "$golden"; then
        rm "$out"
        echo "ok   $stem"
    else
        echo "FAIL $stem: output differs from $golden" >&2
        echo "     regenerated copy kept at $out" >&2
        status=1
    fi
done

# --repetitions N must expand every grid point N times with
# consecutive seeds: 4 grid points x 2 repetitions = 8 scenarios.
reps_out="$DIFF_DIR/bisp_vs_lockstep.reps2.json"
"$HISQ" run scenarios/bisp_vs_lockstep.json --repetitions 2 --json \
    > "$reps_out" 2> /dev/null
if grep -q '^{"scenarios":8,' "$reps_out" \
    && grep -q '"w_state_n12/bisp/seed3/t300"' "$reps_out"; then
    rm "$reps_out"
    echo "ok   bisp_vs_lockstep --repetitions 2 (8 scenarios, seed++)"
else
    echo "FAIL bisp_vs_lockstep: --repetitions 2 did not expand to 8 scenarios" >&2
    echo "     output kept at $reps_out" >&2
    status=1
fi

# The load corpus entry must carry the job-engine metric surface: a
# scenario with a `load` block reports latency percentiles and a
# rejection count, not just a makespan.
load_golden="scenarios/reports/load_saturation.json"
if grep -q '"latency_p99_ns"' "$load_golden" \
    && grep -q '"jobs_rejected"' "$load_golden"; then
    echo "ok   load_saturation carries job-engine metrics"
else
    echo "FAIL load_saturation: $load_golden lacks job-engine metrics" >&2
    status=1
fi

rmdir "$DIFF_DIR" 2> /dev/null || true
if [ "$status" -ne 0 ]; then
    echo "golden corpus FAILED; regenerate with:" >&2
    echo "  for f in scenarios/*.json; do" >&2
    echo "    $HISQ run \"\$f\" --json > scenarios/reports/\$(basename \"\$f\")" >&2
    echo "  done" >&2
fi
exit "$status"
