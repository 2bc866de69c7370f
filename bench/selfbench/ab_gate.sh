#!/usr/bin/env bash
# Same-host A/B perf gate for the simulator self-benchmark.
#
#   bench/selfbench/ab_gate.sh BASE_BENCH HEAD_BENCH OUT_DIR [ROUNDS] [MIN_RATIO]
#
# BASE_BENCH and HEAD_BENCH are two ccnuma_bench binaries built from the
# comparison base (in CI: the merge-base) and the head, on this host.
# Each of ROUNDS rounds (default 5) runs the quick grid once on the base,
# then once on the head gated against that base run with
# `--baseline=<base run> --min-ratio=MIN_RATIO` (default 0.75), so the
# two sides alternate B H B H ... and share the host's current speed.
# The gate fails when the head falls below the floor in more than half
# of the rounds, i.e. when the median of the per-round head/base
# ops/sec ratios is below MIN_RATIO. Every run's JSON is kept in OUT_DIR.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
base=$1
head=$2
out=$3
rounds=${4:-5}
min_ratio=${5:-0.75}
mkdir -p "$out"

failed=0
for ((i = 1; i <= rounds; ++i)); do
    "$base" --quick --json="$out/base-$i.json" > "$out/base-$i.log"
    rc=0
    "$head" --quick --json="$out/head-$i.json" \
        --baseline="$out/base-$i.json" --min-ratio="$min_ratio" \
        > "$out/head-$i.log" 2>&1 || rc=$?
    case $rc in
        0) verdict=ok ;;
        1) verdict=BELOW; failed=$((failed + 1)) ;;
        *) cat "$out/head-$i.log" >&2; exit "$rc" ;;
    esac
    echo "round $i/$rounds: $(grep 'ratio vs baseline' "$out/head-$i.log") [$verdict]"
done

if ((2 * failed > rounds)); then
    echo "perf gate FAILED: head below ${min_ratio}x base in $failed of $rounds rounds"
    exit 1
fi
echo "perf gate passed: head below ${min_ratio}x base in $failed of $rounds rounds"
