#!/usr/bin/env bash
# Build offline, run every workload at smoke scale (1/20 of the data,
# 0.4 s sections), untraced and traced, and run the unit tests. The
# program itself checks each result against BENCHMARK.json: a metric
# that is declared but not measured, or measured but not declared, is an
# error, as is any wrong answer. Smoke numbers are labelled
# "tier": "smoke" and are never comparable with a reference run.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/neurospatial-benchmark"

for workload in range_inproc serve_range explore_ooc synapse_join ingest_mixed; do
    line=$("$bin" --workload "$workload" --smoke --trace 0 | tail -n 1)
    case "$line" in
        '{"correct":true,'*'"tier":"smoke"'*) echo "ok  $workload (end to end)" ;;
        *) echo "FAIL $workload: $line" >&2; exit 1 ;;
    esac
done

# One traced run covers every per-layer metric: the named workload and,
# at the same smoke scale, the other four.
line=$("$bin" --workload range_inproc --smoke --trace 1 2>/dev/null | tail -n 1)
case "$line" in
    '{"correct":true,'*) echo "ok  per-layer metrics" ;;
    *) echo "FAIL traced run: $line" >&2; exit 1 ;;
esac

cargo test --release --offline --quiet
echo "benchmark check passed"
