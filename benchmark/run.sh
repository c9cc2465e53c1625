#!/usr/bin/env bash
# Builds the benchmark, runs all four workloads untraced and traced on one
# seed, and collects the eight records into one results file that
# `benchmark compare` reads:
#
#   benchmark/run.sh [seed] [results.json]
#
# Each run also prints, as the last line of its output, the one-line JSON
# object of the benchmark contract; this script keeps the richer records
# (`--out`), which hold the same values plus quartiles and round counts.
# Every run gets the timed budget of BENCHMARK.json (`run_seconds`, the
# binary's default), so its numbers compare with the driver's.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-20161101}"
results="${2:-$here/out/results-$seed.json}"

# The stack reads DATAWA_* variables (AssignConfig::default() still consults
# DATAWA_INCREMENTAL); a benchmark run must not inherit any of them. The
# binary clears them too; doing it here as well covers the build.
for name in $(compgen -e | grep '^DATAWA_' || true); do
    unset "$name"
done

cargo build --release --offline --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/benchmark"

scratch="$here/out/run-$seed"
mkdir -p "$scratch" "$(dirname "$results")"
failed=0
records=()
for workload in yueche-dta yueche-datawa churn-batched net-greedy; do
    for trace in 0 1; do
        record="$scratch/$workload-$trace.json"
        echo "== $workload --trace $trace (seed $seed)" >&2
        "$bin" run --workload "$workload" --seed "$seed" --trace "$trace" \
            --out "$record" || failed=1
        records+=("$record")
    done
done

{
    printf '{"seed": %s, "runs": [\n' "$seed"
    first=1
    for record in "${records[@]}"; do
        [ -s "$record" ] || continue
        [ "$first" = 1 ] || printf ',\n'
        first=0
        tr -d '\n' < "$record"
    done
    printf '\n]}\n'
} > "$results"
rm -rf "$scratch"
echo "results: $results" >&2
exit "$failed"
