#!/usr/bin/env bash
# Run the benchmark as a set of result files and print its summary.
#
#   perfbench/run_benchmark.sh [tag] [rounds]
#
# Builds release once, then runs the four workloads interleaved for
# `rounds` rounds (default 3; round r uses --seed r, so two sets made with
# the same rounds are comparable seed by seed) and one traced run per
# workload, into perfbench/out/<tag>/. Every result is stamped with the
# commit, nproc, the CPU model and `rustc -V`. Compare two sets with
#
#   <benchmark> compare perfbench/out/<tag-a> perfbench/out/<tag-b>
set -euo pipefail
cd "$(dirname "$0")/.."

tag=${1:-$(date +%Y%m%d-%H%M%S)}
rounds=${2:-3}
out=perfbench/out/$tag
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads="ea-prune-paper ea-all-paper serve-sql-hot adaptive-large"

cargo build --release --offline --manifest-path perfbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-perfbench/target}/release/benchmark

# Stamps go into JSON strings: drop the two characters that would end one.
clean() { tr -d '"\\' | tr -s ' '; }
commit=$( (git rev-parse --short HEAD 2>/dev/null || echo unknown) | clean)
cpu=$( (sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -1) | clean)
rustc_v=$(rustc -V | clean)
cores=$(nproc)

mkdir -p "$out"
run() { # workload seed trace file
    local result
    result=$("$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --out "$out" | tail -n 1)
    printf '{"workload": "%s", "seed": %s, "trace": %s, "seconds": %s, "commit": "%s", "nproc": %s, "cpu": "%s", "rustc": "%s", "result": %s}\n' \
        "$1" "$2" "$3" "$seconds" "$commit" "$cores" "$cpu" "$rustc_v" "$result" > "$4"
}

for round in $(seq 1 "$rounds"); do
    for w in $workloads; do
        run "$w" "$round" 0 "$out/$w-r$round.json"
    done
done
for w in $workloads; do
    run "$w" 1 1 "$out/$w-traced.json"
done

"$bin" summary "$out"
