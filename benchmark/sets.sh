#!/usr/bin/env bash
# Runs every workload once per seed and appends each run's result to
# OUT, a result set for `compare`:
#
#   bash benchmark/sets.sh OUT.jsonl [FIRST_SEED [RUNS [TRACE]]]
#
# Ten untraced runs per workload by default, each with another seed, as
# the driver does; run length is BENCHMARK.json's run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$1"
first="${2:-1}"
runs="${3:-10}"
trace="${4:-0}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
for seed in $(seq "$first" $((first + runs - 1))); do
    for workload in heavy wide skewed tenants; do
        bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" --out "$out" | tail -n 1 >/dev/null
        echo "$workload seed $seed done" >&2
    done
done
