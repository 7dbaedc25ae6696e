#!/usr/bin/env bash
# Run every workload with tracing off, then on, and print each result line.
# Usage, from the repository root: bash bench/run_all.sh [SEED]
set -euo pipefail
seed="${1:-1}"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for workload in shipped_cli crn_scan random_family matroid_scaling; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1
    done
done
