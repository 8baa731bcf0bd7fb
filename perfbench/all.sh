#!/bin/sh
# Every workload, end to end and then traced, each in a fresh process.
#   sh perfbench/all.sh [SEED [SECONDS]]
# Run from the root of a source checkout.  Exits non-zero if any run does.
seed=${1:-20240601}
seconds=${2:-25}
status=0
for workload in analyze-family analyze-suite witness-sweep; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit $status
