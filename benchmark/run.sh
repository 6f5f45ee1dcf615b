#!/bin/bash
# Builds the benchmark from source inside the checkout (build cache and
# binary under .bench_build/, nothing outside the checkout is written) and
# runs it with the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the root of the checkout.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/hedc-benchmark ./benchmark
exec .bench_build/hedc-benchmark "$@"
