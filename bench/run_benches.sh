#!/usr/bin/env bash
# Runs the sort-kernel, end-to-end join-pipeline, fault-resilience,
# plan-optimizer, query-service and service-chaos benchmarks and records
# the perf trajectory in BENCH_sort.json / BENCH_join.json /
# BENCH_faults.json / BENCH_optimizer.json / BENCH_service.json /
# BENCH_chaos.json.  These are single best-of runs
# without a spread; they are superseded by the repo benchmark declared in
# BENCHMARK.json (python3 oblivbench/run.py), which is what regressions
# are judged against.
#
#   bench/run_benches.sh [sort_output.json] [join_output.json] \
#                        [faults_output.json] \
#                        [optimizer_output.json] [service_output.json] \
#                        [chaos_output.json]
#
# Environment:
#   BUILD_DIR        cmake build directory (default: build)
#   OBLIVDB_THREADS  pins the global pool size, which every sort fans
#                    out to (default: the machine's core count)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
sort_out="${1:-$repo_root/BENCH_sort.json}"
join_out="${2:-$repo_root/BENCH_join.json}"
faults_out="${3:-$repo_root/BENCH_faults.json}"
opt_out="${4:-$repo_root/BENCH_optimizer.json}"
service_out="${5:-$repo_root/BENCH_service.json}"
chaos_out="${6:-$repo_root/BENCH_chaos.json}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" \
  --target bench_sort_kernel bench_join_pipeline \
  bench_faults bench_optimizer bench_service bench_chaos \
  -j >/dev/null

"$build_dir/bench_sort_kernel" >"$sort_out"
echo "wrote $sort_out"
"$build_dir/bench_join_pipeline" >"$join_out"
echo "wrote $join_out"
"$build_dir/bench_faults" >"$faults_out"
echo "wrote $faults_out"
"$build_dir/bench_optimizer" >"$opt_out"
echo "wrote $opt_out"
"$build_dir/bench_service" >"$service_out"
echo "wrote $service_out"
"$build_dir/bench_chaos" >"$chaos_out"
echo "wrote $chaos_out"
