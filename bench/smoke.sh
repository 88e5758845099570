#!/usr/bin/env bash
# CI smoke pass: configure a warning-strict build (-Wall -Wextra -Werror —
# any new warning fails the build), compile everything, and run the unit
# suite six times:
#
#   1. stock defaults (kBlocked);
#   2. order-aware sort elision pinned off (OBLIVDB_SORT_ELISION=off), so
#      both sides of the elision flag stay green;
#   3. the plan optimizer pinned off (OBLIVDB_OPTIMIZE=off), so the
#      unrewritten plans stay byte-for-byte healthy on their own;
#   4. an ASan+UBSan rebuild (-DOBLIVDB_SANITIZE=address,undefined) with
#      fault injection live (OBLIVDB_FAULT_SPEC), so the recovery unwind
#      paths are exercised leak- and UB-checked;
#   5. a TSan rebuild (-DOBLIVDB_SANITIZE=thread) with the query service at
#      4 concurrent sessions (OBLIVDB_SERVICE_SESSIONS=4), so the service's
#      shared state — the admission queue, the plan cache, the
#      exclusive-trace lock — is exercised race-checked;
#   6. chaos: the resilience fault set live (worker crashes + the transient
#      environmental faults) at 4 sessions, plus the chaos harness, so
#      crash containment, transparent retry and the circuit breaker absorb
#      a real fault stream while every byte-identity assertion stays green.
#
# Between passes 3 and 4 it runs the repo benchmark's smoke mode, the
# small-n sort / join-pipeline / faults / optimizer / service benches and
# the query-plan demo (plan-vs-direct cross-check).
#
#   bench/smoke.sh [build-dir]      # default: build-smoke

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-smoke}"

cmake -B "$build_dir" -S "$repo_root" -DOBLIVDB_WERROR=ON >/dev/null
cmake --build "$build_dir" -j "$(nproc)"
# First pass: stock defaults.
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# Second pass with order-aware sort elision pinned off: the no-hint /
# no-elision paths must stay byte-for-byte healthy on their own (the
# default-on runs above already cover elision engaged).
OBLIVDB_SORT_ELISION=off \
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# Third pass with the plan optimizer pinned off: every suite must stay
# green when plans execute exactly as written (the default-on runs above
# already cover the rewrite pass engaged).
OBLIVDB_OPTIMIZE=off \
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# The plan layer gates the whole query path: run its suite once more,
# loudly, so a plan regression is unmissable in the CI log.  (The binary
# only exists when GTest does — ctest above already covered it then.)
if [ -x "$build_dir/plan_test" ]; then
  "$build_dir/plan_test" --gtest_brief=1
fi
cmake --build "$build_dir" --target bench_smoke
# The repo benchmark's own output checks: every workload at tiny sizes,
# both modes, outputs checked and metric names matched to BENCHMARK.json.
python3 "$repo_root/oblivbench/run.py" --smoke
# End-to-end chained-plan check: elision on vs. off must agree byte for
# byte and the expected sorts must actually elide (exits nonzero if not).
"$build_dir/bench_join_pipeline" --smoke >/dev/null
# Fault-resilience cross-check: clean-vs-faulty byte equality on every
# graceful-degradation path plus the cancellation contract.
"$build_dir/bench_faults" --smoke >/dev/null
# Optimizer cross-check: optimized-vs-unoptimized byte equality on both
# scenarios, and the expected rewrites must actually fire.
"$build_dir/bench_optimizer" --smoke >/dev/null
# Query-service cross-check: byte equality vs a solo Executor across every
# cache/session-count variant, and the cache-on rows must hit.
"$build_dir/bench_service" --smoke >/dev/null
cmake --build "$build_dir" --target plan_smoke
# Fourth pass: rebuild under ASan+UBSan and run the whole suite with a
# low-rate transient-MAC fault stream live, so the retry and unwind
# machinery runs sanitized.  robustness_test then re-runs alone under a
# hotter multi-site spec (5% MAC faults, every-2nd spawn refusal).
# `alloc` never goes in an env spec: an OArray constructor firing outside
# a recovery scope is a correct abort, not a test signal.
san_dir="$build_dir-asan"
cmake -B "$san_dir" -S "$repo_root" \
  -DOBLIVDB_SANITIZE=address,undefined >/dev/null
cmake --build "$san_dir" -j "$(nproc)"
OBLIVDB_FAULT_SPEC="decrypt_mac:0.01" \
  ctest --test-dir "$san_dir" --output-on-failure -j "$(nproc)"
if [ -x "$san_dir/robustness_test" ]; then
  OBLIVDB_FAULT_SPEC="decrypt_mac:0.05;pool_spawn:2" \
    "$san_dir/robustness_test" --gtest_brief=1
fi
OBLIVDB_FAULT_SPEC="decrypt_mac:0.01" "$san_dir/bench_faults" --smoke >/dev/null
# Fifth pass: rebuild under TSan and run the suite with the query
# service at 4 concurrent sessions, so session workers, the admission
# queue, the plan cache and the shared-exclusive trace lock all
# run race-checked.  sort_kernel_test is excluded: its perf-bar assertion
# (blocked >= 2x reference) compares wall times, which TSan's ~10x
# instrumentation skew makes meaningless — every concurrency-bearing
# suite still runs.
tsan_dir="$build_dir-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DOBLIVDB_SANITIZE=thread >/dev/null
cmake --build "$tsan_dir" -j "$(nproc)"
OBLIVDB_SERVICE_SESSIONS=4 OBLIVDB_THREADS=4 \
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$(nproc)" \
  -E '^sort_kernel_test$'
OBLIVDB_SERVICE_SESSIONS=4 OBLIVDB_THREADS=4 \
  "$tsan_dir/bench_service" --smoke >/dev/null
# Sixth pass: chaos.  The whole suite runs with worker crashes and the
# transient environmental faults live at 4 concurrent sessions — crash
# containment requeues/respawns, transparent retry rescues transients, and
# every byte-identity assertion must still hold.  (`alloc` stays out of
# env specs: an OArray constructor firing outside a recovery scope is a
# correct abort, not a test signal.)  bench_chaos then replays its own
# seeded fault schedules — worker crashes, spawn refusals and alloc
# transients included — and
# asserts loss-free fault-free goodput, byte-identical OK responses, and
# trace-identical exclusive probes.
OBLIVDB_FAULT_SPEC="worker_crash:0.02;pool_spawn:0.02" \
OBLIVDB_SERVICE_SESSIONS=4 OBLIVDB_THREADS=4 \
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
OBLIVDB_FAULT_SPEC="worker_crash:0.05;pool_spawn:0.02" \
OBLIVDB_SERVICE_SESSIONS=4 \
  "$build_dir/bench_chaos" --smoke >/dev/null
echo "smoke OK"
