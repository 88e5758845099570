// Per-phase instrumentation for the full join (Table 3 of the paper) and,
// since the ExecContext refactor, the shared counter record every
// relational operator reports through ExecContext::ReportStats.

#ifndef OBLIVDB_CORE_STATS_H_
#define OBLIVDB_CORE_STATS_H_

#include <cstdint>
#include <vector>

#include "common/fault.h"

namespace oblivdb::core {

// Filled in by ObliviousJoin when ExecContext::stats is non-null (and
// streamed to ExecContext::stats_sink by every operator).  The comparison
// counters count compare-exchanges (each touching two entries); route_ops
// counts routing-network steps (also two entries each).
struct JoinStats {
  uint64_t n1 = 0;
  uint64_t n2 = 0;
  uint64_t m = 0;

  // "initial sorts on TC" row of Table 3 (two bitonic sorts of size n).
  uint64_t augment_sort_comparisons = 0;
  // "o.d. on T1, T2 (sort)" row (the prefix sorts inside both expansions).
  uint64_t expand_sort_comparisons = 0;
  // "o.d. on T1, T2 (route)" row (both routing networks).
  uint64_t expand_route_ops = 0;
  // "align sort on S2" row.
  uint64_t align_sort_comparisons = 0;

  // Single-sort operators (Distinct / SemiJoin / AntiJoin / Aggregate)
  // land their pipeline sort here, and their compaction's routing steps in
  // op_route_ops; the four join-phase counters above stay zero for them.
  uint64_t op_sort_comparisons = 0;
  uint64_t op_route_ops = 0;

  // Order-aware elisions (core/order.h): the number of full oblivious
  // entry sorts this operator skipped — or collapsed to an O(n log n)
  // merge of pre-sorted runs — because the caller's OrderHints covered the
  // required order.  A function of plan shape, sizes and the public
  // ExecContext::sort_elision flag only, so it is identical across
  // different data of the same plan (tests/plan_test.cc pins this).
  // Rendered by the annotated ExplainPlan as `sort=elided`.
  uint64_t op_sorts_elided = 0;

  // Optimizer rewrites (core/optimizer.h) that produced or landed on this
  // node: multiway input reorders, selects pushed below this operator,
  // distincts folded into it.  Like op_sorts_elided, a pure function of
  // (plan shape, public sizes, flags) — identical across different data of
  // the same plan.  Rendered by the annotated ExplainPlan as `rewrites=N`.
  uint64_t op_rewrites = 0;

  // Stand-ins kept for oblivbench, which still reads a shard count and
  // per-shard wall times: execution is never sharded, so op_shards is
  // always 1 and shard_seconds always empty.  They go with the benchmark
  // change that retires the shard.* metrics (ROADMAP item 6), like the
  // ArtifactCache stand-in (obliv/artifact_cache.h).
  uint64_t op_shards = 1;
  std::vector<double> shard_seconds;

  // Resilience telemetry (common/fault.h): faults the deterministic
  // injector fired inside this operator's execution window, recovery
  // degradations taken (sequential sorts on pool-spawn refusal), and
  // bounded retries (transient MAC faults cleared by re-reading).
  // Functions of public configuration — the fault spec, seed, and arrival
  // counts — never of row contents.
  // Rendered by the annotated ExplainPlan as `faults=i degraded=d
  // retries=r` when nonzero.  Window deltas of the process-wide counters
  // (RecordFaultDelta below).
  uint64_t op_faults_injected = 0;
  uint64_t op_degradations = 0;
  uint64_t op_retries = 0;

  double augment_seconds = 0;
  double expand_seconds = 0;
  double align_seconds = 0;
  double zip_seconds = 0;
  double total_seconds = 0;

  uint64_t TotalComparisons() const {
    return augment_sort_comparisons + expand_sort_comparisons +
           expand_route_ops + align_sort_comparisons + op_sort_comparisons +
           op_route_ops;
  }
};

// Sets `stats`'s resilience counters to the delta between the process-wide
// fault counters now and the `since` snapshot the operator took at entry.
// Call once, immediately before ReportStats, so the operator's window is
// [entry, report].
inline void RecordFaultDelta(const FaultCounters& since, JoinStats& stats) {
  const FaultCounters now = FaultInjector::Global().Snapshot();
  stats.op_faults_injected = now.TotalFired() - since.TotalFired();
  stats.op_degradations = now.degradations - since.degradations;
  stats.op_retries = now.retries - since.retries;
}

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_STATS_H_
