// Sharded oblivious execution (core/shard.h): the k-way partitioned
// Join/Aggregate must be byte-identical to the unsharded operators for
// every SortPolicy tier and both sort_elision settings, keep its trace a
// function of the public sizes, pad with inert reserved-key rows, fall
// back publicly on the documented conditions, and surface per-shard
// telemetry through JoinStats and the annotated ExplainPlan.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/exec_context.h"
#include "core/join.h"
#include "core/plan.h"
#include "core/shard.h"
#include "memtrace/sinks.h"
#include "typecheck/interpreter.h"
#include "typecheck/query.h"
#include "workload/generators.h"

namespace oblivdb {
namespace {

using core::ExecContext;
using core::JoinGroupAggregate;
using core::JoinStats;
using core::ShardDummyKeyFloor;
using core::ObliviousJoin;
using core::ObliviousJoinAggregate;
using core::ObliviousShardPartition;
using core::ResolveShardCount;
using core::ShardCapacity;
using core::ShardedJoin;
using core::ShardedJoinAggregate;
using core::ShardOfKey;
using core::ShardSet;

const obliv::SortPolicy kAllPolicies[] = {obliv::SortPolicy::kReference,
                                           obliv::SortPolicy::kBlocked};

// A mid-size pair with repeated keys on both sides (multi-groups exercise
// both expansions inside every shard pipeline): 400 groups of bounded
// size, so no key group is large enough to push a shard past its 25%
// capacity slack (unlike e.g. PowerLaw, whose heavy groups legitimately
// hit the skew fallback — SkewOverflowFallsBack covers that).
workload::TestCase MidCase(uint64_t seed) {
  std::vector<std::pair<uint64_t, uint64_t>> spec;
  for (uint64_t g = 0; g < 400; ++g) {
    spec.push_back({1 + (g + seed) % 3, (g + 2 * seed) % 4});
  }
  return workload::FromGroupSpec("shard_mid_s" + std::to_string(seed), spec,
                                 seed);
}

ExecContext ShardedCtx(uint32_t shards) {
  ExecContext ctx;
  ctx.shards = shards;
  return ctx;
}

// ---------------------------------------------------------------------------
// Public helpers.

TEST(ShardPrimitivesTest, CapacityCoversEvenSplit) {
  for (const size_t n : {0ul, 1ul, 100ul, 4096ul, 1000000ul}) {
    for (const uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
      const size_t cap = ShardCapacity(n, k);
      EXPECT_GE(cap * k, n) << n << "/" << k;
      if (k > 1) {
        EXPECT_GE(cap, (n + k - 1) / k + 64u);
      }
    }
  }
}

TEST(ShardPrimitivesTest, ShardOfKeyDeterministicAndInRange) {
  for (uint64_t key = 0; key < 500; ++key) {
    const uint32_t s = ShardOfKey(key, /*seed=*/42, /*k=*/8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, ShardOfKey(key, 42, 8));
  }
  // Different seeds give different maps (with overwhelming probability
  // over 500 keys).
  size_t differs = 0;
  for (uint64_t key = 0; key < 500; ++key) {
    differs += ShardOfKey(key, 1, 8) != ShardOfKey(key, 2, 8);
  }
  EXPECT_GT(differs, 0u);
}

TEST(ShardPrimitivesTest, SeedDerivationDeterministicAndDistinct) {
  const uint64_t base = 0x1234;
  std::set<uint64_t> seen;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    const uint64_t d = ExecContext::DeriveSeed(base, stream);
    EXPECT_EQ(d, ExecContext::DeriveSeed(base, stream));
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(ShardPrimitivesTest, ForShardIsolatesTelemetryAndDerivesSeed) {
  JoinStats stats;
  core::CollectingStatsSink sink;
  memtrace::HashTraceSink trace;
  ExecContext ctx;
  ctx.stats = &stats;
  ctx.stats_sink = &sink;
  ctx.trace_sink = &trace;
  ctx.shards = 4;

  const ExecContext c0 = ctx.ForShard(0, nullptr);
  const ExecContext c1 = ctx.ForShard(1, nullptr);
  EXPECT_EQ(c0.stats, nullptr);
  EXPECT_EQ(c0.stats_sink, nullptr);
  EXPECT_EQ(c0.trace_sink, nullptr);
  EXPECT_EQ(c0.shards, 1u);  // no recursive sharding
  EXPECT_NE(c0.rng_seed, ctx.rng_seed);
  EXPECT_NE(c0.rng_seed, c1.rng_seed);
  EXPECT_EQ(c0.rng_seed, ctx.ForShard(0, nullptr).rng_seed);
}

// ---------------------------------------------------------------------------
// Shard-count resolution: forced counts and the public fallbacks.

TEST(ResolveShardCountTest, ForcedCountHonored) {
  const auto tc = MidCase(3);
  EXPECT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(4)), 4u);
  EXPECT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(2)), 2u);
  EXPECT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(1)), 1u);
}

TEST(ResolveShardCountTest, EmptyInputFallsBack) {
  const auto tc = MidCase(4);
  EXPECT_EQ(ResolveShardCount(Table("empty"), tc.t2, ShardedCtx(4)), 1u);
  EXPECT_EQ(ResolveShardCount(tc.t1, Table("empty"), ShardedCtx(4)), 1u);
}

TEST(ResolveShardCountTest, ReservedKeyFallsBack) {
  auto tc = MidCase(5);
  tc.t1.Add(~uint64_t{0} - 7, 1);  // inside the top reserved window
  EXPECT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(4)), 1u);
}

TEST(ResolveShardCountTest, SkewOverflowFallsBack) {
  // Every row shares one key: one shard would have to hold the whole
  // table, far beyond the padded capacity.
  Table skew1("skew1"), skew2("skew2");
  for (int i = 0; i < 512; ++i) skew1.Add(77, i);
  for (int i = 0; i < 512; ++i) skew2.Add(i, i);
  EXPECT_EQ(ResolveShardCount(skew1, skew2, ShardedCtx(4)), 1u);
}

TEST(ResolveShardCountTest, AutoStaysUnshardedBelowSizeFloor) {
  const auto tc = MidCase(6);  // far below kShardMinRows
  EXPECT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(0)), 1u);
}

// The sharded-cost estimate is a pure function of (n1, n2, k, workers):
// deterministic, and shaped sensibly — more shards on one worker only add
// partition and merge overhead, so k = 1 must win there.
TEST(ResolveShardCountTest, EstimateShardedJoinNsDeterministicAndShaped) {
  const size_t n1 = size_t{1} << 17, n2 = size_t{1} << 16;
  for (const uint32_t k : {1u, 2u, 4u, 8u}) {
    const double ns = core::EstimateShardedJoinNs(n1, n2, k, 8);
    EXPECT_GT(ns, 0.0);
    EXPECT_EQ(ns, core::EstimateShardedJoinNs(n1, n2, k, 8));
  }
  EXPECT_LT(core::EstimateShardedJoinNs(n1, n2, 1, 1),
            core::EstimateShardedJoinNs(n1, n2, 4, 1));
}

// The benchmark's join (2^19 rows a side) on a 4-worker pool stays
// unsharded: the model prices k = 1 below both k = 2 and k = 4, so the
// auto path's argmin is 1.
TEST(ResolveShardCountTest, BenchmarkJoinSizeStaysUnshardedOnFourWorkers) {
  const size_t n = size_t{1} << 19;
  const double unsharded = core::EstimateShardedJoinNs(n, n, 1, 4);
  EXPECT_LT(unsharded, core::EstimateShardedJoinNs(n, n, 2, 4));
  EXPECT_LT(unsharded, core::EstimateShardedJoinNs(n, n, 4, 4));
}

// The auto path is the cost-model argmin over candidate shard counts — a
// function of the public sizes and the worker count only, so two tables of
// the same sizes but different contents resolve identically, and the
// chosen k is the model's cheapest candidate (floors permitting).
TEST(ResolveShardCountTest, AutoDecisionIsCostArgminAndShapeDeterministic) {
  ThreadPool pool(8);
  auto big_pair = [](uint64_t variant) {
    // 3 * 2^16 rows combined: above kShardMinRows with room for
    // several shards above kShardMinRowsPerShard.
    Table t1("auto1"), t2("auto2");
    for (uint64_t i = 0; i < (uint64_t{1} << 17); ++i) {
      t1.Add(i % 50021, 1000 * variant + i);
    }
    for (uint64_t i = 0; i < (uint64_t{1} << 16); ++i) {
      t2.Add(i % 50021, 2000 * variant + i);
    }
    return std::make_pair(std::move(t1), std::move(t2));
  };
  ExecContext ctx;
  ctx.shards = 0;
  ctx.pool = &pool;

  const auto [a1, a2] = big_pair(1);
  const uint32_t k = ResolveShardCount(a1, a2, ctx);
  const auto [b1, b2] = big_pair(2);
  EXPECT_EQ(ResolveShardCount(b1, b2, ctx), k);

  // The resolved k is no worse than any other candidate the floors admit.
  const size_t n_total = a1.size() + a2.size();
  const double chosen_ns =
      core::EstimateShardedJoinNs(a1.size(), a2.size(), std::max(k, 1u), 8);
  for (uint32_t cand = 1; cand <= 8; cand *= 2) {
    if (cand >= 2 && n_total / cand < core::kShardMinRowsPerShard) break;
    EXPECT_LE(chosen_ns,
              core::EstimateShardedJoinNs(a1.size(), a2.size(), cand, 8))
        << "candidate k=" << cand;
  }
}

// ---------------------------------------------------------------------------
// The partition itself.

TEST(ShardPartitionTest, PaddedSortedCoShardedAndLossless) {
  const auto tc = MidCase(7);
  const uint32_t k = 4;
  ExecContext ctx;
  ASSERT_EQ(ResolveShardCount(tc.t1, tc.t2, ShardedCtx(k)), k);
  const ShardSet set = ObliviousShardPartition(tc.t1, k, /*table_tag=*/1, ctx);
  ASSERT_EQ(set.shards.size(), k);
  EXPECT_EQ(set.capacity, ShardCapacity(tc.t1.size(), k));

  const uint64_t map_seed = ExecContext::DeriveSeed(ctx.rng_seed, 0);
  const uint64_t floor = ShardDummyKeyFloor(tc.t1.size(), k);
  std::vector<Record> reals;
  std::set<uint64_t> dummy_keys;
  for (uint32_t s = 0; s < k; ++s) {
    const Table& shard = set.shards[s];
    ASSERT_EQ(shard.size(), set.capacity);  // public padded size
    for (size_t i = 0; i < shard.size(); ++i) {
      const Record& r = shard.rows()[i];
      // Within a shard rows ascend by (j, d0, d1) — the ByKeyData promise
      // the per-shard pipelines elide their entry sorts on.
      if (i > 0) {
        EXPECT_LE(shard.rows()[i - 1], r);
      }
      if (r.key < floor) {
        EXPECT_EQ(ShardOfKey(r.key, map_seed, k), s);  // co-sharding
        reals.push_back(r);
      } else {
        // Table-1 padding keys are even offsets from the floor, unique.
        EXPECT_EQ((r.key - floor) % 2, 0u);
        EXPECT_TRUE(dummy_keys.insert(r.key).second);
        EXPECT_EQ(r.payload[0], 0u);
        EXPECT_EQ(r.payload[1], 0u);
      }
    }
  }
  // The real rows are exactly the input multiset.
  std::vector<Record> input = tc.t1.rows();
  std::sort(input.begin(), input.end());
  std::sort(reals.begin(), reals.end());
  EXPECT_EQ(reals, input);
}

TEST(ShardPartitionTest, PaddingParityKeepsTablesDisjoint) {
  const auto tc = MidCase(8);
  ExecContext ctx;
  const ShardSet s1 = ObliviousShardPartition(tc.t1, 2, 1, ctx);
  const ShardSet s2 = ObliviousShardPartition(tc.t2, 2, 2, ctx);
  std::set<uint64_t> d1;
  for (const Table& t : s1.shards) {
    for (const Record& r : t.rows()) {
      if (r.key >= ShardDummyKeyFloor(tc.t1.size(), 2)) d1.insert(r.key);
    }
  }
  for (const Table& t : s2.shards) {
    for (const Record& r : t.rows()) {
      if (r.key >= ShardDummyKeyFloor(tc.t2.size(), 2)) {
        EXPECT_EQ(d1.count(r.key), 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The pinned acceptance property: sharded output byte-identical to
// unsharded, for every sort policy and both elision settings.

TEST(ShardedJoinTest, MatchesUnshardedEveryPolicyAndElision) {
  const auto tc = MidCase(9);
  const std::vector<JoinedRecord> expected = ObliviousJoin(tc.t1, tc.t2);
  ASSERT_EQ(expected.size(), tc.expected_m);
  for (const obliv::SortPolicy policy : kAllPolicies) {
    for (const bool elision : {false, true}) {
      ExecContext ctx = ShardedCtx(4);
      ctx.sort_policy = policy;
      ctx.sort_elision = elision;
      JoinStats stats;
      ctx.stats = &stats;
      EXPECT_EQ(ShardedJoin(tc.t1, tc.t2, ctx), expected)
          << obliv::SortPolicyName(policy) << " elision=" << elision;
      EXPECT_EQ(stats.op_shards, 4u);
    }
  }
}

TEST(ShardedAggregateTest, MatchesUnshardedEveryPolicyAndElision) {
  const auto tc = MidCase(10);
  const std::vector<JoinGroupAggregate> expected =
      ObliviousJoinAggregate(tc.t1, tc.t2);
  for (const obliv::SortPolicy policy : kAllPolicies) {
    for (const bool elision : {false, true}) {
      ExecContext ctx = ShardedCtx(4);
      ctx.sort_policy = policy;
      ctx.sort_elision = elision;
      JoinStats stats;
      ctx.stats = &stats;
      EXPECT_EQ(ShardedJoinAggregate(tc.t1, tc.t2, ctx), expected)
          << obliv::SortPolicyName(policy) << " elision=" << elision;
      EXPECT_EQ(stats.op_shards, 4u);
    }
  }
}

// The pool-width dimension of the policy loop: a 2-shard join and
// aggregate over ~2^13 input rows, where every shard's entry sort and the
// recombining run merge reach the fan-out cutoff.  The untraced runs split
// the pool between the shards (width 4: two 2-worker shard pools; width 2:
// serial shards); the traced runs drive the shards in order on the whole
// pool.  Outputs, elided-sort counts and traces must not depend on the
// width.  memtrace::DigestTraceSink
// compares the traces: HashTraceSink's per-event SHA-256 is too slow here.
TEST(ShardedJoinTest, PoolWidthChangesNothingButSpeed) {
  std::vector<std::pair<uint64_t, uint64_t>> spec;
  for (uint64_t g = 0; g < 2048; ++g) spec.push_back({1 + g % 3, g % 4});
  const auto tc = workload::FromGroupSpec("shard_width", spec, 13);
  ASSERT_GE(ShardCapacity(tc.t1.size(), 2) + ShardCapacity(tc.t2.size(), 2),
            obliv::internal::kParallelCutoff);
  ASSERT_GE(tc.expected_m, obliv::internal::kParallelCutoff);
  struct Run {
    std::vector<JoinedRecord> join;
    std::vector<JoinGroupAggregate> aggregate;
    uint64_t trace = 0;
    uint64_t sorts_elided = 0;
  };
  ThreadPool width1(1), width2(2), width4(4);
  for (const obliv::SortPolicy policy : kAllPolicies) {
    for (const bool aggregate : {false, true}) {
      std::optional<Run> sequential;
      for (ThreadPool* pool : {&width1, &width2, &width4}) {
        ExecContext ctx = ShardedCtx(2);
        ctx.sort_policy = policy;
        ctx.pool = pool;
        JoinStats stats;
        ctx.stats = &stats;
        Run run;
        memtrace::DigestTraceSink sink;
        auto execute = [&] {
          if (aggregate) {
            run.aggregate = ShardedJoinAggregate(tc.t1, tc.t2, ctx);
          } else {
            run.join = ShardedJoin(tc.t1, tc.t2, ctx);
          }
        };
        execute();
        EXPECT_EQ(stats.op_shards, 2u);
        run.sorts_elided = stats.op_sorts_elided;
        const Run untraced = run;
        {
          memtrace::TraceScope scope(&sink);
          execute();
        }
        run.trace = sink.digest();
        const std::string where =
            std::string(aggregate ? "aggregate " : "join ") +
            obliv::SortPolicyName(policy) + " width " +
            std::to_string(pool->worker_count());
        EXPECT_EQ(run.join, untraced.join) << where;
        EXPECT_EQ(run.aggregate, untraced.aggregate) << where;
        EXPECT_EQ(stats.op_sorts_elided, untraced.sorts_elided) << where;
        if (!sequential) {
          sequential = std::move(run);
          continue;
        }
        EXPECT_EQ(run.join, sequential->join) << where;
        EXPECT_EQ(run.aggregate, sequential->aggregate) << where;
        EXPECT_EQ(run.trace, sequential->trace) << where;
        EXPECT_EQ(run.sorts_elided, sequential->sorts_elided) << where;
      }
    }
  }
}

TEST(ShardedJoinTest, ShardCountTwoAndEightAlsoMatch) {
  const auto tc = MidCase(11);
  const auto expected = ObliviousJoin(tc.t1, tc.t2);
  for (const uint32_t k : {2u, 8u}) {
    ExecContext ctx = ShardedCtx(k);
    if (ResolveShardCount(tc.t1, tc.t2, ctx) != k) continue;  // skew guard
    EXPECT_EQ(ShardedJoin(tc.t1, tc.t2, ctx), expected) << "k=" << k;
  }
}

// Fallback paths must be the unsharded operator verbatim.
TEST(ShardedJoinTest, FallbackEqualsUnsharded) {
  auto tc = MidCase(12);
  tc.t1.Add(~uint64_t{0} - 2, 5);  // reserved key -> public fallback
  JoinStats stats;
  ExecContext ctx = ShardedCtx(4);
  ctx.stats = &stats;
  EXPECT_EQ(ShardedJoin(tc.t1, tc.t2, ctx), ObliviousJoin(tc.t1, tc.t2));
  EXPECT_EQ(stats.op_shards, 1u);
  EXPECT_TRUE(stats.shard_seconds.empty());
}

// The padding never joins: dominated-by-padding shards (tiny tables under
// a forced k) still reproduce the unsharded output, and no reserved key
// ever reaches the client.
TEST(ShardedJoinTest, DummyPaddingIsInert) {
  Table t1("t1", {{1, 10}, {1, 11}, {2, 20}, {3, 30}});
  Table t2("t2", {{1, 100}, {3, 300}, {3, 301}, {4, 400}});
  ExecContext ctx = ShardedCtx(4);
  ASSERT_EQ(ResolveShardCount(t1, t2, ctx), 4u);
  const uint64_t floor = ShardDummyKeyFloor(t1.size(), 4);
  const auto rows = ShardedJoin(t1, t2, ctx);
  EXPECT_EQ(rows, ObliviousJoin(t1, t2));
  for (const auto& r : rows) EXPECT_LT(r.key, floor);
  const auto aggs = ShardedJoinAggregate(t1, t2, ctx);
  EXPECT_EQ(aggs, ObliviousJoinAggregate(t1, t2));
  for (const auto& a : aggs) EXPECT_LT(a.key, floor);
}

// ---------------------------------------------------------------------------
// Telemetry.

TEST(ShardedStatsTest, PerShardTelemetryAndSinkIsolation) {
  const auto tc = MidCase(13);
  JoinStats stats;
  core::CollectingStatsSink sink;
  ExecContext ctx = ShardedCtx(4);
  ctx.stats = &stats;
  ctx.stats_sink = &sink;

  const auto rows = ShardedJoin(tc.t1, tc.t2, ctx);
  EXPECT_EQ(stats.op_shards, 4u);
  ASSERT_EQ(stats.shard_seconds.size(), 4u);
  for (const double s : stats.shard_seconds) EXPECT_GE(s, 0.0);
  EXPECT_EQ(stats.m, rows.size());
  EXPECT_EQ(stats.n1, tc.t1.size());
  EXPECT_EQ(stats.n2, tc.t2.size());
  EXPECT_GT(stats.op_sort_comparisons, 0u);  // partition sorts + run merges
  EXPECT_GT(stats.augment_sort_comparisons, 0u);  // summed shard pipelines
  // The per-shard pipelines report only into their isolated contexts: the
  // parent sink sees exactly one "join" report, from the sharded operator.
  ASSERT_EQ(sink.reports().size(), 1u);
  EXPECT_EQ(sink.reports()[0].op, "join");
  EXPECT_EQ(sink.reports()[0].stats.op_shards, 4u);
}

// The partition leaves every shard (j, d)-sorted, so the per-shard
// pipelines elide entry sorts even when the *input* tables have no
// declared order.
TEST(ShardedStatsTest, PartitionOrderElidesShardPipelineSorts) {
  const auto tc = MidCase(14);
  JoinStats unsharded;
  {
    ExecContext ctx;
    ctx.sort_elision = true;  // pinned: the env default may be off
    ctx.stats = &unsharded;
    (void)ObliviousJoin(tc.t1, tc.t2, ctx);  // no hints: nothing elides
  }
  EXPECT_EQ(unsharded.op_sorts_elided, 0u);

  JoinStats sharded;
  {
    ExecContext ctx = ShardedCtx(4);
    ctx.sort_elision = true;
    ctx.stats = &sharded;
    (void)ShardedJoin(tc.t1, tc.t2, ctx);
  }
  EXPECT_GT(sharded.op_sorts_elided, 0u);
}

// ---------------------------------------------------------------------------
// Obliviousness: the full sharded path's trace is a function of the public
// sizes (same key structure, different payloads -> identical hash chain),
// and traced (sequential) execution returns the same bytes as untraced
// (concurrent) execution.

workload::TestCase PayloadVariant(uint64_t payload_salt) {
  // Same key multiset in every variant -> same shard map, same per-shard
  // public sizes; only the hidden payloads differ.
  auto tc = MidCase(15);
  for (Table* t : {&tc.t1, &tc.t2}) {
    for (Record& r : t->rows()) {
      r.payload[0] = r.payload[0] * 31 + payload_salt;
      r.payload[1] = r.payload[1] + payload_salt * 7;
    }
  }
  return tc;
}

TEST(ShardedTraceTest, TraceDataIndependentAcrossPayloads) {
  for (const obliv::SortPolicy policy : kAllPolicies) {
    std::string first;
    for (uint64_t salt = 0; salt < 3; ++salt) {
      const auto tc = PayloadVariant(salt);
      memtrace::HashTraceSink sink;
      ExecContext ctx = ShardedCtx(4);
      ctx.sort_policy = policy;
      ASSERT_EQ(ResolveShardCount(tc.t1, tc.t2, ctx), 4u);
      {
        memtrace::TraceScope scope(&sink);
        (void)ShardedJoin(tc.t1, tc.t2, ctx);
      }
      EXPECT_GT(sink.access_count(), 0u);
      if (salt == 0) {
        first = sink.HexDigest();
      } else {
        EXPECT_EQ(sink.HexDigest(), first)
            << obliv::SortPolicyName(policy) << " salt=" << salt;
      }
    }
  }
}

TEST(ShardedTraceTest, TracedSequentialMatchesUntracedConcurrent) {
  const auto tc = MidCase(16);
  ExecContext ctx = ShardedCtx(4);
  const auto untraced = ShardedJoin(tc.t1, tc.t2, ctx);
  memtrace::VectorTraceSink sink;
  std::vector<JoinedRecord> traced;
  {
    memtrace::TraceScope scope(&sink);
    traced = ShardedJoin(tc.t1, tc.t2, ctx);
  }
  EXPECT_GT(sink.events().size(), 0u);
  EXPECT_EQ(traced, untraced);
}

// ---------------------------------------------------------------------------
// Plan and query integration.

TEST(ShardedPlanTest, ExecutorRoutesJoinAndAggregateThroughShards) {
  const auto tc = MidCase(17);

  const auto plan =
      core::Aggregate(core::Join(core::Scan(tc.t1), core::Scan(tc.t2), 4),
                      core::Scan(tc.t2), 1);
  core::Executor sharded_ex(ExecContext{});
  const core::PlanResult sharded = sharded_ex.Execute(plan);

  const auto plain_plan = core::Aggregate(
      core::Join(core::Scan(tc.t1), core::Scan(tc.t2)), core::Scan(tc.t2));
  core::Executor plain_ex(ExecContext{});
  const core::PlanResult plain = plain_ex.Execute(plain_plan);

  EXPECT_EQ(sharded.table.rows(), plain.table.rows());
  EXPECT_EQ(sharded.aggregate_rows, plain.aggregate_rows);

  // node_stats post-order: scan, scan, join, scan, aggregate.
  ASSERT_EQ(sharded_ex.node_stats().size(), 5u);
  EXPECT_EQ(sharded_ex.node_stats()[2].stats.op_shards, 4u);
  EXPECT_EQ(sharded_ex.node_stats()[4].stats.op_shards, 1u);

  const std::string annotated =
      core::ExplainPlan(plan, sharded_ex.node_stats());
  EXPECT_NE(annotated.find("shards=4"), std::string::npos) << annotated;
}

TEST(ShardedPlanTest, ContextKnobShardsPlanJoins) {
  const auto tc = MidCase(18);
  const auto plan = core::Join(core::Scan(tc.t1), core::Scan(tc.t2));
  core::Executor plain_ex(ExecContext{});
  const auto expected = plain_ex.Execute(plan).join_rows;

  core::Executor sharded_ex(ShardedCtx(4));
  const auto got = sharded_ex.Execute(plan).join_rows;
  EXPECT_EQ(got, expected);
  EXPECT_EQ(sharded_ex.node_stats().back().stats.op_shards, 4u);
}

TEST(ShardedQueryTest, CheckedQueryLowersShardOverride) {
  const auto tc = MidCase(19);
  typecheck::QueryCatalog catalog;
  catalog.tables["t1"] = tc.t1;
  catalog.tables["t2"] = tc.t2;

  typecheck::QueryInterpreter plain(catalog);
  const auto expected =
      plain.Run(typecheck::QJoin(typecheck::QScan("t1"),
                                 typecheck::QScan("t2")));

  typecheck::QueryInterpreter sharded(catalog);
  const auto query = typecheck::QJoin(typecheck::QScan("t1"),
                                      typecheck::QScan("t2"), /*shards=*/4);
  ASSERT_TRUE(sharded.Check(query).ok);
  const auto got = sharded.Run(query);
  EXPECT_EQ(got.join_rows, expected.join_rows);
  EXPECT_EQ(sharded.last_node_stats().back().stats.op_shards, 4u);
  EXPECT_EQ(sharded.last_plan()->shards, 4u);
}

}  // namespace
}  // namespace oblivdb
