// The plan layer (core/plan.h): every relational operator must be
// executable both directly and through an Executor over a plan tree, with
// byte-identical outputs, unchanged access traces per SortPolicy, and full
// per-node stats coverage through the ExecContext sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "core/aggregate.h"
#include "core/exec_context.h"
#include "core/join.h"
#include "core/multiway.h"
#include "core/operators.h"
#include "core/plan.h"
#include "memtrace/sinks.h"
#include "obliv/ct.h"
#include "workload/generators.h"

namespace oblivdb {
namespace {

using core::ExecContext;
using core::Executor;
using core::PlanPtr;
using core::PlanResult;

const obliv::SortPolicy kAllPolicies[] = {obliv::SortPolicy::kReference,
                                           obliv::SortPolicy::kBlocked};

Table SmallT1() {
  return Table("t1", {{1, 10}, {1, 11}, {2, 20}, {3, 30}, {3, 30}, {5, 50}});
}
Table SmallT2() {
  return Table("t2", {{1, 100}, {2, 200}, {2, 201}, {4, 400}});
}

uint64_t PayloadAtMost(const Record& r, uint64_t bound) {
  return ct::LeqMask(r.payload[0], bound);
}

// ---------------------------------------------------------------------------
// Plan-vs-direct output equivalence, one test per node type.

TEST(PlanEquivalenceTest, Scan) {
  const Table t = SmallT1();
  Executor ex({});
  const PlanResult r = ex.Execute(core::Scan(t));
  EXPECT_EQ(r.table.rows(), t.rows());
}

TEST(PlanEquivalenceTest, Select) {
  const Table t = SmallT1();
  auto pred = [](const Record& r) { return PayloadAtMost(r, 29); };
  Executor ex({});
  const PlanResult r = ex.Execute(core::Select(core::Scan(t), pred));
  EXPECT_EQ(r.table.rows(), core::ObliviousSelect(t, pred).rows());
}

TEST(PlanEquivalenceTest, Distinct) {
  Executor ex({});
  const PlanResult r = ex.Execute(core::Distinct(core::Scan(SmallT1())));
  EXPECT_EQ(r.table.rows(), core::ObliviousDistinct(SmallT1()).rows());
}

TEST(PlanEquivalenceTest, Join) {
  Executor ex({});
  const PlanResult r =
      ex.Execute(core::Join(core::Scan(SmallT1()), core::Scan(SmallT2())));
  const auto direct = core::ObliviousJoin(SmallT1(), SmallT2());
  EXPECT_EQ(r.join_rows, direct);
  // The packed table carries the first payload word of each side.
  ASSERT_EQ(r.table.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(r.table.rows()[i],
              (Record{direct[i].key,
                      {direct[i].payload1[0], direct[i].payload2[0]}}));
  }
}

TEST(PlanEquivalenceTest, SemiJoin) {
  Executor ex({});
  const PlanResult r =
      ex.Execute(core::SemiJoin(core::Scan(SmallT1()), core::Scan(SmallT2())));
  EXPECT_EQ(r.table.rows(), core::ObliviousSemiJoin(SmallT1(), SmallT2()).rows());
}

TEST(PlanEquivalenceTest, AntiJoin) {
  Executor ex({});
  const PlanResult r =
      ex.Execute(core::AntiJoin(core::Scan(SmallT1()), core::Scan(SmallT2())));
  EXPECT_EQ(r.table.rows(), core::ObliviousAntiJoin(SmallT1(), SmallT2()).rows());
}

TEST(PlanEquivalenceTest, Aggregate) {
  Executor ex({});
  const PlanResult r = ex.Execute(
      core::Aggregate(core::Scan(SmallT1()), core::Scan(SmallT2())));
  const auto direct = core::ObliviousJoinAggregate(SmallT1(), SmallT2());
  EXPECT_EQ(r.aggregate_rows, direct);
  ASSERT_EQ(r.table.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(r.table.rows()[i],
              (Record{direct[i].key, {direct[i].count, direct[i].sum_d1}}));
  }
}

TEST(PlanEquivalenceTest, Union) {
  Executor ex({});
  const PlanResult r =
      ex.Execute(core::Union(core::Scan(SmallT1()), core::Scan(SmallT2())));
  EXPECT_EQ(r.table.rows(), core::ObliviousUnion(SmallT1(), SmallT2()).rows());
}

TEST(PlanEquivalenceTest, MultiwayJoin) {
  const Table t3("t3", {{1, 7}, {2, 8}, {2, 9}});
  Executor ex({});
  const PlanResult r = ex.Execute(core::MultiwayJoin(
      {core::Scan(SmallT1()), core::Scan(SmallT2()), core::Scan(t3)}));
  EXPECT_EQ(r.table.rows(),
            core::ObliviousMultiwayJoin({SmallT1(), SmallT2(), t3}).rows());
}

// A composite plan against the nested direct calls, across every policy.
TEST(PlanEquivalenceTest, CompositePlanAllPolicies) {
  const auto tc = workload::PowerLaw(48, 2.0, 11);
  auto pred = [](const Record& r) { return PayloadAtMost(r, 1u << 30); };
  for (const obliv::SortPolicy policy : kAllPolicies) {
    ExecContext ctx;
    ctx.sort_policy = policy;
    Executor ex(ctx);
    const PlanResult r = ex.Execute(core::Distinct(core::SemiJoin(
        core::Select(core::Scan(tc.t1), pred), core::Scan(tc.t2))));
    const Table direct = core::ObliviousDistinct(
        core::ObliviousSemiJoin(core::ObliviousSelect(tc.t1, pred, ctx),
                                tc.t2, ctx),
        ctx);
    EXPECT_EQ(r.table.rows(), direct.rows());
  }
}

// ---------------------------------------------------------------------------
// Traces.

// Plan execution must add no public-memory accesses of its own: the full
// log of an Executor run equals the log of the direct call sequence.
TEST(PlanTraceTest, PlanTraceEqualsDirectCallTrace) {
  const auto tc = workload::WithOutputSize(16, 4, 0, 3);

  memtrace::VectorTraceSink plan_sink;
  {
    ExecContext ctx;
    ctx.trace_sink = &plan_sink;
    Executor ex(ctx);
    (void)ex.Execute(
        core::Distinct(core::Join(core::Scan(tc.t1), core::Scan(tc.t2))));
  }

  memtrace::VectorTraceSink direct_sink;
  {
    memtrace::TraceScope scope(&direct_sink);
    const auto joined = core::ObliviousJoin(tc.t1, tc.t2);
    Table packed("join");
    for (const auto& r : joined) {
      packed.rows().push_back(Record{r.key, {r.payload1[0], r.payload2[0]}});
    }
    (void)core::ObliviousDistinct(packed);
  }

  EXPECT_GT(plan_sink.events().size(), 0u);
  EXPECT_TRUE(plan_sink.SameTraceAs(direct_sink));
}

// §6.1 experiment at plan granularity: a 3-node plan's hashed trace is a
// function of the public sizes only (same class -> same hash), for every
// sort policy.
TEST(PlanTraceTest, ThreeNodePlanTraceDataIndependent) {
  for (const obliv::SortPolicy policy : kAllPolicies) {
    std::string first;
    for (uint64_t v = 0; v < 4; ++v) {
      const auto tc = workload::WithOutputSize(24, 6, v, v * 13 + 5);
      memtrace::HashTraceSink sink;
      ExecContext ctx;
      ctx.sort_policy = policy;
      ctx.trace_sink = &sink;
      Executor ex(ctx);
      (void)ex.Execute(core::Join(core::Scan(tc.t1), core::Scan(tc.t2)));
      if (v == 0) {
        first = sink.HexDigest();
      } else {
        EXPECT_EQ(sink.HexDigest(), first) << tc.name;
      }
    }
  }
}

TEST(PlanTraceTest, DifferentOutputSizeDifferentTrace) {
  auto hash_of = [](const workload::TestCase& tc) {
    memtrace::HashTraceSink sink;
    ExecContext ctx;
    ctx.trace_sink = &sink;
    Executor ex(ctx);
    (void)ex.Execute(core::Join(core::Scan(tc.t1), core::Scan(tc.t2)));
    return sink.HexDigest();
  };
  EXPECT_NE(hash_of(workload::WithOutputSize(32, 8, 0, 1)),
            hash_of(workload::WithOutputSize(32, 7, 0, 1)));
}

// ---------------------------------------------------------------------------
// Stats coverage through the ExecContext sink.

TEST(PlanStatsTest, EveryOperatorReportsNonZeroCounters) {
  const auto tc = workload::PowerLaw(32, 2.0, 3);
  core::CollectingStatsSink sink;
  ExecContext ctx;
  ctx.stats_sink = &sink;

  (void)core::ObliviousDistinct(tc.t1, ctx);
  (void)core::ObliviousSemiJoin(tc.t1, tc.t2, ctx);
  (void)core::ObliviousAntiJoin(tc.t1, tc.t2, ctx);
  (void)core::ObliviousJoinAggregate(tc.t1, tc.t2, ctx);

  ASSERT_EQ(sink.reports().size(), 4u);
  EXPECT_EQ(sink.reports()[0].op, "distinct");
  EXPECT_EQ(sink.reports()[1].op, "semijoin");
  EXPECT_EQ(sink.reports()[2].op, "antijoin");
  EXPECT_EQ(sink.reports()[3].op, "aggregate");
  for (const auto& report : sink.reports()) {
    EXPECT_GT(report.stats.op_sort_comparisons, 0u) << report.op;
    EXPECT_GT(report.stats.op_route_ops, 0u) << report.op;
    EXPECT_GT(report.stats.TotalComparisons(), 0u) << report.op;
  }
  EXPECT_GT(sink.TotalComparisons(), 0u);
}

TEST(PlanStatsTest, JoinReportsThroughSink) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  core::CollectingStatsSink sink;
  ExecContext ctx;
  ctx.stats_sink = &sink;
  (void)core::ObliviousJoin(tc.t1, tc.t2, ctx);
  ASSERT_EQ(sink.reports().size(), 1u);
  EXPECT_EQ(sink.reports()[0].op, "join");
  EXPECT_GT(sink.reports()[0].stats.augment_sort_comparisons, 0u);
}

TEST(PlanStatsTest, ExecutorAggregatesPerNode) {
  const auto tc = workload::PowerLaw(32, 2.0, 5);
  Executor ex({});
  (void)ex.Execute(
      core::Distinct(core::Join(core::Scan(tc.t1), core::Scan(tc.t2))));

  // Post-order: the two scans, the join, the distinct.
  ASSERT_EQ(ex.node_stats().size(), 4u);
  EXPECT_EQ(ex.node_stats()[0].op, core::PlanOp::kScan);
  EXPECT_EQ(ex.node_stats()[1].op, core::PlanOp::kScan);
  EXPECT_EQ(ex.node_stats()[2].op, core::PlanOp::kJoin);
  EXPECT_EQ(ex.node_stats()[3].op, core::PlanOp::kDistinct);
  EXPECT_EQ(ex.node_stats()[0].output_rows, tc.t1.size());
  EXPECT_GT(ex.node_stats()[2].stats.TotalComparisons(), 0u);
  EXPECT_GT(ex.node_stats()[3].stats.op_sort_comparisons, 0u);
  EXPECT_GT(ex.TotalComparisons(), 0u);
}

// A multiway node's stats must cover the whole cascade, not just the last
// binary join (counters sum over steps).
TEST(PlanStatsTest, MultiwayNodeAccumulatesAllCascadeSteps) {
  const Table t3("t3", {{1, 7}, {2, 8}, {2, 9}});
  core::JoinStats first_step;
  ExecContext ctx;
  ctx.stats = &first_step;
  (void)core::ObliviousJoin(SmallT1(), SmallT2(), ctx);

  Executor ex({});
  (void)ex.Execute(core::MultiwayJoin(
      {core::Scan(SmallT1()), core::Scan(SmallT2()), core::Scan(t3)}));
  const core::PlanNodeStats& multiway = ex.node_stats().back();
  ASSERT_EQ(multiway.op, core::PlanOp::kMultiwayJoin);
  EXPECT_GT(multiway.stats.TotalComparisons(), first_step.TotalComparisons());
}

TEST(PlanStatsTest, RootStatsOutParameter) {
  core::JoinStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  Executor ex(ctx);
  (void)ex.Execute(core::Join(core::Scan(SmallT1()), core::Scan(SmallT2())));
  EXPECT_EQ(stats.n1, SmallT1().size());
  EXPECT_EQ(stats.n2, SmallT2().size());
  EXPECT_GT(stats.TotalComparisons(), 0u);
}

// ---------------------------------------------------------------------------
// Explain.

TEST(PlanExplainTest, RendersTree) {
  const std::string plan = core::ExplainPlan(
      core::Distinct(core::Join(core::Scan(SmallT1()), core::Scan(SmallT2()))));
  EXPECT_EQ(plan,
            "distinct\n"
            "  join\n"
            "    scan(t1)\n"
            "    scan(t2)\n");
}

// The annotated overload renders each node's revealed output size; a node
// whose sorts all ran (no elision, no faults) carries no other
// marker.
TEST(PlanExplainTest, AnnotatedExplainShowsRevealedSizes) {
  const PlanPtr plan =
      core::Distinct(core::Join(core::Scan(SmallT1()), core::Scan(SmallT2())));
  ExecContext ctx;
  Executor ex(ctx);
  (void)ex.Execute(plan);

  // Post-order: scan(t1), scan(t2), join, distinct.
  const std::string annotated = core::ExplainPlan(plan, ex.node_stats());
  const std::string expected =
      "distinct [rows=" + std::to_string(ex.node_stats()[3].output_rows) +
      "]\n"
      "  join [rows=" + std::to_string(ex.node_stats()[2].output_rows) +
      "]\n"
      "    scan(t1) [rows=6]\n"
      "    scan(t2) [rows=4]\n";
  EXPECT_EQ(annotated, expected);
}

// ---------------------------------------------------------------------------
// Order propagation and sort elision (core/order.h).

// Rows with a *fixed* key structure (keys repeat — Distinct has work to do,
// joins have non-trivial groups) and variant-dependent payloads that keep
// every row distinct.  Two variants therefore share every revealed size
// (n, distinct counts, m, group counts) — the same trace class.
Table StructuredTable(const std::string& name, size_t n, uint64_t key_range,
                      uint64_t variant) {
  Table t(name);
  uint64_t state = 0x5eed + key_range;  // key sequence independent of variant
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = SplitMix64(state) % key_range;
    t.rows().push_back(
        Record{key, {1000 * variant + 7 * i, variant + (i % 3)}});
  }
  return t;
}

// The chained shape of the ISSUE's headline case: Distinct feeds a Join
// feeds an Aggregate.  Under order propagation the join's Augment entry
// sort and the aggregate's union sort both collapse to run merges.
PlanPtr ChainedPlan(const Table& t1, const Table& t2, const Table& t3) {
  return core::Aggregate(core::Join(core::Distinct(core::Scan(t1)),
                                    core::Distinct(core::Scan(t2))),
                         core::Distinct(core::Scan(t3)));
}

const core::PlanNodeStats& NodeStatsFor(const Executor& ex, core::PlanOp op) {
  for (const core::PlanNodeStats& s : ex.node_stats()) {
    if (s.op == op) return s;
  }
  ADD_FAILURE() << "no node of op " << core::PlanOpName(op);
  static core::PlanNodeStats empty;
  return empty;
}

// (a) Byte-identical outputs with elision on vs. off, across every
// SortPolicy tier — for the chained Distinct→Join→Aggregate plan and for a
// semi/anti composite whose outer Distinct elides its sort entirely.
TEST(PlanElisionTest, OnOffByteIdenticalAcrossPolicies) {
  const Table t1 = StructuredTable("t1", 40, 11, 1);
  const Table t2 = StructuredTable("t2", 30, 11, 2);
  const Table t3 = StructuredTable("t3", 20, 11, 3);
  for (const obliv::SortPolicy policy : kAllPolicies) {
    ExecContext on;
    on.sort_policy = policy;
    on.sort_elision = true;
    ExecContext off = on;
    off.sort_elision = false;

    Executor ex_on(on);
    Executor ex_off(off);
    const PlanPtr chained = ChainedPlan(t1, t2, t3);
    const PlanResult r_on = ex_on.Execute(chained);
    const PlanResult r_off = ex_off.Execute(chained);
    EXPECT_EQ(r_on.table.rows(), r_off.table.rows());
    EXPECT_EQ(r_on.aggregate_rows, r_off.aggregate_rows);
    // The elision-on run really elided at the join and the aggregate.
    EXPECT_GE(NodeStatsFor(ex_on, core::PlanOp::kJoin).stats.op_sorts_elided,
              1u);
    EXPECT_GE(
        NodeStatsFor(ex_on, core::PlanOp::kAggregate).stats.op_sorts_elided,
        1u);
    EXPECT_EQ(NodeStatsFor(ex_off, core::PlanOp::kJoin).stats.op_sorts_elided,
              0u);

    const PlanPtr composite = core::Distinct(core::AntiJoin(
        core::Distinct(core::Scan(t1)), core::Distinct(core::Scan(t2))));
    Executor cx_on(on);
    Executor cx_off(off);
    EXPECT_EQ(cx_on.Execute(composite).table.rows(),
              cx_off.Execute(composite).table.rows());
    // Anti-join entry sort merged; outer distinct skipped outright.
    EXPECT_EQ(
        NodeStatsFor(cx_on, core::PlanOp::kAntiJoin).stats.op_sorts_elided,
        1u);
    EXPECT_EQ(cx_on.node_stats().back().stats.op_sorts_elided, 1u);
    EXPECT_EQ(cx_on.node_stats().back().stats.op_sort_comparisons, 0u);
  }
}

// (b) Traces stay data-independent with elision on: same plan shape and
// sizes, different row contents -> identical hashed trace.
TEST(PlanElisionTest, TraceDataIndependentWithElisionOn) {
  std::string first;
  for (uint64_t variant = 0; variant < 4; ++variant) {
    const Table t1 = StructuredTable("t1", 24, 7, variant);
    const Table t2 = StructuredTable("t2", 18, 7, variant * 31 + 5);
    memtrace::HashTraceSink sink;
    ExecContext ctx;
    ctx.sort_elision = true;
    ctx.trace_sink = &sink;
    Executor ex(ctx);
    (void)ex.Execute(core::Join(core::Distinct(core::Scan(t1)),
                                core::Distinct(core::Scan(t2))));
    if (variant == 0) {
      first = sink.HexDigest();
    } else {
      EXPECT_EQ(sink.HexDigest(), first) << "variant " << variant;
    }
  }
}

// (c) Elision decisions are a function of plan shape and sizes alone:
// different data of the same shape produce the same per-node elision
// counts.
TEST(PlanElisionTest, DecisionsIdenticalAcrossDataOfSamePlan) {
  auto elisions_of = [](uint64_t variant) {
    const Table t1 = StructuredTable("t1", 32, 9, variant);
    const Table t2 = StructuredTable("t2", 24, 9, variant * 17 + 3);
    const Table t3 = StructuredTable("t3", 16, 9, variant * 29 + 11);
    ExecContext ctx;
    ctx.sort_elision = true;
    Executor ex(ctx);
    (void)ex.Execute(ChainedPlan(t1, t2, t3));
    std::vector<uint64_t> counts;
    for (const core::PlanNodeStats& s : ex.node_stats()) {
      counts.push_back(s.stats.op_sorts_elided);
    }
    return counts;
  };
  const std::vector<uint64_t> first = elisions_of(0);
  EXPECT_GT(std::count_if(first.begin(), first.end(),
                          [](uint64_t c) { return c > 0; }),
            0);
  EXPECT_EQ(elisions_of(1), first);
  EXPECT_EQ(elisions_of(2), first);
}

// A declared scan order is the client's promise; a key-unique declared
// order on one join side elides both the Augment entry sort and the full
// m-sized Align sort.
TEST(PlanElisionTest, DeclaredKeyUniqueScanElidesAugmentAndAlign) {
  // The covered run must dominate the union for the entry-sort merge to
  // pay under the cost model (RunMergePays): sorting a 48-row uncovered
  // run plus a 64-row merge would cost more than one full 64-row sort, so
  // the dimension table carries 48 of the 64 rows here.
  Table dims("dims");
  for (uint64_t k = 0; k < 48; ++k) {
    dims.rows().push_back(Record{k, {100 + k, 0}});  // key-sorted, unique
  }
  const Table facts = StructuredTable("facts", 16, 16, 5);

  const PlanPtr plan = core::Join(
      core::Scan(dims, core::OrderSpec::ByKey(/*key_unique=*/true)),
      core::Scan(facts));
  ExecContext on;
  on.sort_elision = true;
  ExecContext off = on;
  off.sort_elision = false;
  Executor ex_on(on);
  Executor ex_off(off);
  const PlanResult r_on = ex_on.Execute(plan);
  const PlanResult r_off = ex_off.Execute(plan);
  EXPECT_EQ(r_on.join_rows, r_off.join_rows);
  EXPECT_EQ(r_on.table.rows(), r_off.table.rows());

  const core::PlanNodeStats& join = NodeStatsFor(ex_on, core::PlanOp::kJoin);
  EXPECT_EQ(join.stats.op_sorts_elided, 2u);       // entry sort + align sort
  EXPECT_EQ(join.stats.align_sort_comparisons, 0u);
  EXPECT_GT(
      NodeStatsFor(ex_off, core::PlanOp::kJoin).stats.align_sort_comparisons,
      0u);
}

// Cascade interiors always feed key-sorted join output forward, so a
// multiway node elides even when every base input is unordered.
TEST(PlanElisionTest, MultiwayCascadeElidesInteriorEntrySorts) {
  const Table t3("t3", {{1, 7}, {2, 8}, {2, 9}});
  ExecContext ctx;
  ctx.sort_elision = true;
  Executor ex(ctx);
  const PlanResult r = ex.Execute(core::MultiwayJoin(
      {core::Scan(SmallT1()), core::Scan(SmallT2()), core::Scan(t3)}));
  EXPECT_GE(ex.node_stats().back().stats.op_sorts_elided, 1u);

  ExecContext off;
  off.sort_elision = false;
  Executor ex_off(off);
  EXPECT_EQ(r.table.rows(),
            ex_off
                .Execute(core::MultiwayJoin({core::Scan(SmallT1()),
                                             core::Scan(SmallT2()),
                                             core::Scan(t3)}))
                .table.rows());
}

// ProducedOrder: the bottom-up propagation rules.
TEST(PlanOrderTest, ProducedOrderPropagation) {
  const PlanPtr scan = core::Scan(SmallT1());
  EXPECT_TRUE(core::ProducedOrder(scan).IsNone());

  const PlanPtr declared =
      core::Scan(SmallT1(), core::OrderSpec::ByKeyData());
  EXPECT_EQ(core::ProducedOrder(declared), core::OrderSpec::ByKeyData());

  const PlanPtr distinct = core::Distinct(scan);
  EXPECT_EQ(core::ProducedOrder(distinct), core::OrderSpec::ByKeyData());

  auto pred = [](const Record& r) { return PayloadAtMost(r, 1); };
  EXPECT_EQ(core::ProducedOrder(core::Select(distinct, pred)),
            core::OrderSpec::ByKeyData());

  const PlanPtr join = core::Join(distinct, core::Scan(SmallT2()));
  EXPECT_EQ(core::ProducedOrder(join), core::OrderSpec::ByKey());
  EXPECT_FALSE(core::ProducedOrder(join).key_unique);

  const PlanPtr agg = core::Aggregate(scan, core::Scan(SmallT2()));
  EXPECT_TRUE(core::ProducedOrder(agg).key_unique);
  // Keyness makes plain by-key cover the full (j, d) refinement.
  EXPECT_TRUE(
      core::ProducedOrder(agg).Covers(core::OrderSpec::ByKeyData()));

  EXPECT_TRUE(
      core::ProducedOrder(core::Union(distinct, distinct)).IsNone());
}

// Distinct over an aggregate (key-unique producer) skips its sort via the
// keyness-covers rule, end to end.
TEST(PlanElisionTest, DistinctOverAggregateElides) {
  const PlanPtr plan = core::Distinct(
      core::Aggregate(core::Scan(SmallT1()), core::Scan(SmallT2())));
  // Pin the optimizer off: this test exercises the *operator-level* elision
  // inside the distinct, and the optimizer would remove the redundant
  // distinct node outright (tests/optimizer_test.cc pins that rewrite).
  ExecContext on;
  on.optimize = false;
  on.sort_elision = true;
  Executor ex(on);
  const PlanResult r = ex.Execute(plan);
  EXPECT_EQ(ex.node_stats().back().stats.op_sorts_elided, 1u);

  ExecContext off;
  off.optimize = false;
  off.sort_elision = false;
  Executor ex_off(off);
  EXPECT_EQ(r.table.rows(), ex_off.Execute(plan).table.rows());
}

// The annotated explain renders elisions as `sort=elided`, both on a node
// that still ran other sorts and on one whose only sort was skipped.
TEST(PlanExplainTest, AnnotatedExplainShowsElision) {
  const PlanPtr plan = core::Join(core::Distinct(core::Scan(SmallT1())),
                                  core::Distinct(core::Scan(SmallT2())));
  // Pin the optimizer off: the Distinct(Distinct(...)) shape below is
  // exactly what its idempotence rule collapses, and the annotated explain
  // must be rendered against the tree that actually executed.
  ExecContext ctx;
  ctx.optimize = false;
  ctx.sort_elision = true;
  Executor ex(ctx);
  (void)ex.Execute(plan);
  const std::string annotated = core::ExplainPlan(plan, ex.node_stats());
  // The join merged its entry sort away but still ran expand/align sorts.
  const size_t join_at = annotated.find("join [rows=");
  ASSERT_NE(join_at, std::string::npos);
  const std::string join_line =
      annotated.substr(join_at, annotated.find('\n', join_at) - join_at);
  EXPECT_NE(join_line.find(" sort=elided"), std::string::npos);

  const PlanPtr skip = core::Distinct(core::Distinct(core::Scan(SmallT1())));
  Executor ex2(ctx);
  (void)ex2.Execute(skip);
  const std::string skip_annotated = core::ExplainPlan(skip, ex2.node_stats());
  const std::string outer_line = skip_annotated.substr(
      0, skip_annotated.find('\n'));
  EXPECT_NE(outer_line.find("sort=elided"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pool width: knobs change speed only.

// Every sort and run merge of at least obliv::internal::kParallelCutoff
// elements fans out on a pool wider than one worker (traced, up to
// obliv::internal::kMaxTracedFanOut).  At 2^13 rows the join, aggregate
// and distinct plans' sorts and merges all do, so for every policy the
// root output bytes, the elided-sort count and the trace must be the same
// at widths 1, 2 and 4.  The trace is compared by memtrace::DigestTraceSink,
// since the per-event SHA-256 of HashTraceSink is too slow for these plans.
TEST(PlanPoolWidthTest, OutputTraceAndElisionIdenticalAcrossWidths) {
  constexpr size_t kRows = size_t{1} << 13;
  static_assert(kRows >= obliv::internal::kParallelCutoff);
  const Table t1 = StructuredTable("t1", kRows, kRows / 2, 1);
  const Table t2 = StructuredTable("t2", kRows / 2, kRows / 2, 2);
  const Table t3 = StructuredTable("t3", kRows / 2, kRows / 2, 3);
  // The join's union reaches the cutoff while its uncovered run does not:
  // the run-merge elision decision must not depend on the width either.
  const Table s1 = StructuredTable("s1", kRows / 4, kRows / 8, 4);
  const Table s2 = StructuredTable("s2", kRows / 4, kRows / 8, 5);
  const std::pair<const char*, PlanPtr> plans[] = {
      {"join", core::Join(core::Distinct(core::Scan(t1)), core::Scan(t2))},
      {"small_join",
       core::Join(core::Distinct(core::Scan(s1)), core::Scan(s2))},
      {"aggregate", core::Aggregate(core::Distinct(core::Scan(t1)),
                                    core::Distinct(core::Scan(t3)))},
      {"distinct", core::Distinct(core::Scan(t1))},
  };
  struct Run {
    PlanResult result;
    uint64_t trace = 0;
    uint64_t sorts_elided = 0;
  };
  ThreadPool width1(1), width2(2), width4(4);
  for (const obliv::SortPolicy policy : kAllPolicies) {
    for (const auto& [name, plan] : plans) {
      std::optional<Run> sequential;
      for (ThreadPool* pool : {&width1, &width2, &width4}) {
        memtrace::DigestTraceSink sink;
        ExecContext ctx;
        ctx.sort_policy = policy;
        ctx.pool = pool;
        ctx.trace_sink = &sink;
        Executor ex(ctx);
        Run run{ex.Execute(plan), 0, 0};
        run.trace = sink.digest();
        for (const core::PlanNodeStats& s : ex.node_stats()) {
          run.sorts_elided += s.stats.op_sorts_elided;
        }
        if (!sequential) {
          sequential = std::move(run);
          continue;
        }
        const std::string where = std::string(name) + " " +
                                  obliv::SortPolicyName(policy) + " width " +
                                  std::to_string(pool->worker_count());
        EXPECT_EQ(run.result.table.rows(), sequential->result.table.rows())
            << where;
        EXPECT_EQ(run.result.join_rows, sequential->result.join_rows) << where;
        EXPECT_EQ(run.result.aggregate_rows,
                  sequential->result.aggregate_rows)
            << where;
        EXPECT_EQ(run.trace, sequential->trace) << where;
        EXPECT_EQ(run.sorts_elided, sequential->sorts_elided) << where;
      }
    }
  }
}

}  // namespace
}  // namespace oblivdb
