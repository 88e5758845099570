// The cost-based plan optimizer (core/optimizer.h): every rewrite must be
// a pure function of (plan shape, public sizes, public flags), keep the
// root Table output byte-identical to the unoptimized plan under every
// SortPolicy x sort_elision setting, leave unrewritable plans
// pointer-identical, and surface its decisions through op_rewrites, the
// annotated ExplainPlan, and the cost-annotated ExplainPlanWithCosts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bits.h"
#include "core/exec_context.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "obliv/ct.h"

namespace oblivdb {
namespace {

using core::EstimateRows;
using core::ExecContext;
using core::Executor;
using core::OptimizePlan;
using core::PlanOp;
using core::PlanPtr;
using core::PlanResult;

const obliv::SortPolicy kAllPolicies[] = {obliv::SortPolicy::kReference,
                                           obliv::SortPolicy::kBlocked};

// Multi-group tables with keys in [0, key_range): joins have real groups,
// distincts have duplicates, and `variant` moves only payload contents —
// two variants share every public size (the same trace/decision class).
Table FactTable(const std::string& name, size_t n, uint64_t key_range,
                uint64_t variant) {
  Table t(name);
  uint64_t state = 0xfac7 + key_range;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = SplitMix64(state) % key_range;
    t.rows().push_back(Record{key, {1000 * variant + 3 * i, variant + i % 2}});
  }
  return t;
}

// Sorted unique keys [0, n): a declarable key-unique dimension table.
Table DimTable(const std::string& name, size_t n, uint64_t variant) {
  Table t(name);
  for (uint64_t k = 0; k < n; ++k) {
    t.rows().push_back(Record{k, {500 * variant + k, variant}});
  }
  return t;
}

PlanPtr KeyUniqueScan(Table t) {
  return core::Scan(std::move(t), core::OrderSpec::ByKey(/*key_unique=*/true));
}

uint64_t KeyBelow(const Record& r, uint64_t bound) {
  return ct::LeqMask(r.key + 1, bound);
}

// Executes `plan` optimized and unoptimized under `base` and expects
// byte-identical root tables.  PlanResult::join_rows / aggregate_rows are
// deliberately not compared: pushing a select below a root join changes
// which node is the root, so those side-channels legitimately move.
void ExpectByteEqual(const PlanPtr& plan, ExecContext base) {
  base.optimize = true;
  Executor opt(base);
  const PlanResult r_opt = opt.Execute(plan);
  base.optimize = false;
  Executor raw(base);
  const PlanResult r_raw = raw.Execute(plan);
  EXPECT_EQ(r_opt.table.rows(), r_raw.table.rows());
}

// ---------------------------------------------------------------------------
// EstimateRows: the size-propagation rules.

TEST(EstimateRowsTest, ShapeRules) {
  const PlanPtr fact = core::Scan(FactTable("f", 40, 8, 1));
  const PlanPtr dim = KeyUniqueScan(DimTable("d", 8, 1));
  EXPECT_EQ(EstimateRows(fact), 40u);
  EXPECT_EQ(EstimateRows(dim), 8u);
  // Select/distinct pass through; a key-unique side bounds the join by the
  // other side; both unique takes the min; neither takes the max.
  auto pred = [](const Record& r) { return KeyBelow(r, 4); };
  EXPECT_EQ(EstimateRows(core::Select(fact, pred, /*key_only=*/true)), 40u);
  EXPECT_EQ(EstimateRows(core::Distinct(fact)), 40u);
  EXPECT_EQ(EstimateRows(core::Join(fact, dim)), 40u);
  EXPECT_EQ(EstimateRows(core::Join(dim, dim)), 8u);
  EXPECT_EQ(EstimateRows(core::Join(fact, fact)), 40u);
  EXPECT_EQ(EstimateRows(core::SemiJoin(fact, dim)), 40u);
  EXPECT_EQ(EstimateRows(core::Aggregate(fact, dim)), 8u);
  EXPECT_EQ(EstimateRows(core::Union(fact, dim)), 48u);
}

// ---------------------------------------------------------------------------
// Pointer identity: plans with nothing to rewrite pass through untouched.

TEST(OptimizerTest, UnrewritablePlanIsPointerIdentical) {
  // Non-key-only select over a join (cannot push), distinct over a
  // non-key-unique input (cannot eliminate), 3-input multiway (no middle
  // pair to reorder): no rule fires anywhere.
  auto pred = [](const Record& r) { return KeyBelow(r, 5); };
  const PlanPtr plan = core::Select(
      core::Distinct(core::Join(core::Scan(FactTable("a", 24, 6, 1)),
                                core::Scan(FactTable("b", 18, 6, 2)))),
      pred, /*key_only=*/false);
  EXPECT_EQ(OptimizePlan(plan, {}), plan);

  const PlanPtr multiway3 = core::MultiwayJoin(
      {KeyUniqueScan(DimTable("d1", 8, 1)), KeyUniqueScan(DimTable("d2", 4, 1)),
       KeyUniqueScan(DimTable("d3", 6, 1))});
  EXPECT_EQ(OptimizePlan(multiway3, {}), multiway3);

  // Non-key-unique middles pin a 4-input multiway even when sizes are
  // skewed.
  const PlanPtr multiway4 = core::MultiwayJoin(
      {core::Scan(FactTable("m1", 30, 6, 1)), core::Scan(FactTable("m2", 20, 6, 2)),
       core::Scan(FactTable("m3", 10, 6, 3)), core::Scan(FactTable("m4", 25, 6, 4))});
  EXPECT_EQ(OptimizePlan(multiway4, {}), multiway4);

  // And the Executor reflects it: optimize off executes the plan itself.
  ExecContext off;
  off.optimize = false;
  Executor ex(off);
  (void)ex.Execute(plan);
  EXPECT_EQ(ex.executed_plan(), plan);
}

// ---------------------------------------------------------------------------
// R3: distinct simplification.

TEST(OptimizerTest, DistinctIdempotenceCollapses) {
  const PlanPtr plan =
      core::Distinct(core::Distinct(core::Scan(FactTable("t", 20, 5, 1))));
  const PlanPtr opt = OptimizePlan(plan, {});
  ASSERT_EQ(opt->op, PlanOp::kDistinct);
  EXPECT_EQ(opt->inputs[0]->op, PlanOp::kScan);
  EXPECT_GE(opt->rewrites, 1u);
  ExpectByteEqual(plan, {});
}

TEST(OptimizerTest, DistinctOverKeyUniqueCoveredInputEliminated) {
  // Aggregate output is key-unique and key-sorted: covers ByKeyData, so
  // the distinct is the identity and disappears.
  const PlanPtr plan =
      core::Distinct(core::Aggregate(core::Scan(FactTable("a", 24, 6, 1)),
                                     core::Scan(FactTable("b", 18, 6, 2))));
  const PlanPtr opt = OptimizePlan(plan, {});
  EXPECT_EQ(opt->op, PlanOp::kAggregate);
  EXPECT_GE(opt->rewrites, 1u);
  ExpectByteEqual(plan, {});
}

// ---------------------------------------------------------------------------
// R2: key-only select pushdown.

TEST(OptimizerTest, KeyOnlySelectPushesBelowJoin) {
  auto pred = [](const Record& r) { return KeyBelow(r, 4); };
  const PlanPtr plan = core::Select(
      core::Join(core::Scan(FactTable("a", 40, 8, 1)),
                 core::Scan(FactTable("b", 30, 8, 2))),
      pred, /*key_only=*/true);
  const PlanPtr opt = OptimizePlan(plan, {});
  // The select vanished into both join inputs.
  ASSERT_EQ(opt->op, PlanOp::kJoin);
  EXPECT_EQ(opt->inputs[0]->op, PlanOp::kSelect);
  EXPECT_EQ(opt->inputs[1]->op, PlanOp::kSelect);
  EXPECT_TRUE(opt->inputs[0]->key_only);
  EXPECT_GE(opt->rewrites, 1u);
  ExpectByteEqual(plan, {});
}

TEST(OptimizerTest, KeyOnlySelectPushesBelowEveryCommutingOperator) {
  auto pred = [](const Record& r) { return KeyBelow(r, 4); };
  const auto make_a = [] { return core::Scan(FactTable("a", 32, 8, 1)); };
  const auto make_b = [] { return core::Scan(FactTable("b", 24, 8, 2)); };
  const std::vector<PlanPtr> children = {
      core::Join(make_a(), make_b()),
      core::SemiJoin(make_a(), make_b()),
      core::AntiJoin(make_a(), make_b()),
      core::Aggregate(make_a(), make_b()),
      core::Union(make_a(), make_b()),
      core::Distinct(make_a()),
      core::MultiwayJoin({make_a(), make_b(), make_a()}),
  };
  for (const PlanPtr& child : children) {
    const PlanPtr plan = core::Select(child, pred, /*key_only=*/true);
    const PlanPtr opt = OptimizePlan(plan, {});
    EXPECT_EQ(opt->op, child->op) << core::ExplainPlan(plan);
    ExpectByteEqual(plan, {});
  }
}

TEST(OptimizerTest, SelectSinksThroughStackedOperators) {
  // Select over a join of a distinct and a union: the pushed copies keep
  // sinking below their new children.
  auto pred = [](const Record& r) { return KeyBelow(r, 5); };
  const PlanPtr plan = core::Select(
      core::Join(core::Distinct(core::Scan(FactTable("a", 28, 7, 1))),
                 core::Union(core::Scan(FactTable("b", 20, 7, 2)),
                             core::Scan(FactTable("c", 12, 7, 3)))),
      pred, /*key_only=*/true);
  const PlanPtr opt = OptimizePlan(plan, {});
  ASSERT_EQ(opt->op, PlanOp::kJoin);
  // Left: distinct with the select inside; right: union with the select
  // inside both branches.
  ASSERT_EQ(opt->inputs[0]->op, PlanOp::kDistinct);
  EXPECT_EQ(opt->inputs[0]->inputs[0]->op, PlanOp::kSelect);
  ASSERT_EQ(opt->inputs[1]->op, PlanOp::kUnion);
  EXPECT_EQ(opt->inputs[1]->inputs[0]->op, PlanOp::kSelect);
  EXPECT_EQ(opt->inputs[1]->inputs[1]->op, PlanOp::kSelect);
  ExpectByteEqual(plan, {});
}

// ---------------------------------------------------------------------------
// R1: multiway middle reordering.

PlanPtr SkewedMultiway(uint64_t variant) {
  // First and last pinned (they contribute the packed payload words); the
  // key-unique middles arrive big-before-small, exactly backwards.
  return core::MultiwayJoin({
      core::Scan(FactTable("factA", 48, 12, variant)),
      KeyUniqueScan(DimTable("dimBig", 40, variant)),
      KeyUniqueScan(DimTable("dimSmall", 12, variant)),
      core::Scan(FactTable("factB", 32, 12, variant + 10)),
  });
}

TEST(OptimizerTest, MultiwayMiddlesReorderedByEstimatedRows) {
  const PlanPtr plan = SkewedMultiway(1);
  const PlanPtr opt = OptimizePlan(plan, {});
  ASSERT_EQ(opt->op, PlanOp::kMultiwayJoin);
  ASSERT_EQ(opt->inputs.size(), 4u);
  EXPECT_EQ(opt->inputs[0]->label, "factA");
  EXPECT_EQ(opt->inputs[1]->label, "dimSmall");  // moved ahead of dimBig
  EXPECT_EQ(opt->inputs[2]->label, "dimBig");
  EXPECT_EQ(opt->inputs[3]->label, "factB");
  EXPECT_GE(opt->rewrites, 1u);
  ExpectByteEqual(plan, {});
}

// ---------------------------------------------------------------------------
// Determinism: the chosen plan is a function of public sizes only.

TEST(OptimizerTest, ChosenPlanIdenticalAcrossDataOfSameSizes) {
  // Same table names and sizes, different contents (variant moves payloads
  // and the fact keys' pseudo-random draw): the optimizer must emit the
  // same tree, rendered identically.
  const std::string a = core::ExplainPlan(OptimizePlan(SkewedMultiway(1), {}));
  const std::string b = core::ExplainPlan(OptimizePlan(SkewedMultiway(2), {}));
  EXPECT_EQ(a, b);

  auto pred = [](const Record& r) { return KeyBelow(r, 4); };
  auto pushdown = [&](uint64_t variant) {
    return core::Select(core::Join(core::Scan(FactTable("a", 40, 8, variant)),
                                   core::Scan(FactTable("b", 30, 8, variant))),
                        pred, /*key_only=*/true);
  };
  EXPECT_EQ(core::ExplainPlan(OptimizePlan(pushdown(1), {})),
            core::ExplainPlan(OptimizePlan(pushdown(2), {})));
}

// ---------------------------------------------------------------------------
// Byte-equality across the whole public-knob grid.

TEST(OptimizerTest, ByteIdenticalAcrossPoliciesAndElision) {
  auto pred = [](const Record& r) { return KeyBelow(r, 5); };
  const std::vector<PlanPtr> shapes = {
      SkewedMultiway(3),
      core::Select(core::Join(core::Scan(FactTable("a", 40, 8, 1)),
                              core::Scan(FactTable("b", 30, 8, 2))),
                   pred, /*key_only=*/true),
      core::Select(core::Aggregate(core::Scan(FactTable("a", 40, 8, 1)),
                                   core::Scan(FactTable("b", 30, 8, 2))),
                   pred, /*key_only=*/true),
      core::Distinct(core::Distinct(core::Scan(FactTable("t", 26, 6, 1)))),
      core::Distinct(core::Aggregate(core::Scan(FactTable("a", 24, 6, 1)),
                                     core::Scan(FactTable("b", 18, 6, 2)))),
  };
  for (const PlanPtr& plan : shapes) {
    for (const obliv::SortPolicy policy : kAllPolicies) {
      for (const bool elision : {false, true}) {
        ExecContext ctx;
        ctx.sort_policy = policy;
        ctx.sort_elision = elision;
        ExpectByteEqual(plan, ctx);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry: op_rewrites, the annotated explain, the cost column.

TEST(OptimizerTest, RewritesSurfaceInStatsAndAnnotatedExplain) {
  const PlanPtr plan = SkewedMultiway(1);
  ExecContext ctx;
  ctx.optimize = true;
  Executor ex(ctx);
  (void)ex.Execute(plan);
  EXPECT_NE(ex.executed_plan(), plan);
  uint64_t total_rewrites = 0;
  for (const core::PlanNodeStats& s : ex.node_stats()) {
    total_rewrites += s.stats.op_rewrites;
  }
  EXPECT_GE(total_rewrites, 1u);
  // The annotated explain renders against the executed tree.
  const std::string annotated =
      core::ExplainPlan(ex.executed_plan(), ex.node_stats());
  EXPECT_NE(annotated.find("rewrites="), std::string::npos);
}

TEST(OptimizerTest, ExplainPlanWithCostsRendersEstimatesAndCosts) {
  const PlanPtr plan = SkewedMultiway(1);
  const std::string before = core::ExplainPlanWithCosts(plan, /*workers=*/1);
  EXPECT_NE(before.find("est_rows="), std::string::npos);
  EXPECT_NE(before.find("cost="), std::string::npos);
  EXPECT_NE(before.find("scan(dimSmall)"), std::string::npos);
  // Deterministic rendering (same plan, same workers).
  EXPECT_EQ(before, core::ExplainPlanWithCosts(plan, /*workers=*/1));
}

}  // namespace
}  // namespace oblivdb
