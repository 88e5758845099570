// Cost-based plan optimization over the revealed-size model.
//
// The paper's security model (§3.1) makes classic relational optimization
// legal inside the enclave: every input size is public, every operator's
// cost is a closed-form function of its (public) input sizes, and the
// produced-order algebra (core/order.h) is derivable from plan shape
// alone.  So a rewrite pass that consults *only* (plan shape, public
// sizes, public ExecContext knobs) can reorder and simplify a plan with
// zero obliviousness risk: the rewritten tree's trace is exactly the trace
// the rewritten tree's shape dictates, and which tree runs is itself a
// pure function of public state.
//
// Three rewrite families, each with a byte-equality proof obligation
// (pinned in tests/optimizer_test.cc across every SortPolicy x
// sort_elision setting):
//
//   R1  Multiway join reordering.  ObliviousMultiwayJoin is a left-deep
//       cascade whose packed output is {j, d_first[0], d_last[0]} — the
//       first and last inputs contribute the visible payload words, so
//       they are pinned; the *middle* inputs only gate which keys survive
//       and (via their payload constants) how intermediate ties sort.
//       When every middle input is key-unique (ProducedOrder), equal-key
//       accumulator rows are bytewise identical before and after any
//       middle permutation, so the cascade's output — and its per-step
//       revealed sizes under the permuted shape — are data-independent
//       functions of public state.  The pass orders middles by ascending
//       estimated rows, shrinking intermediates as early as possible.
//
//   R2  Key-only select pushdown.  A select whose predicate reads only
//       the join key (PlanNode::key_only, declared client metadata)
//       commutes with every key-matching operator: below Join / SemiJoin /
//       AntiJoin / Aggregate it filters both inputs (rows whose keys fail
//       the predicate can never contribute a surviving key), below Union
//       (a plain concatenation) it filters both branches, below Distinct
//       it swaps, below MultiwayJoin it filters every input.  Pushing the
//       filter below a superlinear operator shrinks the n log^2 n work by
//       the select's selectivity; the select itself is linear either way.
//
//   R3  Distinct simplification.  Distinct(Distinct(X)) = Distinct(X)
//       (idempotence), and Distinct(X) = X outright when X is key-unique
//       and already (j, d0, d1)-covered — the sort is covered and no two
//       rows can be equal, so the operator is the identity.
//
// Cost model: the same measured sort model the run-merge elision uses
// (obliv/sort_kernel.h) — one model, two consumers, so "what the optimizer
// thinks is fast" and "what the executor actually picks" can never
// diverge.  EstimateRows is the size-propagation half: scan sizes are
// exact (public), everything above is the standard key-uniqueness-aware
// estimate.
//
// Entry point: the Executor routes every Execute through OptimizePlan when
// ExecContext::optimize is set (OBLIVDB_OPTIMIZE, default on), and exposes
// the rewritten tree as executed_plan().  OptimizePlan returns the
// original PlanPtr (same object, not a copy) when no rule fires, so
// unrewritten plans keep pointer identity and node counts.  Rewritten
// nodes carry PlanNode::rewrites, surfaced as JoinStats::op_rewrites and
// rendered by the annotated ExplainPlan as `rewrites=N`.

#ifndef OBLIVDB_CORE_OPTIMIZER_H_
#define OBLIVDB_CORE_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_context.h"
#include "core/plan.h"

namespace oblivdb::core {

// Revealed-size feedback from prior executions of the same plan shape:
// maps a subtree's PlanShapeSignature (core/plan.h) to the output row
// count a previous run of that shape revealed.  Revealed sizes are public
// in the paper's model (§3.1), and the signature is built from public
// metadata only, so feeding the map back into EstimateRows keeps every
// rewrite decision a pure function of public state — outputs stay
// byte-identical because the rewrite rules are output-preserving under
// *any* estimates; feedback only changes which (equivalent) tree runs.
// Distinct subtrees that share a signature (e.g. two same-shape selects
// with different predicates) share a slot — last writer wins, which only
// moves a ranking, never a result.  The service plan cache
// (service/plan_cache.h) records one of these per shape and replays it on
// later same-shape queries (the selectivity-feedback follow-on: a
// select's revealed output size replaces the input-size upper bound).
struct SizeFeedback {
  std::unordered_map<std::string, uint64_t> rows_by_signature;

  bool empty() const { return rows_by_signature.empty(); }
};

// Estimated output rows of a plan node: a pure function of the plan shape
// and the (public) scan sizes.  Scans are exact; selects and distincts
// pass their input through (selectivity is unknown until run time — an
// upper bound keeps the estimate sound for ranking); a join with a
// key-unique side is bounded by the other side; semi/anti-joins by the
// left; aggregates by the smaller input (one row per matched group);
// unions add; the multiway cascade folds the join rule left to right.
size_t EstimateRows(const PlanPtr& plan);

// Feedback-aware overload: a subtree whose signature appears in
// `feedback` uses the prior run's revealed size verbatim; everything else
// falls back to the structural estimate (recursing with the feedback, so
// an annotated subtree sharpens its ancestors too).  feedback == nullptr
// or empty degenerates to the overload above.
size_t EstimateRows(const PlanPtr& plan, const SizeFeedback* feedback);

// Harvests feedback from a finished run: walks `executed` (the Executor's
// executed_plan()) against its post-order `node_stats` and records every
// subtree's revealed output size under its signature.  node_stats must
// come from an Executor that just ran this exact tree.
SizeFeedback CollectSizeFeedback(const PlanPtr& executed,
                                 const std::vector<PlanNodeStats>& node_stats);

// The rewrite pass.  Applies R1-R3 bottom-up until none fires; every
// decision reads only (shape, EstimateRows, ProducedOrder, ctx's public
// knobs).  Returns `plan` itself — pointer-identical — when nothing
// rewrites; otherwise a new tree sharing every untouched subtree with the
// original (plans are immutable, so sharing is free).  The rewritten
// plan's root Table output is byte-identical to the original's under
// every ExecContext (the optimizer's contract; tests/optimizer_test.cc).
// Note the PlanResult side-channels can legitimately move: pushing a
// select below a root join changes which node is the root, so
// PlanResult::join_rows / aggregate_rows may be populated differently —
// equivalence comparisons must use PlanResult::table.
PlanPtr OptimizePlan(const PlanPtr& plan, const ExecContext& ctx);

// Feedback-aware overload: identical rules, but every EstimateRows the
// pass consults is sharpened by `feedback` (so e.g. a multiway middle
// whose select revealed 4 rows last run now ranks ahead of one that
// revealed 400, where the structural upper bounds tied).  The rewritten
// tree's output stays byte-identical to the original's — feedback picks
// among equivalent trees, never changes what a tree computes.  nullptr
// degenerates to the overload above.
PlanPtr OptimizePlan(const PlanPtr& plan, const ExecContext& ctx,
                     const SizeFeedback* feedback);

// Pre-execution rendering of the tree with the optimizer's view of it:
// each node annotated with its estimated output rows and its modeled cost
// in milliseconds (the sort-model estimate for the operator's dominant
// sorts on a `workers`-thread pool; linear operators render cost=0), e.g.
//
//   join [est_rows=4096 cost=1.824ms]
//     scan(fact) [est_rows=65536 cost=0ms]
//     scan(dim) [est_rows=4096 cost=0ms]
//
// Render OptimizePlan's output next to the input's to see a before/after
// with the modeled saving (bench/bench_optimizer.cc does exactly this).
std::string ExplainPlanWithCosts(const PlanPtr& plan, unsigned workers = 1);

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_OPTIMIZER_H_
