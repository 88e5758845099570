#include "core/optimizer.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace oblivdb::core {

size_t EstimateRows(const PlanPtr& plan, const SizeFeedback* feedback) {
  OBLIVDB_CHECK(plan != nullptr);
  if (feedback != nullptr && !feedback->empty()) {
    const auto it = feedback->rows_by_signature.find(PlanShapeSignature(plan));
    if (it != feedback->rows_by_signature.end()) {
      return static_cast<size_t>(it->second);
    }
  }
  switch (plan->op) {
    case PlanOp::kScan:
      return plan->table.size();
    case PlanOp::kSelect:
    case PlanOp::kDistinct:
      return EstimateRows(plan->inputs[0], feedback);
    case PlanOp::kJoin: {
      const size_t l = EstimateRows(plan->inputs[0], feedback);
      const size_t r = EstimateRows(plan->inputs[1], feedback);
      const bool lu = ProducedOrder(plan->inputs[0]).key_unique;
      const bool ru = ProducedOrder(plan->inputs[1]).key_unique;
      if (lu && ru) return std::min(l, r);
      if (lu) return r;
      if (ru) return l;
      // Neither side keyed: m is genuinely unknown (up to l * r).  The
      // larger input is the ranking-friendly guess — it preserves "join
      // the small things first" without letting one unknowable product
      // dominate every comparison.
      return std::max(l, r);
    }
    case PlanOp::kSemiJoin:
    case PlanOp::kAntiJoin:
      return EstimateRows(plan->inputs[0], feedback);
    case PlanOp::kAggregate:
      return std::min(EstimateRows(plan->inputs[0], feedback),
                      EstimateRows(plan->inputs[1], feedback));
    case PlanOp::kUnion:
      return EstimateRows(plan->inputs[0], feedback) +
             EstimateRows(plan->inputs[1], feedback);
    case PlanOp::kMultiwayJoin: {
      size_t acc = EstimateRows(plan->inputs[0], feedback);
      bool acc_unique = ProducedOrder(plan->inputs[0]).key_unique;
      for (size_t i = 1; i < plan->inputs.size(); ++i) {
        const size_t r = EstimateRows(plan->inputs[i], feedback);
        const bool ru = ProducedOrder(plan->inputs[i]).key_unique;
        if (acc_unique && ru) acc = std::min(acc, r);
        else if (acc_unique) acc = r;
        else if (ru) /* acc unchanged */;
        else acc = std::max(acc, r);
        acc_unique = acc_unique && ru;
      }
      return acc;
    }
  }
  OBLIVDB_CHECK(false);
  return 0;
}

size_t EstimateRows(const PlanPtr& plan) {
  return EstimateRows(plan, nullptr);
}

namespace {

// Copy of `base` with new inputs and `extra` more recorded rewrites.
// PlanNode's copy constructor carries everything else (label, predicate,
// key_only, and — for scans — the table; scan nodes are only
// cloned by the distinct-elimination rule, a rare shape whose one-time
// table copy is accepted).
std::shared_ptr<PlanNode> CloneWith(const PlanNode& base,
                                    std::vector<PlanPtr> inputs,
                                    uint64_t extra) {
  auto node = std::make_shared<PlanNode>(base);
  node->inputs = std::move(inputs);
  node->rewrites = base.rewrites + extra;
  return node;
}

PlanPtr Rewrite(const PlanPtr& node, const SizeFeedback* fb);

// R2: key-only select pushdown.  `sel` must be a key_only select; returns
// its replacement (the child operator with the select pushed into every
// input, each pushed copy recursively rewritten so it can keep sinking),
// or `sel` unchanged when the child's operator does not commute.
PlanPtr PushDownSelect(const PlanPtr& sel, const SizeFeedback* fb) {
  const PlanPtr& child = sel->inputs[0];
  switch (child->op) {
    case PlanOp::kJoin:
    case PlanOp::kSemiJoin:
    case PlanOp::kAntiJoin:
    case PlanOp::kAggregate:
    case PlanOp::kUnion:
    case PlanOp::kMultiwayJoin: {
      // sigma_p(op(A, B, ...)) = op(sigma_p(A), sigma_p(B), ...): a row
      // whose key fails p can never contribute a surviving key (join
      // family), and union is a plain concatenation, which sigma
      // distributes over order-preservingly.
      std::vector<PlanPtr> kids;
      kids.reserve(child->inputs.size());
      for (const PlanPtr& gc : child->inputs) {
        auto pushed = std::make_shared<PlanNode>();
        pushed->op = PlanOp::kSelect;
        pushed->label = PlanOpName(PlanOp::kSelect);
        pushed->predicate = sel->predicate;
        pushed->key_only = true;
        pushed->rewrites = 1;  // this node exists because a rule fired
        pushed->inputs.push_back(gc);
        kids.push_back(Rewrite(PlanPtr(std::move(pushed)), fb));
      }
      return CloneWith(*child, std::move(kids), /*extra=*/1 + sel->rewrites);
    }
    case PlanOp::kDistinct: {
      // sigma_p(delta(X)) = delta(sigma_p(X)): a key-only filter keeps or
      // drops whole duplicate classes, and both operators preserve the
      // (j, d0, d1) order of what they keep.
      auto pushed = std::make_shared<PlanNode>();
      pushed->op = PlanOp::kSelect;
      pushed->label = PlanOpName(PlanOp::kSelect);
      pushed->predicate = sel->predicate;
      pushed->key_only = true;
      pushed->rewrites = 1;
      pushed->inputs.push_back(child->inputs[0]);
      std::vector<PlanPtr> kids;
      kids.push_back(Rewrite(PlanPtr(std::move(pushed)), fb));
      return CloneWith(*child, std::move(kids), /*extra=*/1 + sel->rewrites);
    }
    case PlanOp::kScan:
    case PlanOp::kSelect:
      return sel;
  }
  OBLIVDB_CHECK(false);
  return sel;
}

// R3: distinct simplification (see header).
PlanPtr SimplifyDistinct(PlanPtr cur) {
  while (cur->op == PlanOp::kDistinct) {
    const PlanPtr& in = cur->inputs[0];
    if (in->op == PlanOp::kDistinct) {
      // Idempotence: the outer distinct's input is already duplicate-free
      // and (j, d0, d1)-sorted.
      cur = CloneWith(*in, in->inputs, /*extra=*/1 + cur->rewrites);
      continue;
    }
    const OrderSpec produced = ProducedOrder(in);
    if (produced.key_unique && produced.Covers(OrderSpec::ByKeyData())) {
      // The operator is the identity: its sort is covered and key
      // uniqueness rules out equal rows.
      return CloneWith(*in, in->inputs, /*extra=*/1 + cur->rewrites);
    }
    break;
  }
  return cur;
}

// R1: multiway middle reorder (see header).  First and last inputs are
// pinned (they contribute the packed output's payload words); the middles
// may permute only when all of them are key-unique, the condition under
// which equal-key accumulator rows are bytewise identical regardless of
// which middle produced them.
PlanPtr ReorderMultiway(PlanPtr cur, const SizeFeedback* fb) {
  if (cur->op != PlanOp::kMultiwayJoin || cur->inputs.size() < 4) return cur;
  const size_t n = cur->inputs.size();
  for (size_t i = 1; i + 1 < n; ++i) {
    if (!ProducedOrder(cur->inputs[i]).key_unique) return cur;
  }
  std::vector<PlanPtr> middles(cur->inputs.begin() + 1,
                               cur->inputs.end() - 1);
  // Stable, so equal estimates keep the client's order — the choice stays
  // a deterministic function of the (public) size vector (and, when
  // feedback is present, of the public revealed sizes it carries).
  std::stable_sort(middles.begin(), middles.end(),
                   [fb](const PlanPtr& a, const PlanPtr& b) {
                     return EstimateRows(a, fb) < EstimateRows(b, fb);
                   });
  bool changed = false;
  for (size_t i = 0; i < middles.size(); ++i) {
    changed = changed || middles[i] != cur->inputs[i + 1];
  }
  if (!changed) return cur;
  std::vector<PlanPtr> kids;
  kids.reserve(n);
  kids.push_back(cur->inputs.front());
  for (PlanPtr& m : middles) kids.push_back(std::move(m));
  kids.push_back(cur->inputs.back());
  return CloneWith(*cur, std::move(kids), /*extra=*/1);
}

PlanPtr Rewrite(const PlanPtr& node, const SizeFeedback* fb) {
  // Children first; share every unchanged subtree (pointer identity).
  bool changed = false;
  std::vector<PlanPtr> kids;
  kids.reserve(node->inputs.size());
  for (const PlanPtr& in : node->inputs) {
    PlanPtr r = Rewrite(in, fb);
    changed = changed || r != in;
    kids.push_back(std::move(r));
  }
  PlanPtr cur = changed ? PlanPtr(CloneWith(*node, std::move(kids), 0)) : node;

  if (cur->op == PlanOp::kSelect && cur->key_only) {
    cur = PushDownSelect(cur, fb);
  }
  cur = SimplifyDistinct(cur);
  cur = ReorderMultiway(cur, fb);
  return cur;
}

// Modeled cost (ns) of one operator's dominant sorts, for the cost column.
// Linear operators (scan, select, union) cost zero; the single-sort
// operators pay one union sort; a join pipeline is dominated by ~4 full
// sorts of its union (entry sort, two expansion prefix sorts, the align
// sort).  Entry-width elements on the blocked kernel, like every other
// consumer of the model.
double SortNs(size_t n, unsigned workers) {
  return static_cast<double>(n) *
         obliv::EstimateSortNsPerElement(obliv::SortPolicy::kBlocked,
                                         sizeof(Entry), n, workers);
}

double JoinNs(size_t n1, size_t n2, unsigned workers) {
  return 4.0 * SortNs(n1 + n2, workers);
}

double NodeCostNs(const PlanPtr& node, unsigned workers) {
  switch (node->op) {
    case PlanOp::kScan:
    case PlanOp::kSelect:
    case PlanOp::kUnion:
      return 0.0;
    case PlanOp::kDistinct:
      return SortNs(EstimateRows(node->inputs[0]), workers);
    case PlanOp::kSemiJoin:
    case PlanOp::kAntiJoin:
      return SortNs(EstimateRows(node->inputs[0]) +
                        EstimateRows(node->inputs[1]),
                    workers);
    case PlanOp::kJoin:
    case PlanOp::kAggregate:
      return JoinNs(EstimateRows(node->inputs[0]),
                    EstimateRows(node->inputs[1]), workers);
    case PlanOp::kMultiwayJoin: {
      // The cascade: accumulator join at each step, sized by the fold.
      if (node->inputs.size() < 2) return 0.0;
      double total = 0.0;
      size_t acc = EstimateRows(node->inputs[0]);
      bool acc_unique = ProducedOrder(node->inputs[0]).key_unique;
      for (size_t i = 1; i < node->inputs.size(); ++i) {
        const size_t r = EstimateRows(node->inputs[i]);
        total += JoinNs(acc, r, workers);
        const bool ru = ProducedOrder(node->inputs[i]).key_unique;
        if (acc_unique && ru) acc = std::min(acc, r);
        else if (acc_unique) acc = r;
        else if (!ru) acc = std::max(acc, r);
        acc_unique = acc_unique && ru;
      }
      return total;
    }
  }
  OBLIVDB_CHECK(false);
  return 0.0;
}

void ExplainCostsInto(const PlanPtr& node, unsigned workers, size_t depth,
                      std::string& out) {
  out.append(2 * depth, ' ');
  if (node->op == PlanOp::kScan) {
    out += "scan(" + node->label + ")";
  } else {
    out += node->label;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), " [est_rows=%zu cost=%.3fms]",
                EstimateRows(node), NodeCostNs(node, workers) / 1e6);
  out += buf;
  out += '\n';
  for (const PlanPtr& in : node->inputs) {
    ExplainCostsInto(in, workers, depth + 1, out);
  }
}

// CollectSizeFeedback's walk: the Executor pushes node_stats in post-order
// with exactly one entry per node (scan leaves included), so a post-order
// walk consuming entries left to right lines each node up with its entry.
void CollectFeedbackInto(const PlanPtr& node,
                         const std::vector<PlanNodeStats>& node_stats,
                         size_t& next, SizeFeedback& fb) {
  for (const PlanPtr& in : node->inputs) {
    CollectFeedbackInto(in, node_stats, next, fb);
  }
  OBLIVDB_CHECK(next < node_stats.size());
  fb.rows_by_signature[PlanShapeSignature(node)] =
      node_stats[next++].output_rows;
}

}  // namespace

PlanPtr OptimizePlan(const PlanPtr& plan, const ExecContext& ctx) {
  return OptimizePlan(plan, ctx, nullptr);
}

PlanPtr OptimizePlan(const PlanPtr& plan, const ExecContext& ctx,
                     const SizeFeedback* feedback) {
  OBLIVDB_CHECK(plan != nullptr);
  (void)ctx;  // every current rule is shape/size-driven; the knobs the
              // executor applies afterwards (policy, elision) read the
              // rewritten shape.
  if (feedback != nullptr && feedback->empty()) feedback = nullptr;
  return Rewrite(plan, feedback);
}

SizeFeedback CollectSizeFeedback(const PlanPtr& executed,
                                 const std::vector<PlanNodeStats>& node_stats) {
  OBLIVDB_CHECK(executed != nullptr);
  SizeFeedback fb;
  size_t next = 0;
  CollectFeedbackInto(executed, node_stats, next, fb);
  OBLIVDB_CHECK(next == node_stats.size());
  return fb;
}

std::string ExplainPlanWithCosts(const PlanPtr& plan, unsigned workers) {
  OBLIVDB_CHECK(plan != nullptr);
  std::string out;
  ExplainCostsInto(plan, std::max(workers, 1u), 0, out);
  return out;
}

}  // namespace oblivdb::core
