#include "core/plan.h"

#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/status.h"
#include "core/multiway.h"
#include "core/optimizer.h"

namespace oblivdb::core {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan: return "scan";
    case PlanOp::kSelect: return "select";
    case PlanOp::kDistinct: return "distinct";
    case PlanOp::kJoin: return "join";
    case PlanOp::kSemiJoin: return "semijoin";
    case PlanOp::kAntiJoin: return "antijoin";
    case PlanOp::kAggregate: return "aggregate";
    case PlanOp::kUnion: return "union";
    case PlanOp::kMultiwayJoin: return "multiway_join";
  }
  OBLIVDB_CHECK(false);
  return "?";
}

namespace {

std::shared_ptr<PlanNode> MakeNode(PlanOp op, std::vector<PlanPtr> inputs) {
  for (const PlanPtr& in : inputs) OBLIVDB_CHECK(in != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->label = PlanOpName(op);
  node->inputs = std::move(inputs);
  return node;
}

}  // namespace

PlanPtr Scan(Table table) { return Scan(std::move(table), OrderSpec::None()); }

PlanPtr Scan(Table table, OrderSpec declared_order) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanOp::kScan;
  node->label = table.name().empty() ? "scan" : table.name();
  node->table = std::move(table);
  node->scan_order = std::move(declared_order);
  return node;
}

PlanPtr Select(PlanPtr input, CtRowPredicate predicate, bool key_only) {
  OBLIVDB_CHECK(input != nullptr);
  OBLIVDB_CHECK(predicate != nullptr);
  auto node = std::make_shared<PlanNode>();
  node->op = PlanOp::kSelect;
  node->label = PlanOpName(PlanOp::kSelect);
  node->predicate = std::move(predicate);
  node->key_only = key_only;
  node->inputs.push_back(std::move(input));
  return node;
}

PlanPtr Distinct(PlanPtr input) {
  return MakeNode(PlanOp::kDistinct, {std::move(input)});
}

PlanPtr Join(PlanPtr left, PlanPtr right) {
  return MakeNode(PlanOp::kJoin, {std::move(left), std::move(right)});
}

PlanPtr SemiJoin(PlanPtr left, PlanPtr right) {
  return MakeNode(PlanOp::kSemiJoin, {std::move(left), std::move(right)});
}

PlanPtr AntiJoin(PlanPtr left, PlanPtr right) {
  return MakeNode(PlanOp::kAntiJoin, {std::move(left), std::move(right)});
}

PlanPtr Aggregate(PlanPtr left, PlanPtr right) {
  return MakeNode(PlanOp::kAggregate, {std::move(left), std::move(right)});
}

PlanPtr Union(PlanPtr left, PlanPtr right) {
  return MakeNode(PlanOp::kUnion, {std::move(left), std::move(right)});
}

PlanPtr MultiwayJoin(std::vector<PlanPtr> inputs) {
  OBLIVDB_CHECK_GE(inputs.size(), 1u);
  return MakeNode(PlanOp::kMultiwayJoin, std::move(inputs));
}

OrderSpec ProducedOrder(const PlanPtr& plan) {
  OBLIVDB_CHECK(plan != nullptr);
  switch (plan->op) {
    case PlanOp::kScan:
      return plan->scan_order;
    case PlanOp::kSelect:
      // One linear pass plus an order-preserving compaction: whatever
      // order (and keyness — a subset of unique keys stays unique) the
      // input had survives.
      return ProducedOrder(plan->inputs[0]);
    case PlanOp::kDistinct:
      return OrderSpec::ByKeyData(ProducedOrder(plan->inputs[0]).key_unique);
    case PlanOp::kJoin:
      // (j, d1, d2)-lexicographic over the *full-width* rows; the packed
      // two-word table is only guaranteed key-sorted (ties on d1[0] may
      // reorder on the hidden d1[1]).  At most one output row per key iff
      // both sides had at most one input row per key.
      return OrderSpec::ByKey(ProducedOrder(plan->inputs[0]).key_unique &&
                              ProducedOrder(plan->inputs[1]).key_unique);
    case PlanOp::kSemiJoin:
    case PlanOp::kAntiJoin:
      // A (j, d)-sorted subset of the left input's rows.
      return OrderSpec::ByKeyData(ProducedOrder(plan->inputs[0]).key_unique);
    case PlanOp::kAggregate:
      // One row per matched group, ascending key: key-unique by
      // construction, which makes plain by-key cover every key-prefixed
      // refinement.
      return OrderSpec::ByKey(/*key_unique=*/true);
    case PlanOp::kUnion:
      return OrderSpec::None();
    case PlanOp::kMultiwayJoin: {
      if (plan->inputs.size() == 1) return ProducedOrder(plan->inputs[0]);
      bool all_unique = true;
      for (const PlanPtr& in : plan->inputs) {
        all_unique = all_unique && ProducedOrder(in).key_unique;
      }
      return OrderSpec::ByKey(all_unique);
    }
  }
  OBLIVDB_CHECK(false);
  return OrderSpec::None();
}

namespace {

void ExplainInto(const PlanPtr& node, size_t depth, std::string& out) {
  out.append(2 * depth, ' ');
  if (node->op == PlanOp::kScan) {
    out += "scan(" + node->label + ")";
  } else {
    out += node->label;
  }
  out += '\n';
  for (const PlanPtr& in : node->inputs) ExplainInto(in, depth + 1, out);
}

// Narrowing conventions at node boundaries (see plan.h header comment).
Table PackJoined(const std::vector<JoinedRecord>& rows) {
  Table out("join");
  out.rows().reserve(rows.size());
  for (const JoinedRecord& r : rows) {
    out.rows().push_back(Record{r.key, {r.payload1[0], r.payload2[0]}});
  }
  return out;
}

Table PackAggregates(const std::vector<JoinGroupAggregate>& rows) {
  Table out("aggregate");
  out.rows().reserve(rows.size());
  for (const JoinGroupAggregate& a : rows) {
    out.rows().push_back(Record{a.key, {a.count, a.sum_d1}});
  }
  return out;
}

}  // namespace

std::string ExplainPlan(const PlanPtr& plan) {
  OBLIVDB_CHECK(plan != nullptr);
  std::string out;
  ExplainInto(plan, 0, out);
  return out;
}

namespace {

void SignatureInto(const PlanPtr& node, std::string& out) {
  out += PlanOpName(node->op);
  if (node->op == PlanOp::kScan) {
    out += '#';
    out += std::to_string(node->table.size());
    const OrderSpec& o = node->scan_order;
    if (!o.terms.empty() || o.key_unique) {
      out += '@';
      for (const OrderTerm& t : o.terms) {
        switch (t.col) {
          case OrderCol::kKey: out += 'k'; break;
          case OrderCol::kPayload0: out += 'a'; break;
          case OrderCol::kPayload1: out += 'b'; break;
        }
        if (!t.ascending) out += '-';
      }
      if (o.key_unique) out += '!';
    }
  }
  if (node->op == PlanOp::kSelect && node->key_only) out += "?k";
  if (!node->inputs.empty()) {
    out += '(';
    for (size_t i = 0; i < node->inputs.size(); ++i) {
      if (i != 0) out += ',';
      SignatureInto(node->inputs[i], out);
    }
    out += ')';
  }
}

}  // namespace

std::string PlanShapeSignature(const PlanPtr& plan) {
  OBLIVDB_CHECK(plan != nullptr);
  std::string out;
  SignatureInto(plan, out);
  return out;
}

namespace {

// Number of node_stats entries a subtree contributes: one per node, in the
// post-order the Executor pushes them (each child's subtree, then self —
// scan children count one leaf entry each).
size_t StatsEntryCount(const PlanPtr& node) {
  size_t count = 1;
  for (const PlanPtr& in : node->inputs) count += StatsEntryCount(in);
  return count;
}

// Pre-order rendering over the post-order stats: a node's own entry is the
// last of its subtree's slice [base, base + StatsEntryCount).
void ExplainAnnotatedInto(const PlanPtr& node,
                          const std::vector<PlanNodeStats>& stats,
                          size_t base, size_t depth, std::string& out) {
  const PlanNodeStats& s = stats[base + StatsEntryCount(node) - 1];
  out.append(2 * depth, ' ');
  if (node->op == PlanOp::kScan) {
    out += "scan(" + node->label + ")";
  } else {
    out += node->label;
  }
  out += " [rows=" + std::to_string(s.output_rows);
  // Order propagation skipped (or merged away) entry sorts at this node.
  if (s.stats.op_sorts_elided > 0) out += " sort=elided";
  // Optimizer rewrites that produced or landed on this node
  // (core/optimizer.h); only meaningful when the rendered tree is the
  // Executor's executed_plan().
  if (s.stats.op_rewrites > 0) {
    out += " rewrites=" + std::to_string(s.stats.op_rewrites);
  }
  // Resilience markers (core/stats.h): injected faults observed in the
  // node's window, degradations taken (pool-spawn downgrades), and
  // transient-fault retries absorbed.  Zero counters render nothing, so
  // fault-free explains are unchanged.
  if (s.stats.op_faults_injected > 0) {
    out += " faults=" + std::to_string(s.stats.op_faults_injected);
  }
  if (s.stats.op_degradations > 0) {
    out += " degraded=" + std::to_string(s.stats.op_degradations);
  }
  if (s.stats.op_retries > 0) {
    out += " retries=" + std::to_string(s.stats.op_retries);
  }
  out += "]\n";
  size_t child_base = base;
  for (const PlanPtr& in : node->inputs) {
    ExplainAnnotatedInto(in, stats, child_base, depth + 1, out);
    child_base += StatsEntryCount(in);
  }
}

}  // namespace

std::string ExplainPlan(const PlanPtr& plan,
                        const std::vector<PlanNodeStats>& node_stats) {
  OBLIVDB_CHECK(plan != nullptr);
  OBLIVDB_CHECK_EQ(node_stats.size(), StatsEntryCount(plan));
  std::string out;
  ExplainAnnotatedInto(plan, node_stats, 0, 0, out);
  return out;
}

PlanResult Executor::Execute(const PlanPtr& plan) {
  OBLIVDB_CHECK(plan != nullptr);
  node_stats_.clear();
  // The rewrite pass reads only plan shape and public sizes, so running it
  // outside the trace scope is sound: the trace of the optimized run is the
  // trace of the rewritten tree, itself a pure function of public inputs.
  executed_plan_ = ctx_.optimize ? OptimizePlan(plan, ctx_) : plan;
  PlanResult result;
  if (ctx_.trace_sink != nullptr) {
    memtrace::TraceScope scope(ctx_.trace_sink);
    result.table = ExecNode(executed_plan_, &result);
  } else {
    result.table = ExecNode(executed_plan_, &result);
  }
  // The caller's per-call out-parameter receives the root operator's
  // counters (node_stats() has the full per-node breakdown).
  if (ctx_.stats != nullptr) *ctx_.stats = node_stats_.back().stats;
  return result;
}

Table Executor::ExecNode(const PlanPtr& node, PlanResult* root_result) {
  // A fault unwinding out of this node's subtree gains the node's operator
  // name, so by the time it reaches TryRun the Status message reads as the
  // root-to-fault path ("aggregate: join: ...").  Mutate-and-rethrow keeps
  // the unwind object itself; nothing is copied on the non-fault path.
  try {
    return ExecNodeImpl(node, root_result);
  } catch (oblivdb::internal::StatusError& e) {
    e.status = std::move(e.status).Annotate(PlanOpName(node->op));
    throw;
  }
}

Table Executor::ExecNodeImpl(const PlanPtr& node, PlanResult* root_result) {
  // Cancellation checkpoint: one per plan node, on entry, before the
  // children recurse.  The visit order is the (public) tree shape, so the
  // checkpoint schedule is a pure function of the plan — never of row
  // contents (common/cancel.h).
  Checkpoint("plan_node");
  // Children first (left to right), so node_stats_ ends up in post-order.
  // Scan leaves are borrowed straight from the immutable plan node — no
  // per-run copy of the base tables; other children materialize into
  // owned intermediates.
  std::vector<Table> owned;
  owned.reserve(node->inputs.size());
  std::vector<const Table*> inputs;
  inputs.reserve(node->inputs.size());
  for (const PlanPtr& in : node->inputs) {
    if (in->op == PlanOp::kScan) {
      PlanNodeStats leaf;
      leaf.op = in->op;
      leaf.label = in->label;
      leaf.stats.m = in->table.size();
      leaf.stats.op_rewrites = in->rewrites;
      leaf.output_rows = in->table.size();
      node_stats_.push_back(std::move(leaf));
      inputs.push_back(&in->table);
    } else {
      owned.push_back(ExecNode(in, nullptr));
      inputs.push_back(&owned.back());
    }
  }

  // Per-node context: same policy / pool / sink, but the per-call stats
  // out-parameter points at this node's record (the operator fills it and
  // still streams to ctx_.stats_sink).  The trace sink is installed once
  // around the whole run by Execute, never per node.
  PlanNodeStats entry;
  entry.op = node->op;
  entry.label = node->label;
  ExecContext node_ctx = ctx_;
  node_ctx.stats = &entry.stats;
  node_ctx.trace_sink = nullptr;

  // Order hints from the children's statically-known produced orders (the
  // "interesting orders" propagation): derived from plan shape alone, so
  // the operators' elision branches stay data-independent.
  auto child_order = [&](size_t i) { return ProducedOrder(node->inputs[i]); };
  OrderHints hints;
  if (node->inputs.size() >= 1) hints.left = child_order(0);
  if (node->inputs.size() >= 2) hints.right = child_order(1);

  Table out;
  switch (node->op) {
    case PlanOp::kScan:
      // Only reached when a scan is the plan root (scan children are
      // borrowed in the loop above): the result table must be owned.
      out = node->table;
      entry.stats.m = out.size();
      break;
    case PlanOp::kSelect:
      out = ObliviousSelect(*inputs[0], node->predicate, node_ctx);
      break;
    case PlanOp::kDistinct:
      out = ObliviousDistinct(*inputs[0], node_ctx, hints);
      break;
    case PlanOp::kJoin: {
      std::vector<JoinedRecord> joined =
          ObliviousJoin(*inputs[0], *inputs[1], node_ctx, hints);
      out = PackJoined(joined);
      if (root_result != nullptr) root_result->join_rows = std::move(joined);
      break;
    }
    case PlanOp::kSemiJoin:
      out = ObliviousSemiJoin(*inputs[0], *inputs[1], node_ctx, hints);
      break;
    case PlanOp::kAntiJoin:
      out = ObliviousAntiJoin(*inputs[0], *inputs[1], node_ctx, hints);
      break;
    case PlanOp::kAggregate: {
      std::vector<JoinGroupAggregate> aggs =
          ObliviousJoinAggregate(*inputs[0], *inputs[1], node_ctx, hints);
      out = PackAggregates(aggs);
      if (root_result != nullptr) {
        root_result->aggregate_rows = std::move(aggs);
      }
      break;
    }
    case PlanOp::kUnion:
      out = ObliviousUnion(*inputs[0], *inputs[1], node_ctx);
      break;
    case PlanOp::kMultiwayJoin: {
      // The cascade API takes a vector of tables; materialize one (scan
      // leaves are copied here, as before — the cascade consumes them).
      std::vector<Table> tables;
      tables.reserve(inputs.size());
      std::vector<OrderSpec> orders;
      orders.reserve(inputs.size());
      for (const Table* t : inputs) tables.push_back(*t);
      for (size_t i = 0; i < node->inputs.size(); ++i) {
        orders.push_back(child_order(i));
      }
      out = ObliviousMultiwayJoin(tables, node_ctx, orders);
      break;
    }
  }

  entry.output_rows = out.size();
  // After the operator's ReportStats filled entry.stats: the rewrite count
  // is plan-tree bookkeeping, not an operator counter.
  entry.stats.op_rewrites = node->rewrites;
  node_stats_.push_back(std::move(entry));
  return out;
}

StatusOr<PlanResult> Executor::TryRun(const PlanPtr& plan) {
  if (plan == nullptr) {
    return Status(StatusCode::kInvalidArgument, "TryRun: null plan");
  }
  return RunRecoverable(ctx_, [&] { return Execute(plan); });
}

uint64_t Executor::TotalComparisons() const {
  uint64_t total = 0;
  for (const PlanNodeStats& s : node_stats_) total += s.stats.TotalComparisons();
  return total;
}

}  // namespace oblivdb::core
