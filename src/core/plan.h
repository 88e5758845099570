// Composable oblivious query plans: the operator-tree layer over the
// relational algebra of core/{join,operators,aggregate,multiway}.h.
//
// The paper's point (§1) is that the join is the only algorithmically hard
// operator — whole queries are compositions.  A PlanNode tree expresses
// such a composition; the Executor walks it bottom-up, runs every operator
// with one shared ExecContext, and aggregates per-node statistics.  Because
// each operator's access pattern depends only on its input and (revealed)
// output sizes, a plan's complete trace is determined by the sequence of
// intermediate sizes — level II obliviousness composes over the tree
// (tests/plan_test.cc pins both the output equivalence and the trace
// data-independence).
//
// Inter-node rows travel as Table (the paper's (j, d) records).  Operators
// whose native output is wider narrow at node boundaries exactly as the
// multiway cascade does:
//
//   Join       ->  Record{j, {d1[0], d2[0]}}   (first payload word per side)
//   Aggregate  ->  Record{j, {count, sum_d1}}
//
// At the plan *root* nothing is lost: PlanResult also carries the full
// JoinedRecord / JoinGroupAggregate rows when the root is a Join/Aggregate.

#ifndef OBLIVDB_CORE_PLAN_H_
#define OBLIVDB_CORE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/exec_context.h"
#include "core/join.h"
#include "core/operators.h"
#include "core/order.h"
#include "table/table.h"

namespace oblivdb::core {

enum class PlanOp : uint8_t {
  kScan,         // leaf: a client table
  kSelect,       // sigma_p           (1 input)
  kDistinct,     // delta             (1 input)
  kJoin,         // T1 |><| T2        (2 inputs)
  kSemiJoin,     // T1 |x< T2         (2 inputs)
  kAntiJoin,     // T1 |>< T2         (2 inputs)
  kAggregate,    // group-aggregate over a join, no expansion (2 inputs)
  kUnion,        // multiset union    (2 inputs)
  kMultiwayJoin  // cascaded join     (>= 1 input)
};

const char* PlanOpName(PlanOp op);

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

// Plan trees are immutable and shareable: build once, execute under any
// number of contexts / policies.
struct PlanNode {
  PlanOp op;
  std::string label;          // scans: table name; otherwise operator name
  Table table;                // kScan payload
  OrderSpec scan_order;       // kScan: the table's declared order (if any)
  CtRowPredicate predicate;   // kSelect payload
  // kSelect: the client's declaration that `predicate` reads only the join
  // key of each row (never the payload words).  Public plan metadata with
  // the same trust-boundary contract as a declared scan order: a wrong
  // declaration yields wrong *results*, never a trace leak — the optimizer
  // reads only the flag, not the predicate.  Key-only selects are what the
  // optimizer may push below Join/SemiJoin/AntiJoin/Aggregate/Union/
  // Distinct/MultiwayJoin (core/optimizer.h): key-based filtering commutes
  // with key-matching operators, and payload narrowing at node boundaries
  // cannot change what the predicate sees.
  bool key_only = false;
  // Optimizer bookkeeping (core/optimizer.h): how many rewrites produced
  // or landed on this node.  Zero on every client-built node; the Executor
  // copies it into JoinStats::op_rewrites so the annotated ExplainPlan can
  // render `rewrites=N`.
  uint64_t rewrites = 0;
  std::vector<PlanPtr> inputs;
};

// Builders (the only way plans are meant to be constructed; they validate
// arity so the Executor can trust the tree shape).
PlanPtr Scan(Table table);

// Scan with a declared order: the client promises the table is already
// sorted (and, if declared_order.key_unique, keyed) as stated — public
// metadata, like the table's name and size.  A wrong declaration yields
// wrong *results* (garbage in, garbage out at the trust boundary), never
// an oblivious-trace violation: elision decisions read only the
// declaration, not the rows.  Sorted primary-key dimension tables are the
// motivating case — they elide both the Augment entry sort and the full
// m-sized Align sort of a fact-table join.
PlanPtr Scan(Table table, OrderSpec declared_order);
// `key_only` declares the predicate reads only each row's join key (see
// PlanNode::key_only) — the optimizer's license to push the select down.
PlanPtr Select(PlanPtr input, CtRowPredicate predicate, bool key_only = false);
PlanPtr Distinct(PlanPtr input);
PlanPtr Join(PlanPtr left, PlanPtr right);
PlanPtr SemiJoin(PlanPtr left, PlanPtr right);
PlanPtr AntiJoin(PlanPtr left, PlanPtr right);
PlanPtr Aggregate(PlanPtr left, PlanPtr right);
PlanPtr Union(PlanPtr left, PlanPtr right);
PlanPtr MultiwayJoin(std::vector<PlanPtr> inputs);

// The order a node's output rows are guaranteed to be in, derived
// bottom-up from the plan shape alone (public information — the
// "interesting orders" property):
//
//   scan          declared order (None unless the client declared one)
//   select        input's order (linear pass + order-preserving compaction)
//   distinct      (j, d0, d1); key-unique iff the input was
//   join          (j); key-unique iff both inputs were
//   semi/anti     (j, d0, d1); key-unique iff the left input was
//   aggregate     (j) and key-unique (one row per group; keyness makes
//                 this cover every key-prefixed refinement — see
//                 OrderSpec::Covers)
//   union         none
//   multiway      single input: that input's order; else like join over
//                 all inputs
//
// The Executor turns each child's produced order into the OrderHints it
// passes to the node's operator; ExecContext::sort_elision gates whether
// the operators act on them.
OrderSpec ProducedOrder(const PlanPtr& plan);

// Indented one-node-per-line rendering of the tree, e.g.
//
//   distinct
//     join
//       scan(employees)
//       scan(departments)
std::string ExplainPlan(const PlanPtr& plan);

// Canonical string of a plan's *shape*: operator kinds and arity, public
// scan sizes, declared orders and key_only flags — never row contents,
// table names, or predicate identity.
// Two plans with equal signatures present the same public profile to the
// executor (sizes, orders, operator schedule), so the signature is the
// normalization key for the service plan cache, the circuit breaker, and
// the optimizer's revealed-size feedback (core/optimizer.h SizeFeedback).
// Built from public metadata only, so computing or logging it leaks
// nothing.  Example: "join(select?k(scan#128),scan#64@k!)" — a join of a
// key-only select over a 128-row scan with a key-sorted, key-unique
// 64-row scan.  Selects with different predicates over equal
// shapes share a signature; consumers that must distinguish them (e.g.
// the plan cache's identity hit) additionally require plan-pointer
// identity.
std::string PlanShapeSignature(const PlanPtr& plan);

struct PlanNodeStats;

// Post-execution rendering: the same tree annotated with each node's
// revealed output size, when order propagation elided entry sorts
// (op_sorts_elided > 0) a `sort=elided` marker, and — when the
// fault-injection counters recorded activity during the node's window
// (core/stats.h) — `faults=N`, `degraded=N`, and `retries=N` markers,
// e.g.
//
//   aggregate [rows=3 sort=elided]
//     join [rows=7 sort=elided]
//       distinct [rows=12]
//         scan(purchases) [rows=14]
//       scan(departments) [rows=4]
//
// `node_stats` must be the node_stats() of an Executor that just ran this plan (the
// post-order entry count is checked).
std::string ExplainPlan(const PlanPtr& plan,
                        const std::vector<PlanNodeStats>& node_stats);

struct PlanResult {
  // Always populated: the root's rows in the uniform Table shape.
  Table table;
  // Populated only when the root is kJoin / kAggregate respectively: the
  // operator's full-width native rows.
  std::vector<JoinedRecord> join_rows;
  std::vector<JoinGroupAggregate> aggregate_rows;
};

// One entry per executed node, in post-order (a node's inputs precede it —
// the order the operators actually ran in).
struct PlanNodeStats {
  PlanOp op;
  std::string label;
  uint64_t output_rows = 0;
  JoinStats stats;  // the node's operator counters (core/stats.h)
};

// Walks a plan tree bottom-up and runs every operator under the shared
// ExecContext.  If ctx.trace_sink is set, it is installed
// (memtrace::TraceScope) around the whole run, so the sink observes the
// query's complete public-memory trace.  Reusable: each Execute call
// resets node_stats().
class Executor {
 public:
  explicit Executor(const ExecContext& ctx) : ctx_(ctx) {}

  // When ctx.optimize is set (the default), the plan is first rewritten by
  // OptimizePlan (core/optimizer.h) and the rewritten tree executes;
  // executed_plan() returns it.  Outputs are byte-identical either way
  // (the optimizer's contract); node_stats() describes the *executed*
  // tree, so the annotated ExplainPlan overload must be called with
  // executed_plan(), not the tree passed in (they are the same object when
  // no rewrite applied).
  PlanResult Execute(const PlanPtr& plan);

  // Fallible variant: Execute under a recovery + cancellation scope
  // (RunRecoverable, core/exec_context.h).  A null plan is reported as
  // kInvalidArgument instead of aborting; environmental faults —
  // cancellation, deadline expiry, MAC failure past the retry budget,
  // resource exhaustion — come back as their Status.  node_stats() reflects
  // the nodes that completed before the fault (the in-flight node's entry
  // is not pushed).  Programming errors still abort.
  StatusOr<PlanResult> TryRun(const PlanPtr& plan);

  const std::vector<PlanNodeStats>& node_stats() const { return node_stats_; }

  // The tree the last Execute actually ran: the optimizer's rewrite when
  // ctx.optimize was set and a rule fired, otherwise the plan passed in.
  // Null before the first Execute.
  const PlanPtr& executed_plan() const { return executed_plan_; }

  // Sum of TotalComparisons over every node of the last Execute.
  uint64_t TotalComparisons() const;

 private:
  // ExecNode annotates any unwinding environmental fault with this node's
  // operator name (Status::Annotate), so a fault raised deep in the tree
  // surfaces naming the root-to-operator path ("distinct: join: MAC ...");
  // ExecNodeImpl is the actual recursive evaluator.
  Table ExecNode(const PlanPtr& node, PlanResult* root_result);
  Table ExecNodeImpl(const PlanPtr& node, PlanResult* root_result);

  ExecContext ctx_;
  std::vector<PlanNodeStats> node_stats_;
  PlanPtr executed_plan_;
};

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_PLAN_H_
