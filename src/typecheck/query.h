// Relational query programs: the operator-granularity analogue of the
// imperative DSL (ast.h / checker.h).
//
// The imperative layer certifies that the *kernels* are oblivious
// (statement-level typing, §6.1).  At the query level the argument is
// compositional: every relational operator in core/ has an access pattern
// determined by its input sizes and revealed output size, so any
// well-formed tree of them is oblivious end-to-end.  CheckQuery enforces
// exactly the well-formedness side conditions the argument needs —
//
//   * every scan names a table present in the (secret, label-H) catalog;
//   * arities match (unary/binary/variadic per operator);
//   * every select carries a constant-time predicate (the CtRowPredicate
//     contract of core/operators.h: mask-valued, local-memory only);
//
// and a checked query lowers to a core::Plan tree (query -> plan is the
// interpreter's job; see interpreter.h, QueryInterpreter).  Nothing here
// calls a relational operator directly.

#ifndef OBLIVDB_TYPECHECK_QUERY_H_
#define OBLIVDB_TYPECHECK_QUERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/operators.h"
#include "core/plan.h"
#include "table/table.h"

namespace oblivdb::typecheck {

struct QueryExpr;
using QueryPtr = std::shared_ptr<const QueryExpr>;

// One relational operator application: the same operator vocabulary as the
// plan layer (core::PlanOp — one enum, both switches stay exhaustive over
// it), but as a *named* program over a catalog: scans reference tables by
// name, so the same query runs against any store — the §6.1 two-store
// experiment at query granularity.
struct QueryExpr {
  core::PlanOp kind;
  std::string table_name;          // kScan
  core::CtRowPredicate predicate;  // kSelect
  // kSelect: the predicate reads only the join key (PlanNode::key_only in
  // core/plan.h) — lowered verbatim; it is the optimizer's license to push
  // the select below joins.  Declared client metadata, same trust-boundary
  // contract as a declared scan order.
  bool key_only = false;
  std::vector<QueryPtr> children;
};

// Builders.
QueryPtr QScan(std::string table_name);
// `key_only` declares the predicate reads only each row's join key (see
// QueryExpr::key_only).
QueryPtr QSelect(QueryPtr input, core::CtRowPredicate predicate,
                 bool key_only = false);
QueryPtr QDistinct(QueryPtr input);
QueryPtr QJoin(QueryPtr left, QueryPtr right);
QueryPtr QSemiJoin(QueryPtr left, QueryPtr right);
QueryPtr QAntiJoin(QueryPtr left, QueryPtr right);
QueryPtr QAggregate(QueryPtr left, QueryPtr right);
QueryPtr QUnion(QueryPtr left, QueryPtr right);
QueryPtr QMultiwayJoin(std::vector<QueryPtr> children);

// The store a query runs against.  All table contents are high-security
// (label H in the Figure 6 sense); table *names* and row counts are public.
//
// `table_orders` optionally declares a stored table's physical order
// (core/order.h) — public metadata like the name and size, the query-level
// analogue of core::Scan's declared-order overload.  Lowering binds the
// declaration onto the scan node unchanged, so order propagation (and the
// Executor's sort elision) works identically for checked programs and for
// hand-built plans.
struct QueryCatalog {
  std::map<std::string, Table> tables;
  std::map<std::string, core::OrderSpec> table_orders;
};

struct QueryCheckResult {
  bool ok = false;
  std::string error;  // empty when ok
};

// Structural check (see header comment).  Rejects null nodes, unknown scan
// tables, wrong arities and missing select predicates.
QueryCheckResult CheckQuery(const QueryPtr& query, const QueryCatalog& catalog);

// Lowers a query to an executable core::Plan tree, binding each scan to its
// catalog table.  Aborts if the query does not check — run CheckQuery first
// (QueryInterpreter::Run does both).
core::PlanPtr LowerToPlan(const QueryPtr& query, const QueryCatalog& catalog);

}  // namespace oblivdb::typecheck

#endif  // OBLIVDB_TYPECHECK_QUERY_H_
