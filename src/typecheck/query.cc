#include "typecheck/query.h"

#include <utility>

#include "common/check.h"

namespace oblivdb::typecheck {

namespace {

std::shared_ptr<QueryExpr> MakeQuery(core::PlanOp kind,
                                     std::vector<QueryPtr> children) {
  auto q = std::make_shared<QueryExpr>();
  q->kind = kind;
  q->children = std::move(children);
  return q;
}

}  // namespace

QueryPtr QScan(std::string table_name) {
  auto q = std::make_shared<QueryExpr>();
  q->kind = core::PlanOp::kScan;
  q->table_name = std::move(table_name);
  return q;
}

QueryPtr QSelect(QueryPtr input, core::CtRowPredicate predicate,
                 bool key_only) {
  auto q = std::make_shared<QueryExpr>();
  q->kind = core::PlanOp::kSelect;
  q->predicate = std::move(predicate);
  q->key_only = key_only;
  q->children.push_back(std::move(input));
  return q;
}

QueryPtr QDistinct(QueryPtr input) {
  return MakeQuery(core::PlanOp::kDistinct, {std::move(input)});
}

QueryPtr QJoin(QueryPtr left, QueryPtr right) {
  return MakeQuery(core::PlanOp::kJoin, {std::move(left), std::move(right)});
}

QueryPtr QSemiJoin(QueryPtr left, QueryPtr right) {
  return MakeQuery(core::PlanOp::kSemiJoin,
                   {std::move(left), std::move(right)});
}

QueryPtr QAntiJoin(QueryPtr left, QueryPtr right) {
  return MakeQuery(core::PlanOp::kAntiJoin,
                   {std::move(left), std::move(right)});
}

QueryPtr QAggregate(QueryPtr left, QueryPtr right) {
  return MakeQuery(core::PlanOp::kAggregate,
                   {std::move(left), std::move(right)});
}

QueryPtr QUnion(QueryPtr left, QueryPtr right) {
  return MakeQuery(core::PlanOp::kUnion,
                   {std::move(left), std::move(right)});
}

QueryPtr QMultiwayJoin(std::vector<QueryPtr> children) {
  return MakeQuery(core::PlanOp::kMultiwayJoin, std::move(children));
}

namespace {

// Required child count per kind; kMultiwayJoin is checked separately
// (variadic, >= 1).
int Arity(core::PlanOp kind) {
  switch (kind) {
    case core::PlanOp::kScan: return 0;
    case core::PlanOp::kSelect:
    case core::PlanOp::kDistinct: return 1;
    case core::PlanOp::kJoin:
    case core::PlanOp::kSemiJoin:
    case core::PlanOp::kAntiJoin:
    case core::PlanOp::kAggregate:
    case core::PlanOp::kUnion: return 2;
    case core::PlanOp::kMultiwayJoin: return -1;
  }
  OBLIVDB_CHECK(false);
  return -1;
}

QueryCheckResult Fail(std::string error) {
  return QueryCheckResult{false, std::move(error)};
}

QueryCheckResult CheckNode(const QueryPtr& q, const QueryCatalog& catalog) {
  if (q == nullptr) return Fail("null query node");

  const int arity = Arity(q->kind);
  if (arity >= 0 && q->children.size() != static_cast<size_t>(arity)) {
    return Fail(std::string(core::PlanOpName(q->kind)) + ": expected " +
                std::to_string(arity) + " input(s), got " +
                std::to_string(q->children.size()));
  }
  if (q->kind == core::PlanOp::kMultiwayJoin && q->children.empty()) {
    return Fail("multiway_join: requires at least one input");
  }

  switch (q->kind) {
    case core::PlanOp::kScan:
      if (catalog.tables.find(q->table_name) == catalog.tables.end()) {
        return Fail("scan: unknown table '" + q->table_name + "'");
      }
      break;
    case core::PlanOp::kSelect:
      if (q->predicate == nullptr) {
        return Fail("select: missing constant-time predicate");
      }
      break;
    default:
      break;
  }

  for (const QueryPtr& child : q->children) {
    QueryCheckResult r = CheckNode(child, catalog);
    if (!r.ok) return r;
  }
  return QueryCheckResult{true, ""};
}

}  // namespace

namespace {

// Lowering for an already-checked subtree (one CheckQuery pass at the
// public entry point, then a plain recursive walk).
core::PlanPtr LowerNode(const QueryPtr& query, const QueryCatalog& catalog) {
  switch (query->kind) {
    case core::PlanOp::kScan: {
      // Orders pass through unchanged: a declared catalog order lands on
      // the scan node verbatim and propagates from there (ProducedOrder).
      const auto order = catalog.table_orders.find(query->table_name);
      return core::Scan(catalog.tables.at(query->table_name),
                        order != catalog.table_orders.end()
                            ? order->second
                            : core::OrderSpec::None());
    }
    case core::PlanOp::kSelect:
      return core::Select(LowerNode(query->children[0], catalog),
                          query->predicate, query->key_only);
    case core::PlanOp::kDistinct:
      return core::Distinct(LowerNode(query->children[0], catalog));
    case core::PlanOp::kJoin:
      return core::Join(LowerNode(query->children[0], catalog),
                        LowerNode(query->children[1], catalog));
    case core::PlanOp::kSemiJoin:
      return core::SemiJoin(LowerNode(query->children[0], catalog),
                            LowerNode(query->children[1], catalog));
    case core::PlanOp::kAntiJoin:
      return core::AntiJoin(LowerNode(query->children[0], catalog),
                            LowerNode(query->children[1], catalog));
    case core::PlanOp::kAggregate:
      return core::Aggregate(LowerNode(query->children[0], catalog),
                             LowerNode(query->children[1], catalog));
    case core::PlanOp::kUnion:
      return core::Union(LowerNode(query->children[0], catalog),
                         LowerNode(query->children[1], catalog));
    case core::PlanOp::kMultiwayJoin: {
      std::vector<core::PlanPtr> inputs;
      inputs.reserve(query->children.size());
      for (const QueryPtr& child : query->children) {
        inputs.push_back(LowerNode(child, catalog));
      }
      return core::MultiwayJoin(std::move(inputs));
    }
  }
  OBLIVDB_CHECK(false);
  return nullptr;
}

}  // namespace

QueryCheckResult CheckQuery(const QueryPtr& query,
                            const QueryCatalog& catalog) {
  return CheckNode(query, catalog);
}

core::PlanPtr LowerToPlan(const QueryPtr& query, const QueryCatalog& catalog) {
  const QueryCheckResult checked = CheckQuery(query, catalog);
  OBLIVDB_CHECK(checked.ok);
  return LowerNode(query, catalog);
}

}  // namespace oblivdb::typecheck
