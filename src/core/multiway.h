// Multi-way natural joins via cascaded binary oblivious joins — the first
// extension sketched in §7 ("compound queries involving joins").
//
// All tables are joined on their single join attribute:
//     T1 |><| T2 |><| ... |><| Tk   (shared key j).
//
// Composition note: a binary join result carries two 128-bit data values.
// When an intermediate result feeds the next join, its data value packs the
// *first* 64-bit payload word of each side, so a k-way join keeps one
// 64-bit attribute per source table for k <= 3 and the first attribute of
// each cascade side beyond that.  This is the usual late-materialization
// compromise; examples/multiway_query.cpp shows recovering full rows by
// carrying row ids.

#ifndef OBLIVDB_CORE_MULTIWAY_H_
#define OBLIVDB_CORE_MULTIWAY_H_

#include <vector>

#include "core/join.h"
#include "table/table.h"

namespace oblivdb::core {

// Joins all tables on the shared key.  Requires at least one table; with
// exactly one, returns it unchanged.  Each cascade step is a full oblivious
// binary join, so every step's access pattern depends only on its input and
// output sizes.  `ctx` applies to every cascade step; ctx.stats, if set,
// receives counters *summed over all steps* (sizes from the last step) so
// whole-cascade cost is never undercounted, and ctx.stats_sink sees one
// "join" report per step.
//
// Order-aware elision (core/order.h): `input_orders`, when non-empty, must
// have one OrderSpec per table (the caller's promise for each input; the
// plan Executor fills it from upstream nodes).  Independent of the caller,
// every cascade step past the first feeds the previous step's output into
// the next join, and a join's output is always key-sorted — so under
// ctx.sort_elision the interior steps' Augment entry sorts collapse to run
// merges even with no hints at all, and key-unique inputs compound (a
// cascade of key-unique tables skips every Align sort too).  Elisions sum
// into the accumulated JoinStats::op_sorts_elided.
Table ObliviousMultiwayJoin(const std::vector<Table>& tables,
                            const ExecContext& ctx = {},
                            const std::vector<OrderSpec>& input_orders = {});

// Exact three-way join, lossless in both payload words of every table:
// returns rows (j, d1, d2, d3) with d_i the first payload word of table i.
struct ThreeWayRow {
  uint64_t key;
  uint64_t d1;
  uint64_t d2;
  uint64_t d3;

  friend bool operator==(const ThreeWayRow&, const ThreeWayRow&) = default;
};
std::vector<ThreeWayRow> ObliviousThreeWayJoin(const Table& t1,
                                               const Table& t2,
                                               const Table& t3,
                                               const ExecContext& ctx = {});

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_MULTIWAY_H_
