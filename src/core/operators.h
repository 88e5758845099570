// The rest of the oblivious relational algebra.
//
// §1 of the paper notes that "making database operators oblivious does not
// pose much of an algorithmic challenge in most cases since often one can
// directly apply sorting networks (for instance to select or insert
// entries)" — joins being the hard case the paper solves.  This header
// supplies those easy-but-necessary operators so the library covers whole
// queries, all built from the same primitives (bitonic sort, compaction)
// and with the same leakage discipline: each operator's access pattern
// depends only on its input size and its (revealed) output size.
//
//   ObliviousSelect     sigma_p(T)        keep rows matching a ct predicate
//   ObliviousDistinct   delta(T)          drop duplicate (j, d) rows
//   ObliviousSemiJoin   T1 |x< T2         rows of T1 with a match in T2
//   ObliviousAntiJoin   T1 |>< T2         rows of T1 with no match in T2
//   ObliviousUnion      T1 u T2           multiset union (trivially a
//                                         concatenation; included for
//                                         query-plan completeness)

#ifndef OBLIVDB_CORE_OPERATORS_H_
#define OBLIVDB_CORE_OPERATORS_H_

#include <cstdint>
#include <functional>

#include "core/exec_context.h"
#include "core/order.h"
#include "table/table.h"

namespace oblivdb::core {

// Constant-time row predicate: full mask = keep.  Evaluated entirely in
// local memory; compose from ct:: helpers, e.g.
//   [](const Record& r) { return ct::LessMask(r.payload[0], 100); }
using CtRowPredicate = std::function<uint64_t(const Record&)>;

// Every operator takes the shared ExecContext: ctx.sort_policy picks the
// sort execution strategy (obliv/sort_kernel.h; pure speed knob, identical
// output and obliviousness for every policy), and each operator reports its
// phase counters — n1/n2, output size m, op_sort_comparisons, op_route_ops
// — through ctx.ReportStats under its name.
//
// Order-aware elision (core/order.h): the sorting operators additionally
// accept OrderHints promising the order their input tables already have.
// Under ctx.sort_elision a covered requirement skips the entry sort
// (Distinct) or collapses the union sort to a run merge (Semi/Anti), with
// the count in JoinStats::op_sorts_elided.  Outputs are byte-identical
// either way; decisions never read row contents.

// sigma_p: one linear pass + order-preserving compaction, O(n log n).
// Reveals the output size (like the join reveals m).  No sort to elide;
// the plan layer records that Select *preserves* its input's order.
Table ObliviousSelect(const Table& input, const CtRowPredicate& keep,
                      const ExecContext& ctx = {});

// delta: sort by (j, d), mark later duplicates in one pass, compact.
// O(n log^2 n); output sorted by (j, d).  An input covering ByKeyData
// (hints.left) elides the sort entirely — duplicates are already adjacent.
Table ObliviousDistinct(const Table& input, const ExecContext& ctx = {},
                        const OrderHints& hints = {});

// T1 |x<: every T1 row whose join value occurs in T2, each at most once
// regardless of the match count on the T2 side.  Augment-style pass over
// the tagged union, then compaction.  O(n log^2 n); output sorted by (j, d).
// An input covering ByKeyData turns the union entry sort into a run merge
// (the (j, tid, d) comparator is full-width, so covered runs must be
// d-sorted, not just key-sorted).
Table ObliviousSemiJoin(const Table& t1, const Table& t2,
                        const ExecContext& ctx = {},
                        const OrderHints& hints = {});

// T1 |><: the complement of the semi-join.  Same cost and leakage.
Table ObliviousAntiJoin(const Table& t1, const Table& t2,
                        const ExecContext& ctx = {},
                        const OrderHints& hints = {});

// Multiset union: a fixed-pattern concatenation (no data-dependent work at
// all; exposed so query plans can stay inside the oblivious API).
Table ObliviousUnion(const Table& t1, const Table& t2,
                     const ExecContext& ctx = {});

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_OPERATORS_H_
