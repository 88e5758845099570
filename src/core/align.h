// Align-Table (Algorithm 5): reorder the expanded S2 so that row i of S2
// matches row i of S1 for every i.
//
// Note on the index formula.  With the paper's own convention from
// Algorithm 2 / Figure 2 — alpha1 = group count in T1, alpha2 = group count
// in T2 — the expanded S2 holds alpha1 contiguous copies of each T2 entry,
// so the q-th entry of a group block (0-based) is copy  c = q mod alpha1  of
// distinct element  k = floor(q / alpha1), and its aligned position is
//
//     ii = floor(q / alpha1) + (q mod alpha1) * alpha2.
//
// Algorithm 5 as printed swaps alpha1/alpha2 relative to this (it matches
// Figure 5's caption, which labels the S1 block size "alpha1(x) = 3" even
// though that group has alpha1 = 2, alpha2 = 3 under Figure 2's convention).
// We follow the Figure 2 convention; the worked example of Figures 1/5 and
// the property tests against a reference join confirm this is the correct
// reading (see EXPERIMENTS.md, "Erratum").

#ifndef OBLIVDB_CORE_ALIGN_H_
#define OBLIVDB_CORE_ALIGN_H_

#include <cstdint>

#include "core/exec_context.h"
#include "core/order.h"
#include "memtrace/oarray.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace oblivdb::core {

// Reorders s2[0, m) in place.  ctx.sort_policy selects the sort
// implementation; `sort_comparisons`, when non-null, accumulates the
// alignment sort's compare-exchange count.
//
// Order-aware elision: `join_input_order` carries the OrderSpecs of the
// *join's* two input tables (the same hints ObliviousJoin received).  Mere
// sortedness never helps here — the required (j, ii) order interleaves
// copies within secret-sized group blocks — but *keyness* does: when
// either input is key-unique, every group block of the expanded S2 is
// already aligned (left-unique: alpha1 = 1, so ii = q, the block's
// existing position order; right-unique: alpha2 = 1, so the block holds
// alpha1 bytewise-identical copies of one element and any arrangement is
// the aligned one).  In that case the whole pass — the ii computation and
// the full m-sized sort, the join's dominant sort — is skipped and
// `sorts_elided`, when non-null, is incremented.  The decision reads only
// the hints and ctx.sort_elision, never data.
void AlignTable(memtrace::OArray<Entry>& s2, uint64_t m,
                const ExecContext& ctx = {},
                uint64_t* sort_comparisons = nullptr,
                const OrderHints& join_input_order = {},
                uint64_t* sorts_elided = nullptr);

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_ALIGN_H_
