// Augment-Tables (Algorithm 2): compute each entry's group dimensions
// (alpha1, alpha2) and the join output size m.
//
// The input tables are concatenated into TC, sorted by (j, tid) so groups
// are contiguous, run through Fill-Dimensions (two linear passes, Figure 2),
// re-sorted by (tid, j, d) and split back into the augmented T1 and T2 —
// each now sorted lexicographically by (j, d).

#ifndef OBLIVDB_CORE_AUGMENT_H_
#define OBLIVDB_CORE_AUGMENT_H_

#include <cstdint>

#include "core/exec_context.h"
#include "core/order.h"
#include "memtrace/oarray.h"
#include "obliv/routing.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"
#include "table/table.h"

namespace oblivdb::core {

struct AugmentResult {
  memtrace::OArray<Entry> t1;  // augmented, sorted by (j, d)
  memtrace::OArray<Entry> t2;  // augmented, sorted by (j, d)
  uint64_t output_size;        // m = |T1 |><| T2|
};

// Runs Algorithm 2 on the two input tables.  ctx.sort_policy selects the
// sort implementation (see obliv/sort_kernel.h).  `sort_comparisons`, when
// non-null, accumulates the compare-exchange count of both bitonic sorts.
//
// Order-aware elision: `hints` promises the order each input table already
// has (core/order.h).  When ctx.sort_elision is on and at least one input
// covers the by-key order, the entry sort of TC by (j, tid) collapses: any
// still-unordered run is sorted in place (at its own, smaller size) and
// the two runs are merged in O(n log n) (obliv/merge.h) — the full O(n
// log^2 n) union sort is elided and `sorts_elided`, when non-null, is
// incremented.  The Fill-Dimensions passes are tie-order-insensitive, and
// the second sort (by (tid, j, d), never elidable) canonicalizes the
// arrangement, so the result is byte-identical to the unelided path.  All
// decisions depend only on (hints, flag, sizes).
AugmentResult AugmentTables(const Table& table1, const Table& table2,
                            const ExecContext& ctx = {},
                            uint64_t* sort_comparisons = nullptr,
                            const OrderHints& hints = {},
                            uint64_t* sorts_elided = nullptr);

// Fill-Dimensions: the forward/backward pass pair of Figure 2.  Expects tc
// sorted by (j, tid); on return every entry carries its group's final
// (alpha1, alpha2).  Returns m = sum over groups of alpha1 * alpha2.
// Exposed for unit testing; AugmentTables is the normal entry point.
uint64_t FillDimensions(memtrace::OArray<Entry>& tc);

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_AUGMENT_H_
