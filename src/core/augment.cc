#include "core/augment.h"

#include <algorithm>

#include "core/comparators.h"
#include "obliv/ct.h"
#include "obliv/merge.h"
#include "obliv/sort_kernel.h"

namespace oblivdb::core {

uint64_t FillDimensions(memtrace::OArray<Entry>& tc) {
  const size_t n = tc.size();
  if (n == 0) return 0;

  // Forward pass: running per-group counters.  While scanning a group, each
  // entry stores the incremental counts seen so far; the group's last entry
  // (the "boundary") ends up holding the true (alpha1, alpha2).
  uint64_t count1 = 0;
  uint64_t count2 = 0;
  uint64_t prev_key = 0;
  for (size_t i = 0; i < n; ++i) {
    Entry e = tc.Read(i);
    // i == 0 is a public condition, but the mask form costs nothing.
    const uint64_t same_group =
        ct::EqMask(e.join_key, prev_key) & ct::ToMask(i != 0);
    count1 = ct::Select(same_group, count1, 0);
    count2 = ct::Select(same_group, count2, 0);
    const uint64_t from_t1 = ct::EqMask(e.tid, 1);
    count1 += ct::MaskToBit(from_t1);
    count2 += ct::MaskToBit(~from_t1);
    e.alpha1 = count1;
    e.alpha2 = count2;
    prev_key = e.join_key;
    tc.Write(i, e);
  }

  // Backward pass: propagate each boundary's totals to the whole group and
  // accumulate m as the sum of the per-group products.
  uint64_t carry1 = 0;
  uint64_t carry2 = 0;
  uint64_t next_key = 0;
  uint64_t output_size = 0;
  for (size_t i = n; i-- > 0;) {
    Entry e = tc.Read(i);
    const uint64_t boundary =
        ct::ToMask(i == n - 1) | ct::NeqMask(e.join_key, next_key);
    const uint64_t alpha1 = ct::Select(boundary, e.alpha1, carry1);
    const uint64_t alpha2 = ct::Select(boundary, e.alpha2, carry2);
    output_size += ct::Select(boundary, alpha1 * alpha2, 0);
    e.alpha1 = alpha1;
    e.alpha2 = alpha2;
    carry1 = alpha1;
    carry2 = alpha2;
    next_key = e.join_key;
    tc.Write(i, e);
  }
  return output_size;
}

namespace {

// Staging chunk for span-batched bulk writes (one sink test per chunk
// instead of per element; the emitted per-element events are unchanged).
constexpr size_t kSpanChunk = 256;

}  // namespace

AugmentResult AugmentTables(const Table& table1, const Table& table2,
                            const ExecContext& ctx,
                            uint64_t* sort_comparisons,
                            const OrderHints& hints, uint64_t* sorts_elided) {
  const obliv::SortPolicy sort_policy = ctx.sort_policy;
  const size_t n1 = table1.size();
  const size_t n2 = table2.size();
  const size_t n = n1 + n2;

  // TC <- (T1 x {tid=1}) u (T2 x {tid=2}), staged span-wise: the event
  // sequence is the same <W, TC, 0..n-1> an element-wise loop emits.
  memtrace::OArray<Entry> tc(n, "TC");
  Entry staged[kSpanChunk];
  for (size_t i = 0; i < n1;) {
    const size_t c = std::min(kSpanChunk, n1 - i);
    for (size_t k = 0; k < c; ++k) {
      staged[k] = MakeEntry(table1.rows()[i + k], /*tid=*/1);
    }
    tc.WriteSpan(i, c, staged);
    i += c;
  }
  for (size_t i = 0; i < n2;) {
    const size_t c = std::min(kSpanChunk, n2 - i);
    for (size_t k = 0; k < c; ++k) {
      staged[k] = MakeEntry(table2.rows()[i + k], /*tid=*/2);
    }
    tc.WriteSpan(n1 + i, c, staged);
    i += c;
  }

  // Entry sort: TC by (j, tid).  Fill-Dimensions only needs j-groups
  // contiguous (its counters handle any tid interleave), and tid is
  // constant within each loaded run, so a run sorted by key is ascending
  // under the full (j, tid) comparator.  When a run's OrderSpec covers
  // by-key order, the O(n log^2 n) union sort collapses to per-run sorts
  // of the *unordered* runs plus one O(n log n) merge.  Ties in (j, tid)
  // may land in a different d-arrangement than the full sort's, but the
  // second sort below is full-width and canonicalizes it.
  // The cost model arbitrates merge-vs-full-sort instead of eliding
  // unconditionally: a small covered run can cost more to merge than the
  // full sort saves.  All inputs public (sizes, coverage from plan shape,
  // policy) — see RunMergePays.
  const bool cov_left = hints.left.Covers(OrderSpec::ByKey());
  const bool cov_right = hints.right.Covers(OrderSpec::ByKey());
  const bool merge_entry =
      ctx.sort_elision && (cov_left || cov_right) &&
      obliv::RunMergePays<Entry, ByJoinKeyThenTidLess>(
          sort_policy, n1, cov_left, n2, cov_right);
  if (merge_entry) {
    if (!hints.left.Covers(OrderSpec::ByKey())) {
      obliv::SortRange(tc, 0, n1, ByJoinKeyThenTidLess{}, sort_policy,
                       sort_comparisons, ctx.pool);
    }
    if (!hints.right.Covers(OrderSpec::ByKey())) {
      obliv::SortRange(tc, n1, n2, ByJoinKeyThenTidLess{}, sort_policy,
                       sort_comparisons, ctx.pool);
    }
    obliv::ObliviousMergeRuns(tc, 0, n1, n2, ByJoinKeyThenTidLess{},
                              sort_comparisons, ctx.pool);
    if (sorts_elided != nullptr) ++*sorts_elided;
  } else {
    obliv::Sort(tc, ByJoinKeyThenTidLess{}, sort_policy, sort_comparisons,
                ctx.pool);
  }
  const uint64_t output_size = FillDimensions(tc);
  obliv::Sort(tc, ByTidThenJoinKeyThenDataLess{}, sort_policy,
              sort_comparisons, ctx.pool);

  // TC[0, n1) is now the augmented T1 and TC[n1, n) the augmented T2.
  AugmentResult result{memtrace::OArray<Entry>(n1, "T1aug"),
                       memtrace::OArray<Entry>(n2, "T2aug"), output_size};
  memtrace::CopySpan(tc, 0, result.t1, 0, n1);
  memtrace::CopySpan(tc, n1, result.t2, 0, n2);
  return result;
}

}  // namespace oblivdb::core
