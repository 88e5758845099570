#include "core/operators.h"

#include "common/timer.h"
#include "core/comparators.h"
#include "memtrace/oarray.h"
#include "obliv/compact.h"
#include "obliv/ct.h"
#include "obliv/merge.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace oblivdb::core {
namespace {

// Loads a table into an OArray<Entry> with the given table id.
memtrace::OArray<Entry> LoadEntries(const Table& t, uint64_t tid,
                                    const char* name) {
  memtrace::OArray<Entry> arr(t.size(), name);
  for (size_t i = 0; i < t.size(); ++i) {
    arr.Write(i, MakeEntry(t.rows()[i], tid));
  }
  return arr;
}

struct KeepUnflagged {
  uint64_t operator()(const Entry& e) const {
    return ct::EqMask(e.flags & kEntryFlagDummy, 0);
  }
};

// Compacts the unflagged entries to the front and converts the survivors
// back into a Table (revealing their count, the operator's output size).
// The compaction's routing steps land in stats->op_route_ops.
Table ExtractKept(memtrace::OArray<Entry>& arr, const std::string& name,
                  JoinStats* stats) {
  obliv::PrimitiveStats compact_stats;
  const uint64_t kept =
      obliv::ObliviousCompact(arr, KeepUnflagged{}, &compact_stats);
  stats->op_route_ops += compact_stats.route_ops;
  stats->m = kept;
  Table out(name);
  out.rows().reserve(kept);
  for (uint64_t i = 0; i < kept; ++i) {
    out.Add(EntryToRecord(arr.Read(i)));
  }
  return out;
}

}  // namespace

Table ObliviousSelect(const Table& input, const CtRowPredicate& keep,
                      const ExecContext& ctx) {
  JoinStats stats;
  stats.n1 = input.size();
  Timer timer;
  memtrace::OArray<Entry> arr = LoadEntries(input, 1, "SEL");
  for (size_t i = 0; i < arr.size(); ++i) {
    Entry e = arr.Read(i);
    const uint64_t keep_mask = keep(EntryToRecord(e));
    e.flags = ct::Select(keep_mask, e.flags & ~kEntryFlagDummy,
                         e.flags | kEntryFlagDummy);
    arr.Write(i, e);
  }
  Table out = ExtractKept(arr, input.name() + "_selected", &stats);
  stats.total_seconds = timer.ElapsedSeconds();
  ctx.ReportStats("select", stats);
  return out;
}

Table ObliviousDistinct(const Table& input, const ExecContext& ctx,
                        const OrderHints& hints) {
  JoinStats stats;
  stats.n1 = input.size();
  Timer timer;
  memtrace::OArray<Entry> arr = LoadEntries(input, 1, "DST");
  // Entry sort by (tid, j, d); tid is constant (all rows carry tid = 1),
  // so the requirement on the input is exactly (j, d0, d1) — ByKeyData.
  // A covered input is loaded already in that order and the duplicate-
  // adjacency invariant below holds without any sort.
  if (ctx.sort_elision && hints.left.Covers(OrderSpec::ByKeyData())) {
    ++stats.op_sorts_elided;
  } else {
    obliv::Sort(arr, ByTidThenJoinKeyThenDataLess{}, ctx.sort_policy,
                &stats.op_sort_comparisons, ctx.pool);
  }
  // Equal rows are now adjacent; flag every row equal to its predecessor.
  uint64_t prev_key = 0, prev_d0 = 0, prev_d1 = 0;
  for (size_t i = 0; i < arr.size(); ++i) {
    Entry e = arr.Read(i);
    const uint64_t duplicate = ct::EqMask(e.join_key, prev_key) &
                               ct::EqMask(e.payload0, prev_d0) &
                               ct::EqMask(e.payload1, prev_d1) &
                               ct::ToMask(i != 0);
    e.flags = ct::Select(duplicate, e.flags | kEntryFlagDummy,
                         e.flags & ~kEntryFlagDummy);
    prev_key = e.join_key;
    prev_d0 = e.payload0;
    prev_d1 = e.payload1;
    arr.Write(i, e);
  }
  Table out = ExtractKept(arr, input.name() + "_distinct", &stats);
  stats.total_seconds = timer.ElapsedSeconds();
  ctx.ReportStats("distinct", stats);
  return out;
}

namespace {

// Shared semi/anti-join core: tag, sort by (j, tid), compute "group has a
// T2 member" per T1 row with a backward pass, flag accordingly, re-sort to
// (j, d) order among survivors via the compaction's order preservation...
// Order note: compaction preserves (j, tid) order, so surviving T1 rows
// come out sorted by j with original tid-group order by (j, tid); a final
// by-(j, d) ordering needs the d tiebreak, so we sort the tagged union by
// (j, tid, d) up front — survivors are then (j, d)-sorted automatically.
Table SemiOrAntiJoin(const Table& t1, const Table& t2, bool want_match,
                     const char* label, const ExecContext& ctx,
                     const OrderHints& hints) {
  JoinStats stats;
  stats.n1 = t1.size();
  stats.n2 = t2.size();
  Timer timer;
  const size_t n1 = t1.size();
  const size_t n2 = t2.size();
  const size_t n = n1 + n2;
  memtrace::OArray<Entry> arr(n, label);
  for (size_t i = 0; i < n1; ++i) {
    arr.Write(i, MakeEntry(t1.rows()[i], 1));
  }
  for (size_t i = 0; i < n2; ++i) {
    arr.Write(n1 + i, MakeEntry(t2.rows()[i], 2));
  }
  // (j ^, tid ^, d ^): groups contiguous, T1 before T2, T1 rows d-sorted.
  // The comparator is full-width, so a run is ascending under it exactly
  // when its table is (j, d0, d1)-sorted (tid constant per run): a
  // ByKeyData-covered input elides the union sort into per-run sorts of
  // the uncovered runs plus one O(n log n) merge.  Remaining ties are
  // bytewise-identical entries, so the merged array equals the fully
  // sorted one byte for byte.
  // Cost-arbitrated like the join's entry sort: merge only when the model
  // says [per-run sorts + one merge] beats the full union sort under the
  // current policy (RunMergePays).
  const bool cov_left = hints.left.Covers(OrderSpec::ByKeyData());
  const bool cov_right = hints.right.Covers(OrderSpec::ByKeyData());
  const bool merge_entry =
      ctx.sort_elision && (cov_left || cov_right) &&
      obliv::RunMergePays<Entry, ByJoinKeyThenTidThenDataLess>(
          ctx.sort_policy, n1, cov_left, n2, cov_right);
  if (merge_entry) {
    if (!hints.left.Covers(OrderSpec::ByKeyData())) {
      obliv::SortRange(arr, 0, n1, ByJoinKeyThenTidThenDataLess{},
                       ctx.sort_policy, &stats.op_sort_comparisons, ctx.pool);
    }
    if (!hints.right.Covers(OrderSpec::ByKeyData())) {
      obliv::SortRange(arr, n1, n2, ByJoinKeyThenTidThenDataLess{},
                       ctx.sort_policy, &stats.op_sort_comparisons, ctx.pool);
    }
    obliv::ObliviousMergeRuns(arr, 0, n1, n2, ByJoinKeyThenTidThenDataLess{},
                              &stats.op_sort_comparisons, ctx.pool);
    ++stats.op_sorts_elided;
  } else {
    obliv::Sort(arr, ByJoinKeyThenTidThenDataLess{}, ctx.sort_policy,
                &stats.op_sort_comparisons, ctx.pool);
  }

  // Backward pass: within a group the T2 rows (tid 2) come last, so a
  // carried "group has T2" bit reaches every T1 row of the group.
  uint64_t group_has_t2 = 0;  // ct mask
  uint64_t next_key = 0;
  const uint64_t want_mask = ct::ToMask(want_match);
  for (size_t i = n; i-- > 0;) {
    Entry e = arr.Read(i);
    const uint64_t same_group =
        ct::EqMask(e.join_key, next_key) & ct::ToMask(i != n - 1);
    group_has_t2 = ct::Select(same_group, group_has_t2, 0);
    group_has_t2 |= ct::EqMask(e.tid, 2);
    // Keep T1 rows whose match bit equals the wanted polarity.
    const uint64_t keep =
        ct::EqMask(e.tid, 1) & ~(group_has_t2 ^ want_mask);
    e.flags = ct::Select(keep, e.flags & ~kEntryFlagDummy,
                         e.flags | kEntryFlagDummy);
    next_key = e.join_key;
    arr.Write(i, e);
  }
  Table out = ExtractKept(arr, std::string(t1.name()) + "_" + label, &stats);
  stats.total_seconds = timer.ElapsedSeconds();
  ctx.ReportStats(label, stats);
  return out;
}

}  // namespace

Table ObliviousSemiJoin(const Table& t1, const Table& t2,
                        const ExecContext& ctx, const OrderHints& hints) {
  return SemiOrAntiJoin(t1, t2, /*want_match=*/true, "semijoin", ctx, hints);
}

Table ObliviousAntiJoin(const Table& t1, const Table& t2,
                        const ExecContext& ctx, const OrderHints& hints) {
  return SemiOrAntiJoin(t1, t2, /*want_match=*/false, "antijoin", ctx, hints);
}

Table ObliviousUnion(const Table& t1, const Table& t2,
                     const ExecContext& ctx) {
  JoinStats stats;
  stats.n1 = t1.size();
  stats.n2 = t2.size();
  Timer timer;
  Table out(t1.name() + "_u_" + t2.name());
  out.rows().reserve(t1.size() + t2.size());
  for (const Record& r : t1.rows()) out.Add(r);
  for (const Record& r : t2.rows()) out.Add(r);
  stats.m = out.size();
  stats.total_seconds = timer.ElapsedSeconds();
  ctx.ReportStats("union", stats);
  return out;
}

}  // namespace oblivdb::core
