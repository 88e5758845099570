// ObliviousJoin (Algorithm 1): the paper's primary contribution.
//
// Computes T1 |><| T2 = { (j, d1, d2) : (j, d1) in T1, (j, d2) in T2 } in
// O(n log^2 n + m log m) time with a constant-size local working set.  The
// sequence of public-memory accesses depends only on (n1, n2, m) — level II
// obliviousness (§4.3) — which the test suite verifies both by full-log
// comparison and by chained-SHA-256 trace hashes.
//
// Output rows are produced in lexicographic (j, d1, d2) order.

#ifndef OBLIVDB_CORE_JOIN_H_
#define OBLIVDB_CORE_JOIN_H_

#include <vector>

#include "core/exec_context.h"
#include "core/order.h"
#include "core/stats.h"
#include "table/record.h"
#include "table/table.h"

namespace oblivdb::core {

// The full oblivious equi-join.  Reveals (and returns rows of) the output
// length m, as discussed in §3.2 ("Revealing Output Length"); everything
// else about the inputs stays hidden in the access pattern.  Fills
// ctx.stats and reports to ctx.stats_sink as "join".
//
// Order-aware elision (core/order.h): `hints` promises the order of the
// two input tables.  Under ctx.sort_elision, a by-key-covered input lets
// Augment-Tables collapse its union entry sort to a run merge, and a
// key-unique input on either side lets Align-Table skip the full m-sized
// alignment sort outright; skipped sorts land in
// JoinStats::op_sorts_elided.  Outputs are byte-identical with elision on
// or off, and every decision is a function of (hints, flag, sizes) only.
std::vector<JoinedRecord> ObliviousJoin(const Table& table1,
                                        const Table& table2,
                                        const ExecContext& ctx = {},
                                        const OrderHints& hints = {});

// Fallible form of ObliviousJoin: the identical computation — same output,
// same trace — but environmental faults surface as a Status instead of an
// abort: kCancelled / kDeadlineExceeded when ctx.cancel_token or the
// ctx.deadline_seconds budget fires at a public checkpoint
// (common/cancel.h), kIntegrityViolation / kResourceExhausted when a fault
// site raises through the recovery unwind (common/status.h).  Programming
// errors (OBLIVDB_CHECK) still abort.
StatusOr<std::vector<JoinedRecord>> TryObliviousJoin(
    const Table& table1, const Table& table2, const ExecContext& ctx = {},
    const OrderHints& hints = {});

// Convenience: just the output size |T1 |><| T2|, in O(n log^2 n) time
// (Augment-Tables alone; no expansion).
uint64_t ObliviousJoinSize(const Table& table1, const Table& table2);

// Late-materialization variant for rows wider than the 128-bit inline data
// value: joins on the keys and returns, per output row, the *positions* of
// the contributing rows in the two input tables.  The caller can then fetch
// the full rows — obliviously if required (e.g. through an ORAM or a linear
// scan), or directly when the output is already at the trust boundary.
// Same cost and leakage as ObliviousJoin.
struct JoinedRowIds {
  uint64_t key = 0;
  uint64_t row1 = 0;  // index into table1.rows()
  uint64_t row2 = 0;  // index into table2.rows()

  friend bool operator==(const JoinedRowIds&, const JoinedRowIds&) = default;
};
std::vector<JoinedRowIds> ObliviousJoinRowIds(const Table& table1,
                                              const Table& table2);

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_JOIN_H_
