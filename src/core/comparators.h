// Constant-time lexicographic comparators over Entry, one per sort the
// pipeline performs (§5).  Each returns a ct mask: all-ones iff the left
// entry strictly precedes the right one.
//
// Lexicographic composition pattern:
//   lt  = lt(k1)  |  eq(k1) & lt(k2)  |  eq(k1) & eq(k2) & lt(k3) ...

#ifndef OBLIVDB_CORE_COMPARATORS_H_
#define OBLIVDB_CORE_COMPARATORS_H_

#include <cstdint>

#include "obliv/ct.h"
#include "table/entry.h"

namespace oblivdb::core {

// Algorithm 2, line 3: Bitonic-Sort<j ^, tid ^>(TC) — groups entries with a
// common join value, table-1 entries before table-2 entries.
struct ByJoinKeyThenTidLess {
  uint64_t operator()(const Entry& a, const Entry& b) const {
    const uint64_t eq_j = ct::EqMask(a.join_key, b.join_key);
    return ct::LessMask(a.join_key, b.join_key) |
           (eq_j & ct::LessMask(a.tid, b.tid));
  }
};

// Algorithm 2, line 5: Bitonic-Sort<tid ^, j ^, d ^>(TC) — splits TC back
// into T1 followed by T2, each sorted by (j, d).
struct ByTidThenJoinKeyThenDataLess {
  uint64_t operator()(const Entry& a, const Entry& b) const {
    const uint64_t eq_tid = ct::EqMask(a.tid, b.tid);
    const uint64_t eq_j = ct::EqMask(a.join_key, b.join_key);
    const uint64_t eq_d0 = ct::EqMask(a.payload0, b.payload0);
    return ct::LessMask(a.tid, b.tid) |
           (eq_tid & ct::LessMask(a.join_key, b.join_key)) |
           (eq_tid & eq_j & ct::LessMask(a.payload0, b.payload0)) |
           (eq_tid & eq_j & eq_d0 & ct::LessMask(a.payload1, b.payload1));
  }
};

// Algorithm 5, line 8: Bitonic-Sort<j, ii>(S2) — the alignment sort.
struct ByJoinKeyThenAlignIndexLess {
  uint64_t operator()(const Entry& a, const Entry& b) const {
    const uint64_t eq_j = ct::EqMask(a.join_key, b.join_key);
    return ct::LessMask(a.join_key, b.join_key) |
           (eq_j & ct::LessMask(a.align_ii, b.align_ii));
  }
};

// Semi/anti-join pre-sort (operators.cc): (j ^, tid ^, d ^) — groups
// contiguous, T1 before T2, T1 rows d-sorted.
struct ByJoinKeyThenTidThenDataLess {
  uint64_t operator()(const Entry& a, const Entry& b) const {
    const uint64_t eq_j = ct::EqMask(a.join_key, b.join_key);
    const uint64_t eq_tid = ct::EqMask(a.tid, b.tid);
    const uint64_t eq_d0 = ct::EqMask(a.payload0, b.payload0);
    return ct::LessMask(a.join_key, b.join_key) |
           (eq_j & ct::LessMask(a.tid, b.tid)) |
           (eq_j & eq_tid & ct::LessMask(a.payload0, b.payload0)) |
           (eq_j & eq_tid & eq_d0 & ct::LessMask(a.payload1, b.payload1));
  }
};

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_COMPARATORS_H_
