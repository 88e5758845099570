// Oblivious-Distribute (§5.2): map each element x to index f(x) of an array
// of size m >= n, where f is injective into {1, ..., m}.
//
// Two implementations, as in the paper:
//   * ObliviousDistribute — deterministic: bitonic sort by destination, then
//     the RouteForward network.  O(n log^2 n + m log m).  This is the
//     variant the prototype uses (easy to test for obliviousness, no
//     cryptographic assumption).
//   * ObliviousDistributeProbabilistic — scatter to pi(f(x)) for a
//     pseudorandom permutation pi, then bitonic-sort by pi^{-1}(slot).
//     O(m log^2 m); oblivious in the probabilistic sense.
//
// Both accept the "extended" inputs of Algorithm 4: elements marked null
// (dest == 0) are allowed and end up in the slack slots (deterministic
// variant only; the probabilistic variant requires all-real inputs, which
// is how the paper presents it).

#ifndef OBLIVDB_OBLIV_DISTRIBUTE_H_
#define OBLIVDB_OBLIV_DISTRIBUTE_H_

#include <cstdint>

#include "crypto/feistel_prp.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"
#include "obliv/routing.h"
#include "obliv/sort_kernel.h"

namespace oblivdb::obliv {

// Deterministic distribution (Algorithm 3 + the Ext generalization).
// On entry: a[0, n) holds the input elements with 1-based destinations in
// [1, a.size()] set via SetRouteDest (0 = null, to be discarded into slack);
// a[n, size) holds nulls.  Destinations of non-null elements are distinct.
// On exit: each non-null element x sits at index GetRouteDest(x) - 1.
template <Routable T>
void ObliviousDistribute(memtrace::OArray<T>& a, size_t n,
                         PrimitiveStats* stats = nullptr,
                         SortPolicy sort_policy = SortPolicy::kBlocked,
                         ThreadPool* pool = nullptr) {
  OBLIVDB_CHECK_LE(n, a.size());
  uint64_t* comparisons = stats != nullptr ? &stats->sort_comparisons : nullptr;
  // Sort only the occupied prefix (O(n log^2 n)); the tail is already null.
  SortRange(a, 0, n, NullsLastByDestLess{}, sort_policy, comparisons, pool);
  RouteForward(a, stats);
}

// Probabilistic distribution (§5.2, first approach).  All n input elements
// must be non-null with distinct destinations in [1, a.size()].  The write
// locations pi(f(x_1)), ..., pi(f(x_n)) are a uniformly random n-subset of
// the slots, so the trace distribution is input-independent.  The undo sort
// runs under `sort_policy` and fans out on `pool` (nullptr = global pool).
template <Routable T>
void ObliviousDistributeProbabilistic(memtrace::OArray<T>& a, size_t n,
                                      uint64_t prp_key,
                                      PrimitiveStats* stats = nullptr,
                                      SortPolicy sort_policy =
                                          SortPolicy::kBlocked,
                                      ThreadPool* pool = nullptr) {
  const size_t m = a.size();
  OBLIVDB_CHECK_LE(n, m);
  crypto::FeistelPrp prp(m, prp_key);

  // Scatter pass: x goes to slot pi(f(x) - 1).
  memtrace::OArray<T> scattered(m, "od_scatter");
  for (size_t i = 0; i < n; ++i) {
    T x = a.Read(i);
    const uint64_t dest = GetRouteDest(x);
    OBLIVDB_CHECK_GE(dest, 1u);
    OBLIVDB_CHECK_LE(dest, m);
    scattered.Write(prp.Forward(dest - 1), x);
  }

  // Key pass: element in slot s gets key pi^{-1}(s) + 1.  For a scattered
  // element that is exactly its original destination; empty slots receive
  // the unused destinations, so all m keys are distinct.
  for (size_t s = 0; s < m; ++s) {
    T x = scattered.Read(s);
    SetRouteDest(x, prp.Inverse(s) + 1);
    scattered.Write(s, x);
  }

  // Sorting by the key undoes the permutation's masking.
  uint64_t* comparisons = stats != nullptr ? &stats->sort_comparisons : nullptr;
  Sort(scattered, NullsLastByDestLess{}, sort_policy, comparisons, pool);

  for (size_t s = 0; s < m; ++s) a.Write(s, scattered.Read(s));
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_DISTRIBUTE_H_
