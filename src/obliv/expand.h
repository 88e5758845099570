// Oblivious-Expand (Algorithm 4): replace each element x by g(x) contiguous
// copies, dropping elements with g(x) == 0.
//
// Split into two phases so the caller can follow the paper's output-length
// protocol (§3.4, constraint 3): phase one computes the expanded size M
// (which the caller may reveal and use to allocate); phase two distributes
// into the pre-allocated array and fills the gaps.
//
//   uint64_t m = AssignExpandDestinations(x, g);   // O(n), sets f values
//   OArray<T> out(std::max(x.size(), m));
//   ExpandToDestinations(x, out, m);               // distribute + fill-down

#ifndef OBLIVDB_OBLIV_EXPAND_H_
#define OBLIVDB_OBLIV_EXPAND_H_

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "memtrace/oarray.h"
#include "obliv/distribute.h"
#include "obliv/routing.h"

namespace oblivdb::obliv {

// Constant-time count function: g(x) as a plain integer (the count itself
// lives in local memory; only the array accesses are observable).
template <typename F, typename T>
concept CtCount = requires(const F& f, const T& t) {
  { f(t) } -> std::convertible_to<uint64_t>;
};

// Phase one: the cumulative-sum pass of Algorithm 4, lines 3-11.  Each
// element receives the 1-based index of its first copy in the expanded
// output as its routing destination; elements with g(x) == 0 are marked
// null (dest 0).  Returns the expanded size M = sum of g(x).
template <Routable T, typename CountFn>
  requires CtCount<CountFn, T>
uint64_t AssignExpandDestinations(memtrace::OArray<T>& x, const CountFn& g) {
  uint64_t next_free = 1;  // the paper's running sum s
  for (size_t i = 0; i < x.size(); ++i) {
    T e = x.Read(i);
    const uint64_t count = g(e);
    const uint64_t is_zero = ct::EqMask(count, 0);
    SetRouteDest(e, ct::Select(is_zero, 0, next_free));
    next_free += count;  // adds 0 when count == 0; no branch needed
    x.Write(i, e);
  }
  return next_free - 1;
}

// Phase two: Ext-Oblivious-Distribute into `out`, then one linear pass that
// duplicates each element into the null slots that follow it (Figure 4).
// Requires out.size() >= max(x.size(), m) — exactly the paper's
// max(n_i, m) space bound (§6.2) — and out pre-initialized to nulls
// (zero-initialized entries have dest 0, so a fresh OArray qualifies).
template <Routable T>
void ExpandToDestinations(const memtrace::OArray<T>& x, memtrace::OArray<T>& out,
                          uint64_t m, PrimitiveStats* stats = nullptr,
                          SortPolicy sort_policy = SortPolicy::kBlocked,
                          ThreadPool* pool = nullptr) {
  const size_t n = x.size();
  OBLIVDB_CHECK_GE(out.size(), std::max<uint64_t>(n, m));

  // Move the inputs into the working array's prefix, span-batched (same
  // per-element events as an access loop, one sink test per chunk).
  memtrace::CopySpan(x, 0, out, 0, n);

  ObliviousDistribute(out, n, stats, sort_policy, pool);

  // Fill-down: each slot that still holds a null inherits the most recent
  // real element.  The blend touches every slot identically.
  T previous{};  // zero-initialized null
  for (uint64_t i = 0; i < m; ++i) {
    T current = out.Read(i);
    const uint64_t is_null = ct::EqMask(GetRouteDest(current), 0);
    current = ct::Blend(is_null, previous, current);
    previous = current;
    out.Write(i, current);
  }
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_EXPAND_H_
