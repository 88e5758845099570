// The deterministic routing network at the heart of Oblivious-Distribute
// (Algorithm 3) and its mirror image, order-preserving tight compaction
// (Goodrich-style, §3.5).
//
// Elements carry a 1-based routing destination (0 marks a null/dummy
// element), exposed through the ADL trait functions GetRouteDest /
// SetRouteDest.  Both passes perform exactly the same sequence of public
// reads and writes for every input of a given length: the hop schedule is a
// function of the array size alone, and each step reads and rewrites both
// endpoints whether or not they swap.
//
// Execution gets the blocked treatment of the sort kernel
// (obliv/sort_block.h): the hop passes run on the array's raw storage with
// an in-place CondSwap — no per-access bounds check, sink test, or by-value
// element copies — while a cached OArray::EventEmitter reports the exact
// <R,i> <R,i+j> <W,i> <W,i+j> per-step event sequence the element-wise
// loops used to perform, so the adversary-visible trace is unchanged
// (tests/routing_test.cc pins both the trace and its data-independence).

#ifndef OBLIVDB_OBLIV_ROUTING_H_
#define OBLIVDB_OBLIV_ROUTING_H_

#include <concepts>
#include <cstdint>

#include "common/bits.h"
#include "memtrace/oarray.h"
#include "obliv/ct.h"

namespace oblivdb::obliv {

// Element type that can flow through the routing networks.  The destination
// is 1-based; 0 designates a null element that never moves on its own.
template <typename T>
concept Routable = requires(const T& c, T& t, uint64_t d) {
  { GetRouteDest(c) } -> std::convertible_to<uint64_t>;
  SetRouteDest(t, d);
};

// Counters shared by the sorting / routing primitives (Table 3).
struct PrimitiveStats {
  uint64_t sort_comparisons = 0;  // compare-exchanges in bitonic sorts
  uint64_t route_ops = 0;         // read-pair/write-pair routing steps
};

namespace internal {

// Raw-memory hop passes.  kTraced splits at compile time exactly like the
// sort kernel: the untraced configuration touches nothing but the data.

template <bool kTraced, typename T, typename Emitter>
void RawRouteForward(T* d, size_t n, Emitter* emitter,
                     PrimitiveStats* stats) {
  // Hop sizes 2^(ceil(log2 n) - 1), ..., 2, 1: each element advances by the
  // hops in the binary expansion of its remaining distance.
  for (uint64_t j = CeilPow2(n) / 2; j >= 1; j /= 2) {
    for (size_t i = n - j; i-- > 0;) {
      if constexpr (kTraced) {
        emitter->EmitRead(i);
        emitter->EmitRead(i + j);
      }
      // 1-based condition from Algorithm 3: f(y) >= i + j, i.e. y can hop a
      // full j without overshooting.  Null dest 0 never satisfies it.
      const uint64_t hop = ct::GeqMask(GetRouteDest(d[i]), i + j + 1);
      ct::CondSwap(hop, d[i], d[i + j]);
      if constexpr (kTraced) {
        emitter->EmitWrite(i);
        emitter->EmitWrite(i + j);
      }
      if (stats != nullptr) ++stats->route_ops;
    }
  }
}

template <bool kTraced, typename T, typename Emitter>
void RawRouteToFront(T* d, size_t n, Emitter* emitter,
                     PrimitiveStats* stats) {
  for (uint64_t j = 1; j < n; j *= 2) {
    for (size_t p = j; p < n; ++p) {
      if constexpr (kTraced) {
        emitter->EmitRead(p - j);
        emitter->EmitRead(p);
      }
      // y (at 1-based position p+1) hops back by j when bit log2(j) of its
      // remaining distance (p+1 - dest) is set; nulls never hop.
      const uint64_t dest = GetRouteDest(d[p]);
      const uint64_t hop =
          ct::NeqMask(dest, 0) & ct::NeqMask((p + 1 - dest) & j, 0);
      ct::CondSwap(hop, d[p - j], d[p]);
      if constexpr (kTraced) {
        emitter->EmitWrite(p - j);
        emitter->EmitWrite(p);
      }
      if (stats != nullptr) ++stats->route_ops;
    }
  }
}

}  // namespace internal

// Algorithm 3's O(N log N) forward-routing loop.  Precondition (established
// by sorting, or by any placement satisfying Theorem 1's invariant): the
// non-null elements appear at strictly increasing indices, with strictly
// increasing destinations, each element at a 1-based index <= its
// destination, and slack f(y) - index decreasing from left to right.
// Postcondition: every non-null element sits at index dest-1 (0-based);
// all other slots hold nulls.
template <Routable T>
void RouteForward(memtrace::OArray<T>& a, PrimitiveStats* stats = nullptr) {
  const size_t n = a.size();
  if (n < 2) return;
  typename memtrace::OArray<T>::EventEmitter emitter(a);
  if (emitter.traced()) {
    internal::RawRouteForward<true>(a.UntracedData(), n, &emitter, stats);
  } else {
    internal::RawRouteForward<false>(a.UntracedData(), n,
                                     memtrace::kNoEmitter, stats);
  }
}

// Goodrich-style order-preserving compaction network: moves elements toward
// the front.  Precondition: non-null elements at increasing indices carry
// strictly increasing destinations (ranks) with dest <= index+1 (1-based),
// and the leftward distances index+1 - dest are non-decreasing from left to
// right (automatically true when dest = rank among non-nulls, since the
// distance is then the number of nulls preceding the element).
// Postcondition: every non-null element sits at index dest-1.
//
// Unlike RouteForward, hop sizes run *ascending* (1, 2, 4, ...): each
// element moves left by exactly the set bits of its leftward distance,
// lowest bit first.  After the rounds for bits < r every remaining distance
// is a multiple of 2^r, and a short counting argument (see
// tests/routing_test.cc) shows the target slot of every bit-r hop is null
// by the time the hop happens — descending hop sizes, the naive mirror of
// Algorithm 3, do NOT have this property because mirroring reverses the
// gap-monotonicity invariant of Theorem 1.
template <Routable T>
void RouteToFront(memtrace::OArray<T>& a, PrimitiveStats* stats = nullptr) {
  const size_t n = a.size();
  if (n < 2) return;
  typename memtrace::OArray<T>::EventEmitter emitter(a);
  if (emitter.traced()) {
    internal::RawRouteToFront<true>(a.UntracedData(), n, &emitter, stats);
  } else {
    internal::RawRouteToFront<false>(a.UntracedData(), n,
                                     memtrace::kNoEmitter, stats);
  }
}

// Constant-time comparator ordering non-null elements first by ascending
// destination, nulls (dest == 0) last.  This is the
// Bitonic-Sort<(!= null) ^, f ^> key of Algorithm 4.
struct NullsLastByDestLess {
  template <typename T>
  uint64_t operator()(const T& a, const T& b) const {
    const uint64_t da = GetRouteDest(a);
    const uint64_t db = GetRouteDest(b);
    const uint64_t null_a = ct::MaskToBit(ct::EqMask(da, 0));
    const uint64_t null_b = ct::MaskToBit(ct::EqMask(db, 0));
    // (null flag asc, dest asc) lexicographically.
    return ct::LessMask(null_a, null_b) |
           (ct::EqMask(null_a, null_b) & ct::LessMask(da, db));
  }
};

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_ROUTING_H_
