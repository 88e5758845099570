// SortPolicy dispatch: one call site, either execution of the same logical
// sort.  The policy vocabulary itself lives in obliv/sort_policy.h (see its
// header comment for the tier-by-tier contract); this header composes the
// kernels — the reference network, and the blocked kernel fanned out on the
// pool when it is wider than one worker — and holds the small cost model
// that the run-merge elision (RunMergePays) and the optimizer
// (core/optimizer.h) price sorts with.
//
// The model estimates per-element nanoseconds from four public quantities —
// policy, element width, range length and pool worker count — so every
// decision built on it is itself a public function and traced runs stay
// input-independent.  The per-word constants are fitted to BENCH_sort.json:
// the blocked kernel costs ~1 ns per word per compare-exchange while an
// element fits the cache line budget, ~2.4 ns once wide elements turn the
// network DRAM-bandwidth-bound.  A fanned-out sort is credited with the
// pool's speedup (a multi-worker pool and n >= internal::kParallelCutoff),
// minus a fixed fork-join cost.

#ifndef OBLIVDB_OBLIV_SORT_KERNEL_H_
#define OBLIVDB_OBLIV_SORT_KERNEL_H_

#include <cstdint>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"
#include "obliv/parallel_sort.h"
#include "obliv/sort_block.h"
#include "obliv/sort_policy.h"

namespace oblivdb::obliv {

namespace internal {

// Measured model constants (ns; see the header comment for provenance).
inline constexpr double kCachedWordCmpNs = 1.0;   // elements <= 32 bytes
inline constexpr double kWideWordCmpNs = 2.4;     // elements > 32 bytes
inline constexpr double kForkJoinNs = 50000.0;    // fixed per parallel sort
inline constexpr size_t kCachedCmpMaxBytes = 32;

// Parallel scaling: each extra worker adds this fraction of linear speedup,
// and a pass over wide elements is DRAM-bandwidth-bound, so its speedup
// saturates at kWideSpeedupCap.  Fitted constants, public either way.
inline constexpr double kParallelEfficiency = 0.6;
inline constexpr double kWideSpeedupCap = 3.0;

inline double WordCmpNs(size_t elem_bytes) {
  return elem_bytes <= kCachedCmpMaxBytes ? kCachedWordCmpNs : kWideWordCmpNs;
}

// ~log2^2(n)/4 compare-exchanges per element over elem_bytes/8 words.
inline double NetworkNsPerElement(size_t elem_bytes, double levels) {
  return WordCmpNs(elem_bytes) * static_cast<double>(elem_bytes / 8) *
         levels * levels / 4.0;
}

// Speedup of a pass moving elem_bytes-wide elements: compute-bound while
// the element is cache-line-sized, bandwidth-capped beyond.
inline double PassSpeedup(size_t elem_bytes, unsigned workers) {
  const double linear =
      1.0 + kParallelEfficiency * static_cast<double>(workers - 1);
  const double cap = elem_bytes <= kCachedCmpMaxBytes
                         ? static_cast<double>(workers)
                         : kWideSpeedupCap;
  return linear < cap ? linear : cap;
}

}  // namespace internal

// Estimated per-element cost of running `policy` on n elements of
// elem_bytes with a `workers`-thread pool.  kBlocked is credited with the
// pool's speedup exactly where SortRange fans it out (workers > 1,
// n >= kParallelCutoff).  The absolute numbers only matter insofar as they
// rank alternatives correctly at the decision boundaries.
inline double EstimateSortNsPerElement(SortPolicy policy, size_t elem_bytes,
                                       size_t n, unsigned workers) {
  using namespace internal;
  if (n < 2) return 0.0;
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  const double full_network = NetworkNsPerElement(elem_bytes, levels);
  switch (policy) {
    case SortPolicy::kReference:
      // Four sink-tested by-value accesses per exchange: ~2x the blocked
      // kernel at every width (BENCH_sort.json); always sequential.
      return 2.0 * full_network;
    case SortPolicy::kBlocked:
      if (workers <= 1 || n < kParallelCutoff) return full_network;
      return full_network / PassSpeedup(elem_bytes, workers) +
             kForkJoinNs * (1.0 / static_cast<double>(n));
  }
  OBLIVDB_CHECK(false);
  return 0.0;
}

// Cost-model arbiter for the run-merge elision (core/order.h): given two
// adjacent runs of n1 and n2 elements where coveredX says run X already
// satisfies the target order, is [sort the uncovered runs, then one
// O(n log n) bitonic merge] estimated cheaper than one full O(n log^2 n)
// sort of the concatenation under `policy`?  Ties keep the merge (the
// pre-cost-model behaviour).  Every input is public — sizes, coverage
// flags derived from plan shape, the policy — so the decision is a pure
// function of public state; and because the merge's per-element cost is
// levels/2 compare-exchanges against the full sort's levels^2/4, the merge
// wins everywhere the older unconditional elision fired, keeping existing
// elision counts stable.  The costs are taken at one worker: a wide pool
// speeds the full sort, the per-run sorts and the merge (which fans out
// under the same rule) by about the same factor, and crediting it would
// flip decisions where the union fans out but an uncovered run does not —
// making the elision, and with it the trace, depend on the pool width.
template <typename T, typename Less>
  requires CtLess<Less, T>
bool RunMergePays(SortPolicy policy, size_t n1, bool covered1, size_t n2,
                  bool covered2) {
  const size_t n = n1 + n2;
  if (n < 2) return true;
  auto sort_ns = [&](size_t len) -> double {
    return static_cast<double>(len) *
           EstimateSortNsPerElement(policy, sizeof(T), len, /*workers=*/1);
  };
  const double full_ns = sort_ns(n);
  // One bitonic merge stage: log2(ceil_pow2(n)) levels of n/2
  // compare-exchanges, full-width.
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  double merge_ns = static_cast<double>(n) * internal::WordCmpNs(sizeof(T)) *
                    static_cast<double>(sizeof(T) / 8) * levels / 2.0;
  if (!covered1) merge_ns += sort_ns(n1);
  if (!covered2) merge_ns += sort_ns(n2);
  return merge_ns <= full_ns;
}

// Policy dispatchers: one call site, either implementation.  `pool` is
// where a kBlocked sort fans out — the task-parallel network of
// parallel_sort.h — whenever it is wider than one worker and the range
// reaches internal::kParallelCutoff; a width-1 pool runs the sequential
// kernel.  nullptr means the process-wide ThreadPool::Global().  The
// relational layer passes ExecContext::pool.
template <typename T, typename Less>
  requires CtLess<Less, T>
void SortRange(memtrace::OArray<T>& a, size_t lo, size_t len,
               const Less& less, SortPolicy policy,
               uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr) {
  // Cancellation checkpoint: one per operator sort.  The sort's position
  // and length are public, so the poll is oblivious-safe (common/cancel.h).
  Checkpoint("sort");
  // Fan-out is a property of the pool, not of the tier (internal::
  // FanOutPool decides it), and the reference network stays sequential.
  // A refused spawn probe (graceful degradation, common/fault.h) runs the
  // sequential kernel: same element order, byte-identical trace, only wall
  // time moves.
  switch (policy) {
    case SortPolicy::kBlocked:
      if (ThreadPool* fan = internal::FanOutPool(pool, len)) {
        BitonicSortRangeParallel(a, lo, len, less, /*threads=*/0,
                                 comparisons, internal::kCrossPassChunk, fan);
      } else {
        BitonicSortRangeBlocked(a, lo, len, less, comparisons);
      }
      break;
    case SortPolicy::kReference:
      BitonicSortRange(a, lo, len, less, comparisons);
      break;
  }
}

template <typename T, typename Less>
  requires CtLess<Less, T>
void Sort(memtrace::OArray<T>& a, const Less& less, SortPolicy policy,
          uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr) {
  SortRange(a, 0, a.size(), less, policy, comparisons, pool);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_KERNEL_H_
