// Cache-resident execution of the bitonic comparator schedule.
//
// BitonicSortRange (bitonic_sort.h) is the reference network: every
// compare-exchange performs four individually bounds-checked, sink-tested,
// by-value OArray accesses.  Since the schedule is a function of the public
// range length alone, the *same* schedule can be executed far faster
// without changing what the adversary sees:
//
//   * subranges that fit an L1/L2-sized block are staged into local memory
//     once (OArray::ScopedRegion) and every pass whose stride fits the
//     block runs in-place on raw words with branch-free CondSwap;
//   * passes whose stride exceeds the block (the cross-half passes of the
//     outer merges) run through the same per-element path as the reference
//     network;
//   * when a TraceSink is installed, the block kernel emits exactly the
//     <R,i> <R,j> <W,i> <W,j> event sequence per compare-exchange that the
//     reference network emits, in the same recursion order, so the full
//     trace is bit-identical (tests/sort_kernel_test.cc proves this);
//     when no sink is installed the kernel carries no per-access test at
//     all and runs directly on the array's storage.
//
// The comparator count is likewise unchanged: BitonicComparisonCount(n)
// holds for both implementations.
//
// This header holds the kernel itself; the SortPolicy dispatcher lives in
// obliv/sort_kernel.h, which composes this kernel with the parallel
// execution strategy.

#ifndef OBLIVDB_OBLIV_SORT_BLOCK_H_
#define OBLIVDB_OBLIV_SORT_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/cancel.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"

namespace oblivdb::obliv {

// Default local-block budget for the blocked kernel.  Sized to sit inside a
// typical per-core L2 with headroom for the comparator's working set.
inline constexpr size_t kSortBlockBytes = size_t{1024} * 1024;

namespace internal {

// Compare-exchange on local (block) memory.  kTraced is a compile-time
// split: the untraced configuration has no per-access test at all, the
// traced one reports through an emitter (ScopedRegion, or any type with the
// same EmitRead/EmitWrite interface, e.g. the parallel kernel's per-task
// buffer).  Event order matches CompareExchange in bitonic_sort.h:
// R i, R j, W i, W j.
template <bool kTraced, typename T, typename Less, typename Emitter>
inline void RawCompareExchange(T* d, size_t i, size_t j, bool up,
                               const Less& less, Emitter* emitter,
                               uint64_t* comparisons) {
  if constexpr (kTraced) {
    emitter->EmitRead(i);
    emitter->EmitRead(j);
  }
  // `up` is public (a function of the range shape), so selecting the
  // comparison direction by branch leaks nothing.
  const uint64_t swap = up ? less(d[j], d[i]) : less(d[i], d[j]);
  ct::CondSwap(swap, d[i], d[j]);
  if constexpr (kTraced) {
    emitter->EmitWrite(i);
    emitter->EmitWrite(j);
  }
  if (comparisons != nullptr) ++*comparisons;
}

// Batcher's hop without the cross-TU call in the power-of-two case (the
// common shape inside a block, where subranges are block-aligned).
inline size_t MergeHop(size_t n) {
  return IsPow2(n) ? n / 2 : GreatestPow2LessThan(n);
}

// Raw-memory mirror of BitonicMerge: same generalized-Batcher recursion,
// same compare-exchange order.
template <bool kTraced, typename T, typename Less, typename Emitter>
void RawBitonicMerge(T* d, size_t lo, size_t n, bool up, const Less& less,
                     Emitter* emitter, uint64_t* comparisons) {
  if (n <= 1) return;
  if (n == 2) {  // leaf: one compare-exchange, no further recursion
    RawCompareExchange<kTraced>(d, lo, lo + 1, up, less, emitter, comparisons);
    return;
  }
  const size_t m = MergeHop(n);
  for (size_t i = lo; i < lo + n - m; ++i) {
    RawCompareExchange<kTraced>(d, i, i + m, up, less, emitter, comparisons);
  }
  RawBitonicMerge<kTraced>(d, lo, m, up, less, emitter, comparisons);
  RawBitonicMerge<kTraced>(d, lo + m, n - m, up, less, emitter, comparisons);
}

// Raw-memory mirror of BitonicSortRecursive.
template <bool kTraced, typename T, typename Less, typename Emitter>
void RawBitonicSort(T* d, size_t lo, size_t n, bool up, const Less& less,
                    Emitter* emitter, uint64_t* comparisons) {
  if (n <= 1) return;
  if (n == 2) {
    RawCompareExchange<kTraced>(d, lo, lo + 1, up, less, emitter, comparisons);
    return;
  }
  const size_t m = n / 2;
  RawBitonicSort<kTraced>(d, lo, m, !up, less, emitter, comparisons);
  RawBitonicSort<kTraced>(d, lo + m, n - m, up, less, emitter, comparisons);
  RawBitonicMerge<kTraced>(d, lo, n, up, less, emitter, comparisons);
}

template <typename T, typename Less>
struct BlockedSortCtx {
  memtrace::OArray<T>& a;
  const Less& less;
  uint64_t* comparisons;
  size_t block_elems;
  bool traced;
  std::vector<T> block;  // staging storage, allocated once per sort
};

// Runs one whole sub-sort or sub-merge that fits the block.  Traced runs
// stage through a ScopedRegion (emitting the reference event sequence);
// untraced runs operate in place on the array's raw storage — same
// schedule, zero staging.
template <bool kIsMerge, typename T, typename Less>
void RunBlock(BlockedSortCtx<T, Less>& ctx, size_t lo, size_t n, bool up) {
  if (ctx.traced) {
    typename memtrace::OArray<T>::ScopedRegion region(ctx.a, lo, n,
                                                      ctx.block.data());
    if constexpr (kIsMerge) {
      RawBitonicMerge<true>(region.data(), 0, n, up, ctx.less, &region,
                            ctx.comparisons);
    } else {
      RawBitonicSort<true>(region.data(), 0, n, up, ctx.less, &region,
                           ctx.comparisons);
    }
  } else {
    T* d = ctx.a.UntracedData();
    if constexpr (kIsMerge) {
      RawBitonicMerge<false>(d, lo, n, up, ctx.less,
                             memtrace::kNoEmitter,
                             ctx.comparisons);
    } else {
      RawBitonicSort<false>(d, lo, n, up, ctx.less,
                            memtrace::kNoEmitter,
                            ctx.comparisons);
    }
  }
}

template <typename T, typename Less>
void BlockedMerge(BlockedSortCtx<T, Less>& ctx, size_t lo, size_t n, bool up) {
  if (n <= 1) return;
  if (n <= ctx.block_elems) {
    RunBlock</*kIsMerge=*/true>(ctx, lo, n, up);
    return;
  }
  // Cancellation checkpoint: one per cross-block merge pass.  The recursion
  // shape is a function of (n, block_elems) only — both public — so the
  // poll schedule cannot depend on data (common/cancel.h).
  Checkpoint("sort_pass");
  // Cross-half pass at a stride too large for the block: per-element, like
  // the reference network (or raw when nothing observes the trace).
  const size_t m = MergeHop(n);
  if (ctx.traced) {
    for (size_t i = lo; i < lo + n - m; ++i) {
      CompareExchange(ctx.a, i, i + m, up, ctx.less, ctx.comparisons);
    }
  } else {
    T* d = ctx.a.UntracedData();
    for (size_t i = lo; i < lo + n - m; ++i) {
      RawCompareExchange<false>(d, i, i + m, up, ctx.less,
                                memtrace::kNoEmitter,
                                ctx.comparisons);
    }
  }
  BlockedMerge(ctx, lo, m, up);
  BlockedMerge(ctx, lo + m, n - m, up);
}

template <typename T, typename Less>
void BlockedSort(BlockedSortCtx<T, Less>& ctx, size_t lo, size_t n, bool up) {
  if (n <= 1) return;
  if (n <= ctx.block_elems) {
    RunBlock</*kIsMerge=*/false>(ctx, lo, n, up);
    return;
  }
  const size_t m = n / 2;
  BlockedSort(ctx, lo, m, !up);
  BlockedSort(ctx, lo + m, n - m, up);
  BlockedMerge(ctx, lo, n, up);
}

// Largest power of two worth of elements that fits the block budget (at
// least 1; with a degenerate budget the kernel gracefully degrades to the
// reference access pattern).
template <typename T>
size_t BlockElems(size_t block_bytes) {
  size_t elems = 1;
  while (elems * 2 * sizeof(T) <= block_bytes) elems *= 2;
  return elems;
}

}  // namespace internal

// Sorts a[lo, lo+len) ascending under `less` with the cache-blocked kernel.
// Same comparator schedule, element order, comparison count, and (when
// traced) access trace as BitonicSortRange.
template <typename T, typename Less>
  requires CtLess<Less, T>
void BitonicSortRangeBlocked(memtrace::OArray<T>& a, size_t lo, size_t len,
                             const Less& less,
                             uint64_t* comparisons = nullptr,
                             size_t block_bytes = kSortBlockBytes) {
  OBLIVDB_CHECK_LE(lo, a.size());
  OBLIVDB_CHECK_LE(len, a.size() - lo);
  internal::BlockedSortCtx<T, Less> ctx{
      a, less, comparisons, internal::BlockElems<T>(block_bytes),
      memtrace::GetTraceSink() != nullptr, {}};
  if (ctx.traced) {
    ctx.block.resize(std::min(ctx.block_elems, len));
  }
  internal::BlockedSort(ctx, lo, len, /*up=*/true);
}

// Sorts the whole array ascending under `less` with the blocked kernel.
template <typename T, typename Less>
  requires CtLess<Less, T>
void BitonicSortBlocked(memtrace::OArray<T>& a, const Less& less,
                        uint64_t* comparisons = nullptr,
                        size_t block_bytes = kSortBlockBytes) {
  BitonicSortRangeBlocked(a, 0, a.size(), less, comparisons, block_bytes);
}

// Runs one generalized-Batcher bitonic *merge* over a[lo, lo+len) with the
// blocked kernel: ~len/2 * (2 log2 len - 1) ... more precisely O(len log
// len) compare-exchanges instead of a full sort's O(len log^2 len / 4).
//
// Precondition: the range is "V-shaped" under `less` — a non-increasing
// run followed by a non-decreasing run (either may be empty; the split
// point is arbitrary).  This is the shape the generalized merge recursion
// is proven for at arbitrary lengths (it is exactly what the full sort
// feeds its own top-level merge).  On return the range is ascending.
//
// The gate sequence depends only on (lo, len), so the emitted trace is
// input-independent — identical to the reference BitonicMerge's events.
template <typename T, typename Less>
  requires CtLess<Less, T>
void BitonicMergeRangeBlocked(memtrace::OArray<T>& a, size_t lo, size_t len,
                              const Less& less,
                              uint64_t* comparisons = nullptr,
                              size_t block_bytes = kSortBlockBytes) {
  OBLIVDB_CHECK_LE(lo, a.size());
  OBLIVDB_CHECK_LE(len, a.size() - lo);
  internal::BlockedSortCtx<T, Less> ctx{
      a, less, comparisons, internal::BlockElems<T>(block_bytes),
      memtrace::GetTraceSink() != nullptr, {}};
  if (ctx.traced) {
    ctx.block.resize(std::min(ctx.block_elems, len));
  }
  internal::BlockedMerge(ctx, lo, len, /*up=*/true);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_BLOCK_H_
