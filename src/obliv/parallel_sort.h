// Task-parallel bitonic sorting network (§6.2: "almost all parts of our
// algorithm are amenable to parallelization since they heavily rely on
// sorting networks, whose depth is O(log^2 n)").
//
// The recursive structure parallelizes directly: the two half-sorts of
// BitonicSort are independent, as are the two sub-merges of BitonicMerge
// after its cross-half compare-exchange pass (whose (i, i+m) pairs are
// pairwise disjoint, so the pass itself splits into independent chunks).
// Tasks run on the persistent process-wide ThreadPool — no thread is
// spawned per task — and leaves execute through the raw kernel of
// sort_block.h.  The comparator schedule, and therefore the *set* of
// public accesses, is identical to the sequential network; only the
// interleaving across threads varies.
//
// Tracing: a single shared sink cannot be called from concurrent tasks, and
// an interleaved log would be non-deterministic anyway.  Instead, when a
// sink is installed each task records its events into a private buffer
// hung off a node of a task tree whose shape mirrors the sequential
// recursion; after the sort completes, a depth-first walk replays the
// buffers into the real sink in sequential-schedule order.  The resulting
// log is bit-identical to the reference network's
// (tests/parallel_sort_test.cc proves it), so parallel runs are
// trace-verifiable — at the cost of buffering the events in memory, which
// confines traced parallel runs to verification-sized inputs, exactly like
// the vector sinks themselves.
//
// obliv::SortRange runs SortPolicy::kBlocked through this kernel whenever
// its pool has more than one worker and the range reaches kParallelCutoff;
// obliv::ObliviousMergeRuns fans its merge out the same way
// (RunParallelNetwork, FanOutPool).  A
// traced range longer than kMaxTracedFanOut streams its events from the
// sequential kernel instead, so the buffering stays bounded.
//
// Cancellation: an untraced fan-out polls Checkpoint("sort_pass") at every
// merge of at least kParallelCutoff elements, as the blocked kernel does
// at its cross-block passes.  Only the calling thread carries a
// CancelScope — pool workers, and the caller itself while it helps in
// TaskGroup::Wait, run bare (common/cancel.h) — so the polls that count
// are the ones on the part of the recursion the caller runs directly: the
// upper halves, a set fixed by (n, pool width).  A traced fan-out does not
// poll inside: its events reach the sink only after the whole network, so
// it is bounded by kMaxTracedFanOut instead.

#ifndef OBLIVDB_OBLIV_PARALLEL_SORT_H_
#define OBLIVDB_OBLIV_PARALLEL_SORT_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"
#include "obliv/sort_block.h"

namespace oblivdb::obliv {

namespace internal {

// Below this size a subproblem runs sequentially on the owning thread.
constexpr size_t kParallelCutoff = 1 << 12;

// Chunk granularity for splitting a cross-half compare-exchange pass.
constexpr size_t kCrossPassChunk = 1 << 14;

// Longest range a traced run fans out.  The replay buffers every event of
// the network — four 24-byte events per compare-exchange, about
// log2(n)^2 / 4 compare-exchanges per element — so at this bound one
// buffered sort holds about 80 MB; longer traced ranges run the sequential
// kernel, which streams its events to the sink.
constexpr size_t kMaxTracedFanOut = size_t{1} << 14;

// Emitter writing into a task-private buffer (absolute indices; the raw
// kernel runs on the whole array's storage).
struct TraceBufferEmitter {
  std::vector<memtrace::AccessEvent>* out;
  uint32_t array_id;
  uint32_t elem_size;

  void EmitRead(size_t i) {
    out->push_back(memtrace::AccessEvent{memtrace::AccessKind::kRead,
                                         array_id, i, elem_size});
  }
  void EmitWrite(size_t i) {
    out->push_back(memtrace::AccessEvent{memtrace::AccessKind::kWrite,
                                         array_id, i, elem_size});
  }
};

// One node of the deterministic-merge tree.  A node's own events precede
// its children in replay order; children replay in creation order.  Nodes
// and child slots are created by the parent task *before* any fork, so the
// tree shape is a pure function of (n, depth) and no two tasks ever touch
// the same buffer.
struct TraceNode {
  std::vector<std::unique_ptr<TraceNode>> children;
  std::vector<memtrace::AccessEvent> events;

  TraceNode* AddChild() {
    children.push_back(std::make_unique<TraceNode>());
    return children.back().get();
  }
};

inline void ReplayTraceTree(const TraceNode& node, memtrace::TraceSink* sink) {
  for (const memtrace::AccessEvent& event : node.events) {
    sink->OnAccess(event);
  }
  for (const std::unique_ptr<TraceNode>& child : node.children) {
    ReplayTraceTree(*child, sink);
  }
}

// Runs one task's raw-kernel work: `body(emitter, count)` with the task's
// emitter (kTraced: into `node`'s buffer; otherwise none) and a private
// comparison counter (null when nothing counts), then adds the count to the
// shared total.
template <bool kTraced, typename T, typename Body>
void RunTaskBody(uint32_t array_id, TraceNode* node,
                 std::atomic<uint64_t>* comparisons, const Body& body) {
  uint64_t local = 0;
  if constexpr (kTraced) {
    TraceBufferEmitter em{&node->events, array_id,
                          static_cast<uint32_t>(sizeof(T))};
    body(&em, &local);
  } else {
    body(memtrace::kNoEmitter, comparisons != nullptr ? &local : nullptr);
  }
  if (comparisons != nullptr && local != 0) {
    comparisons->fetch_add(local, std::memory_order_relaxed);
  }
}

// kTraced = false: events discarded, node may be null.  kTraced = true:
// events buffered into the task tree rooted at `node`.
template <bool kTraced, typename T, typename Less>
  requires CtLess<Less, T>
void ParallelBitonicMerge(ThreadPool& pool, T* d, uint32_t array_id,
                          size_t lo, size_t n, bool up, const Less& less,
                          int depth, TraceNode* node,
                          std::atomic<uint64_t>* comparisons,
                          size_t cross_chunk) {
  if (n <= 1) return;
  if (n < kParallelCutoff) {
    RunTaskBody<kTraced, T>(array_id, node, comparisons,
                            [&](auto* em, uint64_t* count) {
                              RawBitonicMerge<kTraced>(d, lo, n, up, less, em,
                                                       count);
                            });
    return;
  }
  if constexpr (!kTraced) Checkpoint("sort_pass");
  const size_t m = GreatestPow2LessThan(n);
  // The cross-half pass touches pairwise-disjoint (i, i+m) pairs; chunks
  // are independent, but the whole pass must finish before the halves
  // merge independently.
  auto cross_pass = [d, array_id, m, up, &less, comparisons](
                        TraceNode* pass_node, size_t from, size_t to) {
    RunTaskBody<kTraced, T>(array_id, pass_node, comparisons,
                            [&](auto* em, uint64_t* count) {
                              for (size_t i = from; i < to; ++i) {
                                RawCompareExchange<kTraced>(d, i, i + m, up,
                                                            less, em, count);
                              }
                            });
  };
  const size_t span = n - m;
  if (depth <= 0) {
    // Below the fan-out depth this task runs the raw merge's recursion
    // itself, into its own buffer; it only splits at the cutoff so that
    // the calling thread keeps polling.
    cross_pass(node, lo, lo + span);
    ParallelBitonicMerge<kTraced>(pool, d, array_id, lo, m, up, less, 0, node,
                                  comparisons, cross_chunk);
    ParallelBitonicMerge<kTraced>(pool, d, array_id, lo + m, span, up, less,
                                  0, node, comparisons, cross_chunk);
    return;
  }
  if (span >= 2 * cross_chunk) {
    TaskGroup group(pool);
    for (size_t start = 0; start < span; start += cross_chunk) {
      const size_t end = std::min(span, start + cross_chunk);
      TraceNode* chunk_node = nullptr;
      if constexpr (kTraced) chunk_node = node->AddChild();
      group.Run([&cross_pass, chunk_node, lo, start, end] {
        cross_pass(chunk_node, lo + start, lo + end);
      });
    }
    group.Wait();
  } else {
    cross_pass(node, lo, lo + span);
  }
  TraceNode* lo_node = nullptr;
  TraceNode* hi_node = nullptr;
  if constexpr (kTraced) {
    lo_node = node->AddChild();
    hi_node = node->AddChild();
  }
  TaskGroup group(pool);
  group.Run([&pool, d, array_id, lo, m, up, &less, depth, lo_node,
             comparisons, cross_chunk] {
    ParallelBitonicMerge<kTraced>(pool, d, array_id, lo, m, up, less,
                                  depth - 1, lo_node, comparisons,
                                  cross_chunk);
  });
  ParallelBitonicMerge<kTraced>(pool, d, array_id, lo + m, n - m, up, less,
                                depth - 1, hi_node, comparisons, cross_chunk);
  group.Wait();
}

template <bool kTraced, typename T, typename Less>
  requires CtLess<Less, T>
void ParallelBitonicSort(ThreadPool& pool, T* d, uint32_t array_id, size_t lo,
                         size_t n, bool up, const Less& less, int depth,
                         TraceNode* node,
                         std::atomic<uint64_t>* comparisons,
                         size_t cross_chunk) {
  if (n <= 1) return;
  if (n < kParallelCutoff) {
    RunTaskBody<kTraced, T>(array_id, node, comparisons,
                            [&](auto* em, uint64_t* count) {
                              RawBitonicSort<kTraced>(d, lo, n, up, less, em,
                                                      count);
                            });
    return;
  }
  const size_t m = n / 2;
  if (depth <= 0) {  // the raw sort's recursion, as in the merge above
    ParallelBitonicSort<kTraced>(pool, d, array_id, lo, m, !up, less, 0, node,
                                 comparisons, cross_chunk);
    ParallelBitonicSort<kTraced>(pool, d, array_id, lo + m, n - m, up, less,
                                 0, node, comparisons, cross_chunk);
    ParallelBitonicMerge<kTraced>(pool, d, array_id, lo, n, up, less, 0, node,
                                  comparisons, cross_chunk);
    return;
  }
  TraceNode* lo_node = nullptr;
  TraceNode* hi_node = nullptr;
  TraceNode* merge_node = nullptr;
  if constexpr (kTraced) {
    lo_node = node->AddChild();
    hi_node = node->AddChild();
    merge_node = node->AddChild();
  }
  TaskGroup group(pool);
  group.Run([&pool, d, array_id, lo, m, up, &less, depth, lo_node,
             comparisons, cross_chunk] {
    ParallelBitonicSort<kTraced>(pool, d, array_id, lo, m, !up, less,
                                 depth - 1, lo_node, comparisons,
                                 cross_chunk);
  });
  ParallelBitonicSort<kTraced>(pool, d, array_id, lo + m, n - m, up, less,
                               depth - 1, hi_node, comparisons, cross_chunk);
  group.Wait();
  ParallelBitonicMerge<kTraced>(pool, d, array_id, lo, n, up, less, depth,
                                merge_node, comparisons, cross_chunk);
}

// Runs the task-parallel sort (kIsMerge = false) or generalized bitonic
// merge (kIsMerge = true) over a[lo, lo+len) with up to ~2^depth
// concurrent tasks, depth = ceil(log2(threads)).  With a TraceSink
// installed, per-task buffers are replayed in deterministic sequential
// order afterwards, yielding the exact reference-network log.
template <bool kIsMerge, typename T, typename Less>
  requires CtLess<Less, T>
void RunParallelNetwork(ThreadPool& pool, memtrace::OArray<T>& a, size_t lo,
                        size_t len, const Less& less, unsigned threads,
                        uint64_t* comparisons, size_t cross_chunk) {
  int depth = 0;
  while ((1u << depth) < threads) ++depth;
  std::atomic<uint64_t> counter{0};
  std::atomic<uint64_t>* counter_ptr = comparisons != nullptr ? &counter
                                                              : nullptr;
  auto run = [&](auto traced, TraceNode* node) {
    constexpr bool kTraced = decltype(traced)::value;
    if constexpr (kIsMerge) {
      ParallelBitonicMerge<kTraced>(pool, a.UntracedData(), a.array_id(), lo,
                                    len, /*up=*/true, less, depth, node,
                                    counter_ptr, cross_chunk);
    } else {
      ParallelBitonicSort<kTraced>(pool, a.UntracedData(), a.array_id(), lo,
                                   len, /*up=*/true, less, depth, node,
                                   counter_ptr, cross_chunk);
    }
  };
  memtrace::TraceSink* sink = memtrace::GetTraceSink();
  if (sink == nullptr) {
    run(std::false_type{}, nullptr);
  } else {
    TraceNode root;
    run(std::true_type{}, &root);
    ReplayTraceTree(root, sink);
  }
  if (comparisons != nullptr) {
    *comparisons += counter.load(std::memory_order_relaxed);
  }
}

// The pool a range of `len` elements fans out on, or nullptr when it runs
// on the sequential kernel: below kParallelCutoff (without touching the
// pool — ThreadPool::Global() spawns its workers on first use, and a small
// sort should not pay that side effect), above kMaxTracedFanOut while a
// TraceSink is installed, or on a width-1 pool.  Before a fan-out the
// pool's admission probe runs (fault site "pool_spawn", common/fault.h); a
// refusal is recorded as a degradation and the range runs sequentially.
// Either way the element order and trace are the same, so only wall time
// moves.  The answer depends on the public length, the tracing flag, the
// pool width and the injector — never on data.
inline ThreadPool* FanOutPool(ThreadPool* pool, size_t len) {
  if (len < kParallelCutoff) return nullptr;
  if (len > kMaxTracedFanOut && memtrace::GetTraceSink() != nullptr) {
    return nullptr;
  }
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Global();
  if (p.worker_count() <= 1) return nullptr;
  if (!p.TrySpawnProbe()) {
    FaultInjector::Global().RecordDegradation();
    return nullptr;
  }
  return &p;
}

}  // namespace internal

// Sorts a[lo, lo+len) ascending under `less` using up to ~2^depth
// concurrent tasks, where depth = ceil(log2(threads)), on the persistent
// ThreadPool (`pool_override`, or the process-wide Global() when null —
// an ExecContext's pool arrives here through obliv::SortRange).
// threads == 0 means "one task slot per pool worker".
// With a TraceSink installed, per-task buffers are replayed in
// deterministic sequential order after the sort, yielding the exact
// reference-network log.  `cross_chunk` overrides the cross-half pass
// splitting granularity — a test hook so the chunked traced path is
// exercisable at unit-test sizes; production callers leave the default.
template <typename T, typename Less>
  requires CtLess<Less, T>
void BitonicSortRangeParallel(memtrace::OArray<T>& a, size_t lo, size_t len,
                              const Less& less, unsigned threads = 0,
                              uint64_t* comparisons = nullptr,
                              size_t cross_chunk = internal::kCrossPassChunk,
                              ThreadPool* pool_override = nullptr) {
  OBLIVDB_CHECK_LE(lo, a.size());
  OBLIVDB_CHECK_LE(len, a.size() - lo);
  ThreadPool& pool =
      pool_override != nullptr ? *pool_override : ThreadPool::Global();
  if (threads == 0) threads = pool.worker_count();
  if (threads <= 1 || len < internal::kParallelCutoff) {
    BitonicSortRangeBlocked(a, lo, len, less, comparisons);
    return;
  }
  internal::RunParallelNetwork</*kIsMerge=*/false>(
      pool, a, lo, len, less, threads, comparisons, cross_chunk);
}

// Sorts the whole array ascending under `less` on the global pool.
template <typename T, typename Less>
  requires CtLess<Less, T>
void BitonicSortParallel(memtrace::OArray<T>& a, const Less& less,
                         unsigned threads = 0,
                         uint64_t* comparisons = nullptr) {
  BitonicSortRangeParallel(a, 0, a.size(), less, threads, comparisons);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_PARALLEL_SORT_H_
