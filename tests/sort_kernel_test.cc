// The blocked kernel's contract: same element order, same comparison
// count, and — when traced — the bit-identical access sequence of the
// recursive reference network.  These tests pin all three, across
// power-of-two and ragged sizes, with a tiny block budget so every code
// path (in-block sort, in-block merge, out-of-block cross pass) runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/join.h"
#include "crypto/chacha20.h"
#include "memtrace/oarray.h"
#include "memtrace/sinks.h"
#include "obliv/bitonic_sort.h"
#include "obliv/ct.h"
#include "obliv/sort_kernel.h"
#include "workload/generators.h"

namespace oblivdb::obliv {
namespace {

struct Item {
  uint64_t key = 0;
  uint64_t tag = 0;
};

// Single-key comparator for the perf measurement.  Both implementations
// run the identical comparator schedule, so even with duplicate keys they
// produce the identical permutation.
struct ItemKeyLess {
  uint64_t operator()(const Item& a, const Item& b) const {
    return ct::LessMask(a.key, b.key);
  }
};

// Total order so both implementations must produce the identical
// permutation, not merely the same key sequence.
struct ItemLexLess {
  uint64_t operator()(const Item& a, const Item& b) const {
    return ct::LessMask(a.key, b.key) |
           (ct::EqMask(a.key, b.key) & ct::LessMask(a.tag, b.tag));
  }
};

// Small enough that n >= 33 exercises out-of-block cross passes.
constexpr size_t kTinyBlockBytes = 32 * sizeof(Item);

void FillRandom(memtrace::OArray<Item>& arr, uint64_t seed) {
  crypto::ChaCha20Rng rng(seed);
  for (size_t i = 0; i < arr.size(); ++i) {
    arr.Write(i, Item{rng.Uniform(std::max<uint64_t>(1, arr.size() / 2)), i});
  }
}

std::vector<std::pair<uint64_t, uint64_t>> Contents(
    const memtrace::OArray<Item>& arr) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i < arr.size(); ++i) {
    const Item it = arr.Read(i);
    out.emplace_back(it.key, it.tag);
  }
  return out;
}

class SortKernelSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SortKernelSizeTest, MatchesReferencePermutation) {
  const size_t n = GetParam();
  memtrace::OArray<Item> reference(n, "ref");
  memtrace::OArray<Item> blocked(n, "blk");
  FillRandom(reference, n * 13 + 1);
  FillRandom(blocked, n * 13 + 1);

  uint64_t ref_comparisons = 0;
  uint64_t blk_comparisons = 0;
  BitonicSort(reference, ItemLexLess{}, &ref_comparisons);
  BitonicSortRangeBlocked(blocked, 0, n, ItemLexLess{}, &blk_comparisons,
                          kTinyBlockBytes);

  EXPECT_EQ(Contents(reference), Contents(blocked));
  EXPECT_EQ(ref_comparisons, blk_comparisons);
  EXPECT_EQ(blk_comparisons, BitonicComparisonCount(n));
}

TEST_P(SortKernelSizeTest, TraceIdenticalToReference) {
  const size_t n = GetParam();

  memtrace::VectorTraceSink reference_trace;
  {
    memtrace::TraceScope scope(&reference_trace);
    memtrace::OArray<Item> arr(n, "arr");
    FillRandom(arr, n * 17 + 5);
    BitonicSort(arr, ItemLexLess{});
  }

  memtrace::VectorTraceSink blocked_trace;
  {
    memtrace::TraceScope scope(&blocked_trace);
    memtrace::OArray<Item> arr(n, "arr");
    FillRandom(arr, n * 17 + 5);
    BitonicSortRangeBlocked(arr, 0, n, ItemLexLess{}, nullptr,
                            kTinyBlockBytes);
  }

  EXPECT_TRUE(reference_trace.SameTraceAs(blocked_trace))
      << "blocked kernel changed the public access sequence at n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortKernelSizeTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 31, 32, 33,
                                           64, 100, 127, 257, 512, 1000,
                                           1024, 2000));

TEST(SortKernelTest, TraceIsDataIndependent) {
  // Level-II obliviousness carries over: two different inputs of the same
  // length produce the same blocked-kernel trace.
  const size_t n = 300;
  memtrace::HashTraceSink first;
  {
    memtrace::TraceScope scope(&first);
    memtrace::OArray<Item> arr(n, "arr");
    FillRandom(arr, 1);
    BitonicSortRangeBlocked(arr, 0, n, ItemLexLess{}, nullptr,
                            kTinyBlockBytes);
  }
  memtrace::HashTraceSink second;
  {
    memtrace::TraceScope scope(&second);
    memtrace::OArray<Item> arr(n, "arr");
    FillRandom(arr, 999);
    BitonicSortRangeBlocked(arr, 0, n, ItemLexLess{}, nullptr,
                            kTinyBlockBytes);
  }
  EXPECT_EQ(first.HexDigest(), second.HexDigest());
}

TEST(SortKernelTest, ComparisonCountMatchesModelAtRaggedSizes) {
  for (const size_t n : {3u, 6u, 11u, 100u, 321u, 1000u, 1025u, 4097u}) {
    memtrace::OArray<Item> arr(n, "count");
    FillRandom(arr, n);
    uint64_t comparisons = 0;
    BitonicSortRangeBlocked(arr, 0, n, ItemLexLess{}, &comparisons,
                            kTinyBlockBytes);
    EXPECT_EQ(comparisons, BitonicComparisonCount(n)) << "n = " << n;
  }
}

TEST(SortKernelTest, SubrangeSortLeavesRestUntouched) {
  const size_t n = 200;
  memtrace::OArray<Item> arr(n, "sub");
  FillRandom(arr, 77);
  const auto before = Contents(arr);
  BitonicSortRangeBlocked(arr, 50, 100, ItemLexLess{}, nullptr,
                          kTinyBlockBytes);
  const auto after = Contents(arr);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(after[i], before[i]);
  for (size_t i = 150; i < n; ++i) EXPECT_EQ(after[i], before[i]);
  EXPECT_TRUE(std::is_sorted(after.begin() + 50, after.begin() + 150));
}

TEST(SortKernelTest, PolicyDispatcherRunsEveryPolicy) {
  // Both policies must sort and count identically.
  for (const SortPolicy policy :
       {SortPolicy::kReference, SortPolicy::kBlocked}) {
    memtrace::OArray<Item> arr(333, "disp");
    FillRandom(arr, 42);
    uint64_t comparisons = 0;
    Sort(arr, ItemLexLess{}, policy, &comparisons);
    const auto contents = Contents(arr);
    EXPECT_TRUE(std::is_sorted(contents.begin(), contents.end()));
    EXPECT_EQ(comparisons, BitonicComparisonCount(333));
  }
}

// Fan-out is a property of the pool: kBlocked above the task cutoff runs
// the task-parallel network on a wide pool and the blocked kernel on a
// width-1 pool, with the same order, comparison count and trace.
TEST(SortKernelTest, BlockedTraceIdenticalAcrossPoolWidths) {
  const size_t n = 5000;  // above internal::kParallelCutoff
  ASSERT_GE(n, internal::kParallelCutoff);
  auto run = [&](unsigned width) {
    ThreadPool pool(width);
    memtrace::VectorTraceSink sink;
    std::vector<std::pair<uint64_t, uint64_t>> contents;
    {
      memtrace::TraceScope scope(&sink);
      memtrace::OArray<Item> arr(n, "width");
      FillRandom(arr, 31);
      uint64_t comparisons = 0;
      SortRange(arr, 0, n, ItemLexLess{}, SortPolicy::kBlocked, &comparisons,
                &pool);
      EXPECT_EQ(comparisons, BitonicComparisonCount(n));
      memtrace::TracePause untraced;
      contents = Contents(arr);
    }
    return std::make_pair(std::move(sink), std::move(contents));
  };
  const auto sequential = run(1);
  for (const unsigned width : {2u, 4u}) {
    const auto wide = run(width);
    EXPECT_EQ(wide.second, sequential.second) << "width " << width;
    EXPECT_TRUE(wide.first.SameTraceAs(sequential.first)) << "width " << width;
  }
}

// Notes, at the first event it receives, whether the watched range is
// already sorted — true exactly when the events were buffered and replayed
// after the whole network ran.
class SortedAtFirstEventSink : public memtrace::TraceSink {
 public:
  explicit SortedAtFirstEventSink(const memtrace::OArray<Item>& arr)
      : arr_(arr) {}
  void OnAlloc(uint32_t, const std::string&, size_t, size_t) override {}
  void OnAccess(const memtrace::AccessEvent&) override {
    if (events_++ > 0) return;
    const Item* d = arr_.UntracedData();
    sorted_at_first_event_ =
        std::is_sorted(d, d + arr_.size(), [](const Item& a, const Item& b) {
          return ItemLexLess{}(a, b) != 0;
        });
  }
  bool sorted_at_first_event() const { return sorted_at_first_event_; }

 private:
  const memtrace::OArray<Item>& arr_;
  uint64_t events_ = 0;
  bool sorted_at_first_event_ = false;
};

// A traced fan-out buffers the sort's whole event stream until the replay,
// so it is bounded: a traced default-tier sort longer than
// internal::kMaxTracedFanOut streams its events from the sequential kernel
// (the sink hears from it while the range is still unsorted), while one at
// the bound still fans out and replays.
TEST(SortKernelTest, LongTracedSortStreamsInsteadOfBuffering) {
  ThreadPool pool(4);
  for (const size_t n : {internal::kMaxTracedFanOut,
                         2 * internal::kMaxTracedFanOut}) {
    memtrace::OArray<Item> arr(n, "bound");
    FillRandom(arr, n);
    SortedAtFirstEventSink sink(arr);
    {
      memtrace::TraceScope scope(&sink);
      SortRange(arr, 0, n, ItemLexLess{}, SortPolicy::kBlocked, nullptr,
                &pool);
    }
    EXPECT_EQ(sink.sorted_at_first_event(), n <= internal::kMaxTracedFanOut)
        << "n = " << n;
    const auto contents = Contents(arr);
    EXPECT_TRUE(std::is_sorted(contents.begin(), contents.end()));
  }
}

// The cost model credits the pool's speedup only where the sort fans out
// (a multi-worker pool and n >= internal::kParallelCutoff).
TEST(SortKernelTest, EstimateCreditsThePoolOnlyWhereTheSortFansOut) {
  EXPECT_LT(EstimateSortNsPerElement(SortPolicy::kBlocked, 16, 1 << 20, 4),
            EstimateSortNsPerElement(SortPolicy::kBlocked, 16, 1 << 20, 1));
  EXPECT_EQ(EstimateSortNsPerElement(SortPolicy::kBlocked, 16, 1 << 10, 4),
            EstimateSortNsPerElement(SortPolicy::kBlocked, 16, 1 << 10, 1));
  // The reference network never fans out.
  EXPECT_EQ(EstimateSortNsPerElement(SortPolicy::kReference, 72, 1 << 20, 4),
            EstimateSortNsPerElement(SortPolicy::kReference, 72, 1 << 20, 1));
}

TEST(SortKernelTest, JoinProducesSameRowsAndTraceUnderBothPolicies) {
  const workload::TestCase tc = workload::PowerLaw(/*n=*/100, /*alpha=*/1.5,
                                                   /*seed=*/3);
  const Table& t1 = tc.t1;
  const Table& t2 = tc.t2;
  std::vector<JoinedRecord> rows_reference;
  std::vector<JoinedRecord> rows_blocked;

  memtrace::HashTraceSink reference_trace;
  {
    memtrace::TraceScope scope(&reference_trace);
    core::ExecContext ctx;
    ctx.sort_policy = SortPolicy::kReference;
    rows_reference = core::ObliviousJoin(t1, t2, ctx);
  }
  memtrace::HashTraceSink blocked_trace;
  {
    memtrace::TraceScope scope(&blocked_trace);
    core::ExecContext ctx;
    ctx.sort_policy = SortPolicy::kBlocked;
    rows_blocked = core::ObliviousJoin(t1, t2, ctx);
  }

  EXPECT_EQ(rows_reference, rows_blocked);
  EXPECT_EQ(reference_trace.HexDigest(), blocked_trace.HexDigest());
}

// The acceptance bar for the kernel: untraced, single-threaded, n = 2^20,
// the blocked kernel must be at least 2x faster than the reference
// network.  Measured headroom is well above the bound (see
// bench/run_benches.sh output), so this should not flake under load.
TEST(SortKernelPerfTest, BlockedAtLeastTwiceAsFastAtTwoToTheTwenty) {
  const size_t n = 1 << 20;
  ASSERT_EQ(memtrace::GetTraceSink(), nullptr);

  memtrace::OArray<Item> reference(n, "perf_ref");
  memtrace::OArray<Item> blocked(n, "perf_blk");
  crypto::ChaCha20Rng rng(2020);
  for (size_t i = 0; i < n; ++i) {
    const Item it{rng(), i};
    reference.Write(i, it);
    blocked.Write(i, it);
  }

  Timer timer;
  BitonicSort(reference, ItemKeyLess{});
  const double reference_seconds = timer.ElapsedSeconds();

  timer.Start();
  BitonicSortBlocked(blocked, ItemKeyLess{});
  const double blocked_seconds = timer.ElapsedSeconds();

  EXPECT_EQ(Contents(reference), Contents(blocked));
  EXPECT_GE(reference_seconds / blocked_seconds, 2.0)
      << "reference " << reference_seconds << " s vs blocked "
      << blocked_seconds << " s";
}

}  // namespace
}  // namespace oblivdb::obliv
