// The tag-sort contract: (1) the Beneš pass applies exactly the requested
// permutation, at every size; (2) each pipeline comparator's SortKey
// projection is faithful; (3) therefore SortPolicy::kTagSort produces the
// bit-identical element order of the reference network — for every
// comparator, duplicates and all — while its access trace remains a pure
// function of the range length; (4) the whole join pipeline yields the same
// rows under every SortPolicy.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/aggregate.h"
#include "core/comparators.h"
#include "core/join.h"
#include "core/operators.h"
#include "crypto/chacha20.h"
#include "memtrace/oarray.h"
#include "memtrace/sinks.h"
#include "obliv/distribute.h"
#include "obliv/permute.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"
#include "workload/generators.h"

namespace oblivdb::obliv {
namespace {

// --- Beneš network ----------------------------------------------------------

class BenesSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BenesSizeTest, RoutesRandomPermutations) {
  const size_t n = GetParam();
  crypto::ChaCha20Rng rng(n * 31 + 7);
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    // Fisher-Yates on the deterministic test rng.
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    memtrace::OArray<uint64_t> arr(n, "perm");
    for (size_t i = 0; i < n; ++i) arr.Write(i, 1000 + i);
    ObliviousPermute(arr, perm);
    for (size_t p = 0; p < n; ++p) {
      ASSERT_EQ(arr.Read(p), 1000 + perm[p]) << "n=" << n << " p=" << p;
    }
  }
}

// 16384 and 20000 cross the parallel switch-planning cutoff of permute.h
// (m >= 2^14): the fanned-out planner must still produce a valid — and
// identical — switch configuration.
INSTANTIATE_TEST_SUITE_P(Sizes, BenesSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 13, 16,
                                           31, 32, 33, 64, 100, 127, 255,
                                           256, 257, 1000, 1024, 16384,
                                           20000));

TEST(BenesTest, IdentityAndReversal) {
  const size_t n = 64;
  std::vector<uint32_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  memtrace::OArray<uint64_t> a(n, "id");
  for (size_t i = 0; i < n; ++i) a.Write(i, i);
  ObliviousPermute(a, identity);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(a.Read(i), i);

  std::vector<uint32_t> reversal(n);
  for (size_t i = 0; i < n; ++i) reversal[i] = static_cast<uint32_t>(n - 1 - i);
  ObliviousPermute(a, reversal);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(a.Read(i), n - 1 - i);
}

TEST(BenesTest, TraceDependsOnlyOnLength) {
  auto hash_of = [](size_t n, uint64_t seed) {
    crypto::ChaCha20Rng rng(seed);
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    memtrace::HashTraceSink sink;
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<uint64_t> arr(n, "perm");
    for (size_t i = 0; i < n; ++i) arr.Write(i, rng());
    ObliviousPermute(arr, perm);
    return sink.HexDigest();
  };
  // Power-of-two (in-place) and ragged (padded scratch) shapes.
  for (const size_t n : {size_t{128}, size_t{100}}) {
    EXPECT_EQ(hash_of(n, 1), hash_of(n, 2)) << n;
  }
}

// --- Projection faithfulness ------------------------------------------------

Entry RandomEntry(crypto::ChaCha20Rng& rng, uint64_t key_range) {
  Entry e;
  e.join_key = rng.Uniform(key_range);
  e.payload0 = rng.Uniform(4);  // small ranges force ties on every field
  e.payload1 = rng.Uniform(4);
  e.alpha1 = rng.Uniform(3);
  e.alpha2 = rng.Uniform(3);
  e.dest = rng.Uniform(8);
  e.align_ii = rng.Uniform(5);
  e.tid = 1 + rng.Uniform(2);
  e.flags = rng.Uniform(2);
  return e;
}

template <typename Less>
void ExpectFaithful(const char* name) {
  crypto::ChaCha20Rng rng(0xFA17u);
  const Less less;
  for (int iter = 0; iter < 20000; ++iter) {
    const Entry a = RandomEntry(rng, 6);
    const Entry b = RandomEntry(rng, 6);
    const uint64_t direct = less(a, b);
    const uint64_t projected =
        SortKeyLess(Less::SortKeyOf(a), Less::SortKeyOf(b));
    ASSERT_EQ(direct, projected) << name << " iter " << iter;
  }
}

TEST(ProjectionTest, AllPipelineComparatorsAreFaithful) {
  ExpectFaithful<core::ByJoinKeyThenTidLess>("ByJoinKeyThenTid");
  ExpectFaithful<core::ByTidThenJoinKeyThenDataLess>("ByTidThenJoinKeyThenData");
  ExpectFaithful<core::ByJoinKeyThenAlignIndexLess>("ByJoinKeyThenAlignIndex");
  ExpectFaithful<core::ByJoinKeyThenTidThenDataLess>("ByJoinKeyThenTidThenData");
  ExpectFaithful<NullsLastByDestLess>("NullsLastByDest");
}

// --- Policy equivalence on Entry sorts --------------------------------------

using EntryWords = std::array<uint64_t, sizeof(Entry) / 8>;

std::vector<EntryWords> Contents(const memtrace::OArray<Entry>& a) {
  std::vector<EntryWords> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Entry e = a.Read(i);
    std::memcpy(out[i].data(), &e, sizeof(Entry));
  }
  return out;
}

memtrace::OArray<Entry> MakeEntries(size_t n, uint64_t seed) {
  memtrace::OArray<Entry> arr(n, "ents");
  crypto::ChaCha20Rng rng(seed);
  // Heavy duplicates on every compared field, plus payload words that the
  // narrower comparators never look at: the tag network must still place
  // ties exactly where the wide network places them.
  for (size_t i = 0; i < n; ++i) {
    Entry e = RandomEntry(rng, std::max<uint64_t>(1, n / 8));
    e.dest = rng.Uniform(n + 1);  // 0 = null, for the nulls-last comparator
    arr.Write(i, e);
  }
  return arr;
}

constexpr SortPolicy kAllPolicies[] = {SortPolicy::kReference,
                                       SortPolicy::kBlocked,
                                       SortPolicy::kTagSort,
                                       SortPolicy::kAuto};

template <typename Less>
void ExpectAllPoliciesAgree(size_t n, const char* name) {
  std::vector<EntryWords> reference;
  uint64_t reference_comparisons = 0;
  for (const SortPolicy policy : kAllPolicies) {
    memtrace::OArray<Entry> arr = MakeEntries(n, n * 1299709 + 17);
    uint64_t comparisons = 0;
    Sort(arr, Less{}, policy, &comparisons);
    if (policy == SortPolicy::kReference) {
      reference = Contents(arr);
      reference_comparisons = comparisons;
      EXPECT_EQ(comparisons, BitonicComparisonCount(n));
    } else {
      ASSERT_EQ(Contents(arr), reference)
          << name << " policy " << static_cast<int>(policy) << " n " << n;
      EXPECT_EQ(comparisons, reference_comparisons) << name;
    }
  }
}

class TagSortSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TagSortSizeTest, EveryPolicySamePermutationEveryComparator) {
  const size_t n = GetParam();
  ExpectAllPoliciesAgree<core::ByJoinKeyThenTidLess>(n, "j_tid");
  ExpectAllPoliciesAgree<core::ByTidThenJoinKeyThenDataLess>(n, "tid_j_d");
  ExpectAllPoliciesAgree<core::ByJoinKeyThenAlignIndexLess>(n, "j_ii");
  ExpectAllPoliciesAgree<core::ByJoinKeyThenTidThenDataLess>(n, "j_tid_d");
  ExpectAllPoliciesAgree<NullsLastByDestLess>(n, "nulls_last");
}

// Below, at, and above the tag-sort cutoff; power-of-two and ragged; above
// the parallel cutoff.
INSTANTIATE_TEST_SUITE_P(Sizes, TagSortSizeTest,
                         ::testing::Values(0, 1, 2, 17, 31, 32, 33, 100, 128,
                                           257, 1000, 1024, 5000));

TEST(TagSortTest, SubrangeSortLeavesRestUntouched) {
  const size_t n = 300;
  memtrace::OArray<Entry> arr = MakeEntries(n, 5);
  const auto before = Contents(arr);
  SortRange(arr, 50, 200, core::ByJoinKeyThenTidLess{}, SortPolicy::kTagSort);
  const auto after = Contents(arr);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(after[i], before[i]);
  for (size_t i = 250; i < n; ++i) EXPECT_EQ(after[i], before[i]);

  memtrace::OArray<Entry> ref = MakeEntries(n, 5);
  SortRange(ref, 50, 200, core::ByJoinKeyThenTidLess{}, SortPolicy::kReference);
  EXPECT_EQ(after, Contents(ref));
}

TEST(TagSortTest, TraceDependsOnlyOnLength) {
  auto hash_of = [](size_t n, uint64_t seed) {
    memtrace::HashTraceSink sink;
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<Entry> arr = MakeEntries(n, seed);
    Sort(arr, core::ByTidThenJoinKeyThenDataLess{}, SortPolicy::kTagSort);
    return sink.HexDigest();
  };
  for (const size_t n : {size_t{64}, size_t{100}}) {
    EXPECT_EQ(hash_of(n, 3), hash_of(n, 33)) << n;
    EXPECT_NE(hash_of(n, 3), hash_of(n + 1, 3)) << n;
  }
}

// --- Tag sort on a wide pool -------------------------------------------------

// On a wide pool the tag sort replays the tag network's per-task buffers
// and each Beneš column's events in deterministic sequential order, so its
// traced event stream must be *byte-identical* to the width-1 run's — not
// merely input-independent.  Sizes straddle both parallel cutoffs (tag
// network: 2^12 elements; Beneš columns: 2^14 network slots).
class ParallelTagTraceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelTagTraceTest, TraceByteIdenticalToSequentialTagSort) {
  const size_t n = GetParam();
  auto trace_of = [&](unsigned width) {
    ThreadPool pool(width);
    memtrace::VectorTraceSink sink;
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<Entry> arr = MakeEntries(n, n * 7 + 1);
    uint64_t comparisons = 0;
    SortPolicy chosen = SortPolicy::kAuto;
    SortRange(arr, 0, n, core::ByJoinKeyThenTidLess{}, SortPolicy::kTagSort,
              &comparisons, &pool, &chosen);
    EXPECT_EQ(comparisons, BitonicComparisonCount(n));
    EXPECT_EQ(chosen, SortPolicy::kTagSort);
    return sink;
  };
  const auto sequential = trace_of(1);
  const auto parallel = trace_of(4);
  EXPECT_TRUE(sequential.SameTraceAs(parallel)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelTagTraceTest,
                         ::testing::Values(100, 1024, 5000, 20000));

TEST(ParallelTagTest, TraceDependsOnlyOnLength) {
  ThreadPool pool(4);
  auto hash_of = [&](size_t n, uint64_t seed) {
    memtrace::HashTraceSink sink;
    memtrace::TraceScope scope(&sink);
    memtrace::OArray<Entry> arr = MakeEntries(n, seed);
    SortRange(arr, 0, n, core::ByTidThenJoinKeyThenDataLess{},
              SortPolicy::kTagSort, nullptr, &pool);
    return sink.HexDigest();
  };
  // 5000 crosses the tag network's parallel cutoff, so the fanned-out tag
  // phase (deterministically replayed) is actually exercised.
  for (const size_t n : {size_t{100}, size_t{5000}}) {
    EXPECT_EQ(hash_of(n, 3), hash_of(n, 33)) << n;
    EXPECT_NE(hash_of(n, 3), hash_of(n + 1, 3)) << n;
  }
}

// kAuto on the 72-byte Entry with a multi-worker pool resolves to the
// tag tier (fanned out) beyond the crossover — and the sorted output still
// matches the reference network exactly.  (8 workers: at 4 the model puts
// the two fanned-out tiers within a nanosecond of each other at this n —
// the wide network's bandwidth cap and the planner's Amdahl tail nearly
// cancel — so the test sits clear of that boundary.)
TEST(ParallelTagTest, AutoPicksTagSortForWideElementsAndAgrees) {
  const size_t n = 20000;
  ThreadPool pool(8);
  memtrace::OArray<Entry> arr = MakeEntries(n, 99);
  SortPolicy chosen = SortPolicy::kAuto;
  SortRange(arr, 0, n, core::ByJoinKeyThenTidLess{}, SortPolicy::kAuto,
            nullptr, &pool, &chosen);
  EXPECT_EQ(chosen, SortPolicy::kTagSort);

  memtrace::OArray<Entry> ref = MakeEntries(n, 99);
  SortRange(ref, 0, n, core::ByJoinKeyThenTidLess{}, SortPolicy::kBlocked);
  EXPECT_EQ(Contents(arr), Contents(ref));
}

// --- Pipeline-level equivalence ---------------------------------------------

TEST(TagSortTest, JoinRowsIdenticalUnderEveryPolicy) {
  const workload::TestCase tc = workload::PowerLaw(/*n=*/120, /*alpha=*/1.4,
                                                   /*seed=*/9);
  std::vector<JoinedRecord> reference;
  for (const SortPolicy policy : kAllPolicies) {
    core::ExecContext ctx;
    ctx.sort_policy = policy;
    const std::vector<JoinedRecord> rows =
        core::ObliviousJoin(tc.t1, tc.t2, ctx);
    if (policy == SortPolicy::kReference) {
      reference = rows;
    } else {
      EXPECT_EQ(rows, reference) << static_cast<int>(policy);
    }
  }
}

TEST(TagSortTest, JoinTraceDataIndependentUnderTagSort) {
  auto hash_of = [](const workload::TestCase& tc) {
    memtrace::HashTraceSink sink;
    memtrace::TraceScope scope(&sink);
    core::ExecContext ctx;
    ctx.sort_policy = SortPolicy::kTagSort;
    (void)core::ObliviousJoin(tc.t1, tc.t2, ctx);
    return sink.HexDigest();
  };
  const auto a = workload::WithOutputSize(64, 16, 0, 1);
  const auto b = workload::WithOutputSize(64, 16, 3, 77);
  EXPECT_EQ(hash_of(a), hash_of(b));
}

TEST(TagSortTest, RelationalOperatorsAgreeAcrossPolicies) {
  const workload::TestCase tc = workload::PowerLaw(90, 1.6, 21);
  const Table distinct_ref = core::ObliviousDistinct(tc.t1);
  const Table semi_ref = core::ObliviousSemiJoin(tc.t1, tc.t2);
  const Table anti_ref = core::ObliviousAntiJoin(tc.t1, tc.t2);
  const auto agg_ref = core::ObliviousJoinAggregate(tc.t1, tc.t2);
  for (const SortPolicy policy :
       {SortPolicy::kBlocked, SortPolicy::kTagSort}) {
    core::ExecContext ctx;
    ctx.sort_policy = policy;
    EXPECT_EQ(core::ObliviousDistinct(tc.t1, ctx).rows(), distinct_ref.rows());
    EXPECT_EQ(core::ObliviousSemiJoin(tc.t1, tc.t2, ctx).rows(),
              semi_ref.rows());
    EXPECT_EQ(core::ObliviousAntiJoin(tc.t1, tc.t2, ctx).rows(),
              anti_ref.rows());
    EXPECT_EQ(core::ObliviousJoinAggregate(tc.t1, tc.t2, ctx), agg_ref);
  }
}

TEST(TagSortTest, DistributeAgreesUnderTagSort) {
  // ObliviousDistribute's nulls-last pre-sort runs through the policy knob;
  // the routed placement must be unchanged.
  for (const size_t m : {size_t{64}, size_t{100}}) {
    crypto::ChaCha20Rng rng(m);
    memtrace::OArray<Entry> tagged(m, "dist_t");
    memtrace::OArray<Entry> reference(m, "dist_r");
    uint64_t dest = 0;
    size_t n = 0;
    for (size_t i = 0; i < m && dest < m; ++i) {
      dest += 1 + rng.Uniform(2);
      if (dest > m) break;
      Entry e;
      e.join_key = 5000 + i;
      e.dest = dest;
      tagged.Write(n, e);
      reference.Write(n, e);
      ++n;
    }
    ObliviousDistribute(tagged, n, nullptr, SortPolicy::kTagSort);
    ObliviousDistribute(reference, n, nullptr, SortPolicy::kReference);
    EXPECT_EQ(Contents(tagged), Contents(reference)) << m;
  }
}

}  // namespace
}  // namespace oblivdb::obliv
