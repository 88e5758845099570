#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/exec_context.h"

namespace oblivdb {
namespace {

TEST(BitsTest, CeilPow2Basics) {
  EXPECT_EQ(CeilPow2(0), 1u);
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(4), 4u);
  EXPECT_EQ(CeilPow2(5), 8u);
  EXPECT_EQ(CeilPow2(1023), 1024u);
  EXPECT_EQ(CeilPow2(1024), 1024u);
  EXPECT_EQ(CeilPow2(1025), 2048u);
}

TEST(BitsTest, GreatestPow2LessThan) {
  EXPECT_EQ(GreatestPow2LessThan(2), 1u);
  EXPECT_EQ(GreatestPow2LessThan(3), 2u);
  EXPECT_EQ(GreatestPow2LessThan(4), 2u);
  EXPECT_EQ(GreatestPow2LessThan(5), 4u);
  EXPECT_EQ(GreatestPow2LessThan(8), 4u);
  EXPECT_EQ(GreatestPow2LessThan(9), 8u);
  EXPECT_EQ(GreatestPow2LessThan(1 << 20), 1u << 19);
}

TEST(BitsTest, Log2CeilAndFloor) {
  EXPECT_EQ(Log2Ceil(1), 0u);
  EXPECT_EQ(Log2Ceil(2), 1u);
  EXPECT_EQ(Log2Ceil(3), 2u);
  EXPECT_EQ(Log2Ceil(8), 3u);
  EXPECT_EQ(Log2Ceil(9), 4u);
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(8), 3u);
  EXPECT_EQ(Log2Floor(9), 3u);
}

TEST(BitsTest, PairwiseConsistency) {
  for (uint64_t n = 1; n < 5000; ++n) {
    EXPECT_EQ(CeilPow2(n), uint64_t{1} << Log2Ceil(n)) << n;
    if (n >= 2) {
      const uint64_t p = GreatestPow2LessThan(n);
      EXPECT_TRUE(IsPow2(p));
      EXPECT_LT(p, n);
      EXPECT_GE(2 * p, n);
    }
  }
}

TEST(BitsTest, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_TRUE(IsPow2(uint64_t{1} << 63));
  EXPECT_FALSE(IsPow2((uint64_t{1} << 63) + 1));
}

TEST(BitsTest, MixSeedIsDeterministicAndStreamSeparated) {
  EXPECT_EQ(MixSeed(42, 7), MixSeed(42, 7));
  EXPECT_NE(MixSeed(42, 7), MixSeed(42, 8));
  EXPECT_NE(MixSeed(42, 7), MixSeed(43, 7));
}

// ---------------------------------------------------------------------------
// Status / StatusOr (common/status.h).

// ExecContext::DeriveSeed is MixSeed under the name the retry and session
// streams use (kRetrySeedStreamBase, the service's session base).
TEST(BitsTest, SeedDerivationDeterministicAndDistinct) {
  const uint64_t base = 0x1234;
  std::set<uint64_t> seen;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    const uint64_t d = core::ExecContext::DeriveSeed(base, stream);
    EXPECT_EQ(d, core::ExecContext::DeriveSeed(base, stream));
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::Ok());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s(StatusCode::kIntegrityViolation, "MAC verification failed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(s.ToString(), "INTEGRITY_VIOLATION: MAC verification failed");
  EXPECT_NE(s, Status::Ok());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIntegrityViolation),
               "INTEGRITY_VIOLATION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_EQ((*r)[2], 3);
}

TEST(StatusOrTest, HoldsStatus) {
  StatusOr<int> r(Status(StatusCode::kResourceExhausted, "no EPC"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> r(Status(StatusCode::kCancelled, "stop"));
  EXPECT_DEATH((void)r.value(), "OBLIVDB_CHECK");
}

TEST(StatusDeathTest, RaiseWithoutRecoveryScopeAborts) {
  EXPECT_DEATH(RaiseOrAbort(Status(StatusCode::kResourceExhausted, "boom"),
                            __FILE__, __LINE__),
               "OBLIVDB fault \\(no recovery scope\\).*RESOURCE_EXHAUSTED");
}

// ---------------------------------------------------------------------------
// OBLIVDB_CHECK_OP operand rendering (common/check.h).

TEST(CheckOpDeathTest, PrintsBothOperandValues) {
  const int lhs = 5;
  const int rhs = 3;
  EXPECT_DEATH(OBLIVDB_CHECK_EQ(lhs, rhs),
               "OBLIVDB_CHECK failed at .*lhs == rhs \\(5 vs 3\\)");
}

TEST(CheckOpDeathTest, PrintsUnsignedValues) {
  const size_t i = 17;
  const size_t n = 16;
  EXPECT_DEATH(OBLIVDB_CHECK_LT(i, n), "i < n \\(17 vs 16\\)");
}

TEST(CheckOpTest, PassingCheckEvaluatesOperandsOnce) {
  int evals = 0;
  auto once = [&evals] { return ++evals; };
  OBLIVDB_CHECK_GE(once(), 1);
  EXPECT_EQ(evals, 1);
}

// ---------------------------------------------------------------------------
// Fault-spec parsing and injector determinism (common/fault.h).

TEST(FaultSpecTest, EmptyTextParsesToAllOff) {
  const StatusOr<FaultSpec> spec = FaultSpec::Parse("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->any());
}

TEST(FaultSpecTest, ParsesEveryModeKind) {
  const StatusOr<FaultSpec> parsed = FaultSpec::Parse(
      "decrypt_mac:0.01;pool_spawn:once;alloc:off;worker_crash:3");
  ASSERT_TRUE(parsed.ok());
  auto site = [&](FaultSite s) -> const FaultMode& {
    return parsed->sites[static_cast<size_t>(s)];
  };
  EXPECT_EQ(site(FaultSite::kDecryptMac).kind, FaultMode::Kind::kProbability);
  EXPECT_DOUBLE_EQ(site(FaultSite::kDecryptMac).probability, 0.01);
  EXPECT_EQ(site(FaultSite::kPoolSpawn).kind, FaultMode::Kind::kOnce);
  EXPECT_EQ(site(FaultSite::kAlloc).kind, FaultMode::Kind::kOff);
  EXPECT_EQ(site(FaultSite::kWorkerCrash).kind, FaultMode::Kind::kEveryNth);
  EXPECT_EQ(site(FaultSite::kWorkerCrash).n, 3u);
  EXPECT_TRUE(parsed->any());
}

TEST(FaultSpecTest, RejectsUnknownSiteAndBadModeNamingTheToken) {
  // "epc_evict" named a site that no longer exists; it is unknown now.
  for (const char* token : {"bogus_site", "epc_evict"}) {
    const StatusOr<FaultSpec> bad_site =
        FaultSpec::Parse(std::string(token) + ":1");
    ASSERT_FALSE(bad_site.ok()) << token;
    EXPECT_EQ(bad_site.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad_site.status().message().find(token), std::string::npos);
  }
  const StatusOr<FaultSpec> bad_mode = FaultSpec::Parse("decrypt_mac:1.5");
  ASSERT_FALSE(bad_mode.ok());
  EXPECT_EQ(bad_mode.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_mode.status().message().find("1.5"), std::string::npos);
  EXPECT_EQ(FaultSpec::Parse("decrypt_mac").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, SameSpecAndSeedFireTheSameArrivals) {
  auto fired_pattern = [] {
    ScopedFaultInjection scoped("decrypt_mac:0.25", /*seed=*/99);
    std::vector<bool> fired;
    fired.reserve(64);
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FaultInjector::Global().ShouldFire(FaultSite::kDecryptMac));
    }
    return fired;
  };
  const std::vector<bool> first = fired_pattern();
  const std::vector<bool> second = fired_pattern();
  EXPECT_EQ(first, second);
  // A 25% probability over 64 arrivals fires somewhere strictly between
  // never and always (the exact positions are pinned by the equality above).
  size_t count = 0;
  for (bool b : first) count += b ? 1 : 0;
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, 64u);
}

// The probabilistic streams are fixed per site, so retiring a site never
// moves another site's fired sequence.
TEST(FaultInjectorTest, SiteStreamsAreStable) {
  EXPECT_EQ(FaultSiteStream(FaultSite::kDecryptMac), 1u);
  EXPECT_EQ(FaultSiteStream(FaultSite::kPoolSpawn), 3u);
  EXPECT_EQ(FaultSiteStream(FaultSite::kAlloc), 4u);
  EXPECT_EQ(FaultSiteStream(FaultSite::kWorkerCrash), 5u);
}

TEST(FaultInjectorTest, EveryNthAndOnceModes) {
  {
    ScopedFaultInjection scoped("alloc:3");
    FaultInjector& inj = FaultInjector::Global();
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i) {
      fired.push_back(inj.ShouldFire(FaultSite::kAlloc));
    }
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                        false, false, true}));
  }
  {
    ScopedFaultInjection scoped("pool_spawn:once");
    FaultInjector& inj = FaultInjector::Global();
    EXPECT_TRUE(inj.ShouldFire(FaultSite::kPoolSpawn));
    EXPECT_FALSE(inj.ShouldFire(FaultSite::kPoolSpawn));
    EXPECT_FALSE(inj.ShouldFire(FaultSite::kPoolSpawn));
  }
}

TEST(FaultInjectorTest, ScopedInjectionRestoresCounters) {
  const FaultCounters before = FaultInjector::Global().Snapshot();
  {
    ScopedFaultInjection scoped("alloc:once");
    FaultInjector::Global().ShouldFire(FaultSite::kAlloc);
    FaultInjector::Global().RecordRetry();
    FaultInjector::Global().RecordDegradation();
  }
  const FaultCounters after = FaultInjector::Global().Snapshot();
  EXPECT_EQ(after.arrivals, before.arrivals);
  EXPECT_EQ(after.fired, before.fired);
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(after.degradations, before.degradations);
}

TEST(FaultInjectorTest, DisabledSiteDoesNotCountArrivals) {
  ScopedFaultInjection scoped("alloc:2");
  FaultInjector& inj = FaultInjector::Global();
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kDecryptMac));  // site off
  const FaultCounters counters = inj.Snapshot();
  EXPECT_EQ(counters.arrivals[0], 0u);  // off sites stay at zero arrivals,
  // so enabling one site never shifts another site's deterministic stream.
}

}  // namespace
}  // namespace oblivdb
