// Deterministic fault-injection harness.
//
// Four injection sites model the environmental faults an enclave-hosted
// engine actually faces:
//
//   decrypt_mac — EncryptedOArray authenticated read fails (transient bus /
//                 torn-write corruption; a real forgery also lands here);
//   pool_spawn  — ThreadPool::TrySpawnProbe refuses a parallel fan-out
//                 (thread / task-slot exhaustion);
//   alloc       — OArray construction fails (public-memory exhaustion);
//   worker_crash— a QueryService session worker dies between queries (the
//                 process-level analogue of a crashed enclave thread; the
//                 service requeues its in-flight work and respawns the
//                 slot — service/query_service.h).
//
// Configuration comes from the OBLIVDB_FAULT_SPEC environment variable (or
// Configure() in tests), e.g.
//
//     OBLIVDB_FAULT_SPEC="decrypt_mac:0.01;worker_crash:5;pool_spawn:once"
//
// where each site takes one mode: a probability in (0,1) (fire that
// fraction of arrivals), an integer N >= 1 (fire every Nth arrival),
// "once" (fire the first arrival only), or "off".
//
// Determinism is the point: whether arrival k at a site fires is the pure
// function MixSeed(MixSeed(seed, stream), k) — the same per-stream
// derivation as ExecContext::DeriveSeed (common/bits.h) — of the injector
// seed, the site's fixed stream (FaultSiteStream) and the site's arrival
// counter.  Same spec + same seed + same workload ⇒ the
// identical fault sequence and the identical Status, run after run
// (tests/robustness_test.cc pins this).  Decisions never read data, so
// injection preserves trace data-independence.

#ifndef OBLIVDB_COMMON_FAULT_H_
#define OBLIVDB_COMMON_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace oblivdb {

enum class FaultSite : uint8_t {
  kDecryptMac = 0,
  kPoolSpawn = 1,
  kAlloc = 2,
  kWorkerCrash = 3,
};

inline constexpr size_t kNumFaultSites = 4;

// The spec-syntax token for a site ("decrypt_mac", "pool_spawn", "alloc",
// "worker_crash").
const char* FaultSiteName(FaultSite site);

// The mixer stream a site's probabilistic decisions draw from.  Fixed per
// site rather than derived from the enum value: stream 2 belonged to a
// retired site (EPC reservations), and skipping it keeps every remaining
// site's fired sequence unchanged.
uint64_t FaultSiteStream(FaultSite site);

struct FaultMode {
  enum class Kind : uint8_t { kOff, kProbability, kEveryNth, kOnce };
  Kind kind = Kind::kOff;
  double probability = 0.0;  // kProbability: in (0, 1)
  uint64_t n = 0;            // kEveryNth: fire arrivals N, 2N, 3N, ...
};

struct FaultSpec {
  std::array<FaultMode, kNumFaultSites> sites{};

  bool any() const {
    for (const FaultMode& m : sites) {
      if (m.kind != FaultMode::Kind::kOff) return true;
    }
    return false;
  }

  // Parses "site:mode;site:mode".  Empty text parses to the all-off spec.
  // Unknown site names or malformed modes yield kInvalidArgument naming the
  // offending token; nothing partial escapes.
  static StatusOr<FaultSpec> Parse(std::string_view text);

  // The spec OBLIVDB_FAULT_SPEC requests: the all-off spec when unset or
  // empty, kInvalidArgument (with the offending token) when malformed.
  // Service startup (QueryService::Create) propagates the failure instead
  // of silently running un-faulted under a spec the operator thought was
  // live.
  static StatusOr<FaultSpec> FromEnv();
};

// Monotonic counters, snapshot-able so operators can report the faults that
// fired inside their own execution window (JoinStats::op_faults_injected /
// op_degradations / op_retries are window deltas of these).
struct FaultCounters {
  std::array<uint64_t, kNumFaultSites> arrivals{};
  std::array<uint64_t, kNumFaultSites> fired{};
  uint64_t degradations = 0;
  uint64_t retries = 0;

  uint64_t TotalFired() const {
    uint64_t total = 0;
    for (uint64_t f : fired) total += f;
    return total;
  }
};

class FaultInjector {
 public:
  // Process-wide injector.  First use parses OBLIVDB_FAULT_SPEC (unset,
  // empty, or unparsable — with a stderr warning — means disabled) under
  // the library's default seed.
  static FaultInjector& Global();

  // Replaces spec and seed.  Not synchronized against concurrent ShouldFire
  // callers — configuration belongs at startup or between pipeline runs
  // (tests use ScopedFaultInjection).  Counters are left running.
  void Configure(const FaultSpec& spec, uint64_t seed);

  const FaultSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  bool enabled() const { return enabled_; }

  // Registers one arrival at `site` and decides — deterministically, as a
  // pure function of (seed, site, arrival index) — whether the fault fires.
  // Thread-safe; the arrival order across threads is whatever the workload
  // makes it (single-driver workloads are exactly reproducible).
  bool ShouldFire(FaultSite site);

  // Degradation / retry bookkeeping for the recovery paths.
  void RecordDegradation() {
    degradations_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }

  FaultCounters Snapshot() const;

 private:
  friend class ScopedFaultInjection;

  FaultInjector() = default;

  // Test-only: bulk-restores counter values (ScopedFaultInjection teardown).
  void RestoreCounters(const FaultCounters& counters);

  FaultSpec spec_{};
  uint64_t seed_ = 0;
  bool enabled_ = false;
  std::array<std::atomic<uint64_t>, kNumFaultSites> arrivals_{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> fired_{};
  std::atomic<uint64_t> degradations_{0};
  std::atomic<uint64_t> retries_{0};
};

// Default injector seed (also ExecContext's default rng_seed, so env-driven
// injection and context-derived streams share one root by default).
inline constexpr uint64_t kDefaultFaultSeed = 0x0b11da7aba5e5eedULL;

// RAII configuration override for tests: swaps the global injector's spec,
// seed, and counters in, restores all of them on destruction — so a test
// can pin exact fired/retry counts without seeing its neighbours' arrivals.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(const FaultSpec& spec, uint64_t seed = kDefaultFaultSeed);
  // Parses `spec_text`; a malformed spec is a test bug and aborts.
  explicit ScopedFaultInjection(std::string_view spec_text,
                                uint64_t seed = kDefaultFaultSeed);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  void Install(const FaultSpec& spec, uint64_t seed);

  FaultSpec saved_spec_;
  uint64_t saved_seed_ = 0;
  bool saved_enabled_ = false;
  FaultCounters saved_counters_;
};

}  // namespace oblivdb

#endif  // OBLIVDB_COMMON_FAULT_H_
