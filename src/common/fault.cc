#include "common/fault.h"

#include <cstdio>
#include <cstdlib>

#include "common/bits.h"

namespace oblivdb {

namespace {

bool ParseSite(std::string_view token, FaultSite* out) {
  for (size_t s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    if (token == FaultSiteName(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

bool ParseMode(std::string_view token, FaultMode* out) {
  if (token == "off") {
    *out = FaultMode{};
    return true;
  }
  if (token == "once") {
    out->kind = FaultMode::Kind::kOnce;
    return true;
  }
  if (token.empty()) return false;
  if (token.find('.') != std::string_view::npos) {
    const std::string buf(token);
    char* end = nullptr;
    const double p = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return false;
    if (!(p > 0.0 && p < 1.0)) return false;
    out->kind = FaultMode::Kind::kProbability;
    out->probability = p;
    return true;
  }
  uint64_t n = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<uint64_t>(c - '0');
    if (n > (uint64_t{1} << 62)) return false;
  }
  if (n == 0) {
    *out = FaultMode{};  // "0" = off
    return true;
  }
  out->kind = FaultMode::Kind::kEveryNth;
  out->n = n;
  return true;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kDecryptMac:
      return "decrypt_mac";
    case FaultSite::kPoolSpawn:
      return "pool_spawn";
    case FaultSite::kAlloc:
      return "alloc";
    case FaultSite::kWorkerCrash:
      return "worker_crash";
  }
  return "unknown";
}

uint64_t FaultSiteStream(FaultSite site) {
  switch (site) {
    case FaultSite::kDecryptMac:
      return 1;
    case FaultSite::kPoolSpawn:
      return 3;
    case FaultSite::kAlloc:
      return 4;
    case FaultSite::kWorkerCrash:
      return 5;
  }
  return 0;
}

StatusOr<FaultSpec> FaultSpec::Parse(std::string_view text) {
  FaultSpec parsed;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;  // tolerate "a:1;;b:2" and trailing ';'
    const size_t colon = clause.find(':');
    if (colon == std::string_view::npos) {
      return Status(StatusCode::kInvalidArgument,
                    "fault spec clause '" + std::string(clause) +
                        "' has no ':' (want site:mode)");
    }
    FaultSite site;
    if (!ParseSite(clause.substr(0, colon), &site)) {
      return Status(StatusCode::kInvalidArgument,
                    "unknown fault site '" +
                        std::string(clause.substr(0, colon)) + "'");
    }
    FaultMode mode;
    if (!ParseMode(clause.substr(colon + 1), &mode)) {
      return Status(StatusCode::kInvalidArgument,
                    "bad fault mode '" + std::string(clause.substr(colon + 1)) +
                        "' (want a probability in (0,1), an integer N >= 1, "
                        "'once', or 'off')");
    }
    parsed.sites[static_cast<size_t>(site)] = mode;
  }
  return parsed;
}

StatusOr<FaultSpec> FaultSpec::FromEnv() {
  const char* env = std::getenv("OBLIVDB_FAULT_SPEC");
  if (env == nullptr) return FaultSpec{};
  return Parse(env);
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    StatusOr<FaultSpec> parsed = FaultSpec::FromEnv();
    if (!parsed.ok()) {
      // Library code cannot refuse to start; the *service* startup path
      // (QueryService::Create) re-parses and propagates the failure as a
      // Status instead of running un-faulted.
      std::fprintf(stderr, "oblivdb: ignoring OBLIVDB_FAULT_SPEC: %s\n",
                   parsed.status().ToString().c_str());
      parsed = FaultSpec{};
    }
    inj->Configure(*parsed, kDefaultFaultSeed);
    return inj;
  }();
  return *injector;
}

void FaultInjector::Configure(const FaultSpec& spec, uint64_t seed) {
  spec_ = spec;
  seed_ = seed;
  enabled_ = spec.any();
}

bool FaultInjector::ShouldFire(FaultSite site) {
  if (!enabled_) return false;
  const size_t s = static_cast<size_t>(site);
  const FaultMode& mode = spec_.sites[s];
  if (mode.kind == FaultMode::Kind::kOff) return false;
  // 1-based arrival index: the deterministic input to the decision.
  const uint64_t arrival = arrivals_[s].fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (mode.kind) {
    case FaultMode::Kind::kOff:
      break;
    case FaultMode::Kind::kOnce:
      fire = arrival == 1;
      break;
    case FaultMode::Kind::kEveryNth:
      fire = arrival % mode.n == 0;
      break;
    case FaultMode::Kind::kProbability: {
      // 53-bit uniform in [0,1) from the shared per-stream mixer; streams
      // start at 1, keeping every site distinct from the root seed itself.
      const uint64_t h =
          MixSeed(MixSeed(seed_, FaultSiteStream(site)), arrival);
      fire = static_cast<double>(h >> 11) * 0x1.0p-53 < mode.probability;
      break;
    }
  }
  if (fire) fired_[s].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

FaultCounters FaultInjector::Snapshot() const {
  FaultCounters c;
  for (size_t s = 0; s < kNumFaultSites; ++s) {
    c.arrivals[s] = arrivals_[s].load(std::memory_order_relaxed);
    c.fired[s] = fired_[s].load(std::memory_order_relaxed);
  }
  c.degradations = degradations_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  return c;
}

void FaultInjector::RestoreCounters(const FaultCounters& counters) {
  for (size_t s = 0; s < kNumFaultSites; ++s) {
    arrivals_[s].store(counters.arrivals[s], std::memory_order_relaxed);
    fired_[s].store(counters.fired[s], std::memory_order_relaxed);
  }
  degradations_.store(counters.degradations, std::memory_order_relaxed);
  retries_.store(counters.retries, std::memory_order_relaxed);
}

ScopedFaultInjection::ScopedFaultInjection(const FaultSpec& spec,
                                           uint64_t seed) {
  Install(spec, seed);
}

ScopedFaultInjection::ScopedFaultInjection(std::string_view spec_text,
                                           uint64_t seed) {
  const StatusOr<FaultSpec> parsed = FaultSpec::Parse(spec_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ScopedFaultInjection: %s\n",
                 parsed.status().ToString().c_str());
  }
  OBLIVDB_CHECK(parsed.ok());
  Install(*parsed, seed);
}

void ScopedFaultInjection::Install(const FaultSpec& spec, uint64_t seed) {
  FaultInjector& inj = FaultInjector::Global();
  saved_spec_ = inj.spec();
  saved_seed_ = inj.seed();
  saved_enabled_ = inj.enabled();
  saved_counters_ = inj.Snapshot();
  inj.Configure(spec, seed);
  // Fresh counters so the scope's arrival indices start at 1 — exact
  // fired-sequence assertions do not depend on earlier tests.
  inj.RestoreCounters(FaultCounters{});
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector& inj = FaultInjector::Global();
  inj.Configure(saved_spec_, saved_seed_);
  inj.RestoreCounters(saved_counters_);
}

}  // namespace oblivdb
