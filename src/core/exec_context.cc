#include "core/exec_context.h"

#include <cstdlib>
#include <string_view>

#include "common/bits.h"

namespace oblivdb::core {

uint64_t ExecContext::DeriveSeed(uint64_t seed, uint64_t stream) {
  // The library-wide per-stream mixer (common/bits.h) — shared with the
  // fault injector so injected fault sequences and retry/session seeds
  // derive from the same deterministic root.
  return MixSeed(seed, stream);
}

double ExecContext::DefaultDeadlineSeconds() {
  static const double deadline = [] {
    const char* env = std::getenv("OBLIVDB_DEADLINE_MS");
    if (env == nullptr) return 0.0;
    char* end = nullptr;
    const double ms = std::strtod(env, &end);
    if (end == env || ms <= 0) return 0.0;  // unrecognized: no deadline
    return ms / 1000.0;
  }();
  return deadline;
}

bool ExecContext::DefaultOptimize() {
  static const bool enabled = [] {
    const char* env = std::getenv("OBLIVDB_OPTIMIZE");
    if (env == nullptr) return true;
    const std::string_view v(env);
    if (v == "off" || v == "0" || v == "false") return false;
    if (v == "on" || v == "1" || v == "true") return true;
    return true;  // unrecognized values cannot abort a run
  }();
  return enabled;
}

bool ExecContext::DefaultSortElision() {
  static const bool enabled = [] {
    const char* env = std::getenv("OBLIVDB_SORT_ELISION");
    if (env == nullptr) return true;
    const std::string_view v(env);
    if (v == "off" || v == "0" || v == "false") return false;
    if (v == "on" || v == "1" || v == "true") return true;
    return true;  // unrecognized values cannot abort a run
  }();
  return enabled;
}

}  // namespace oblivdb::core
