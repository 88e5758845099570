// ArtifactCache: an empty stand-in.  The engine caches nothing below the
// query service's plan cache (service/plan_cache.h); the sort kernel has
// no reusable byproduct.  The names exist because the repository benchmark
// (oblivbench/) reads them: ArtifactCache::Global().stats(), whose hits
// and misses are always 0, and ArtifactCache::DefaultEnabled(), which
// parses OBLIVDB_PLAN_CACHE for ServiceOptions::plan_cache.

#ifndef OBLIVDB_OBLIV_ARTIFACT_CACHE_H_
#define OBLIVDB_OBLIV_ARTIFACT_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace oblivdb::obliv {

class ArtifactCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  static ArtifactCache& Global() {
    static ArtifactCache cache;
    return cache;
  }

  // OBLIVDB_PLAN_CACHE: "off"/"0"/"false" disables the query service's
  // plan cache default; anything else, including unset, enables it.  Read
  // once and cached, like the ExecContext env defaults.
  static bool DefaultEnabled() {
    static const bool enabled = [] {
      const char* env = std::getenv("OBLIVDB_PLAN_CACHE");
      if (env == nullptr) return true;
      const std::string_view v(env);
      return !(v == "off" || v == "0" || v == "false");
    }();
    return enabled;
  }

  Stats stats() const { return Stats{}; }
};

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_ARTIFACT_CACHE_H_
