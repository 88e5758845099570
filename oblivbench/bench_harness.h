// Header-only support for the repository benchmark (oblivdb_bench.cc):
//
//   * the environment header every run records — nproc, the global pool
//     width, the commit and build type, the effective value of every
//     OBLIVDB_* default, and any OBLIVDB_* variable actually set;
//   * sample summaries: median, quartiles, and the highest percentile that
//     has at least ten samples beyond it, with the sample count;
//   * process CPU time and peak RSS from getrusage;
//   * one compact JSON writer, used for the result line and the span file.
//
// Quartiles use the "exclusive" method of Python's statistics.quantiles,
// so a run's own summary and compare_benchmark.py agree on definitions.

#ifndef OBLIVBENCH_BENCH_HARNESS_H_
#define OBLIVBENCH_BENCH_HARNESS_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/exec_context.h"
#include "obliv/artifact_cache.h"
#include "obliv/sort_policy.h"
#include "service/query_service.h"

extern char** environ;

namespace oblivbench {

// ------------------------------------------------------------ JSON writer ---

// Builds one JSON document on a single line.  Numbers are printed with
// every significant digit (%.17g), so a measured value is never rounded
// into looking constant.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& Value(uint64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Value(std::string_view v) {
    Separate();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }

  // Key + Value in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, T v) {
    return Key(key).Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  // Emits the comma between siblings; a value right after its key needs
  // none.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ------------------------------------------------------------ statistics ---

// Nearest-rank percentile of ascending `sorted` (p in [0, 100]); with fewer
// than 100 / (100 - p) samples this is the maximum.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

// Python statistics.quantiles(data, n=4) (method "exclusive"): q1, q2, q3.
inline std::array<double, 3> Quartiles(const std::vector<double>& sorted) {
  const size_t ld = sorted.size();
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {sorted[0], sorted[0], sorted[0]};
  std::array<double, 3> q{};
  const int64_t m = static_cast<int64_t>(ld) + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, static_cast<int64_t>(ld) - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (sorted[j - 1] * static_cast<double>(4 - delta) +
                sorted[j] * static_cast<double>(delta)) /
               4.0;
  }
  return q;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest of the usual reporting percentiles that still has at least
// ten samples beyond it; 50 when even the median has fewer.
inline double HighestSupportedPercentile(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// The value at HighestSupportedPercentile of ascending `sorted`: the
// median when the sample is too small for any tail.
inline double SupportedTail(const std::vector<double>& sorted) {
  const double p = HighestSupportedPercentile(sorted.size());
  return p == 50.0 ? Median(sorted) : Percentile(sorted, p);
}

struct SampleSummary {
  size_t count = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double max = 0;
  double tail_percentile = 50;  // HighestSupportedPercentile(count)
  double tail = 0;              // SupportedTail
};

inline SampleSummary Summarize(std::vector<double> samples) {
  SampleSummary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  if (samples.empty()) return s;
  const std::array<double, 3> q = Quartiles(samples);
  s.q1 = q[0];
  s.q3 = q[2];
  s.median = Median(samples);
  s.max = samples.back();
  s.tail_percentile = HighestSupportedPercentile(samples.size());
  s.tail = SupportedTail(samples);
  return s;
}

inline void WriteSummary(JsonWriter& w, const SampleSummary& s) {
  w.BeginObject()
      .Field("count", static_cast<uint64_t>(s.count))
      .Field("median", s.median)
      .Field("q1", s.q1)
      .Field("q3", s.q3)
      .Field("max", s.max)
      .Field("tail_percentile", s.tail_percentile)
      .Field("tail", s.tail)
      .EndObject();
}

// ----------------------------------------------------------------- usage ---

struct Usage {
  double cpu_seconds = 0;  // user + system, whole process
  double peak_rss_mb = 0;  // ru_maxrss
};

inline Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                             ru.ru_stime.tv_usec);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

// ----------------------------------------------------------- environment ---

inline unsigned OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

// Every OBLIVDB_* variable present in the process environment, as
// "NAME=value".  The benchmark's run rules require this to be empty.
inline std::vector<std::string> SetOblivdbVariables() {
  std::vector<std::string> set;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::string_view(*e).substr(0, 8) == "OBLIVDB_") set.emplace_back(*e);
  }
  return set;
}

#ifndef OBLIVBENCH_BUILD_TYPE
#define OBLIVBENCH_BUILD_TYPE "unknown"
#endif

// The environment header: what a number depends on besides the code.
inline void WriteEnvironment(JsonWriter& w, std::string_view commit) {
  using oblivdb::core::ExecContext;
  w.BeginObject()
      .Field("nproc", OnlineCpus())
      .Field("pool_width", oblivdb::ThreadPool::Global().worker_count())
      .Field("commit", commit)
      .Field("build_type", OBLIVBENCH_BUILD_TYPE);
  w.Key("defaults")
      .BeginObject()
      .Field("sort_policy",
             oblivdb::obliv::SortPolicyName(ExecContext::DefaultSortPolicy()))
      .Field("sort_elision", ExecContext::DefaultSortElision())
      .Field("optimize", ExecContext::DefaultOptimize())
      .Field("deadline_seconds", ExecContext::DefaultDeadlineSeconds())
      .Field("shards", ExecContext::DefaultShards())
      .Field("plan_cache", oblivdb::obliv::ArtifactCache::DefaultEnabled())
      .Field("service_sessions",
             oblivdb::service::ServiceOptions::DefaultSessions())
      .Field("batch_admit",
             oblivdb::service::ServiceOptions::DefaultBatchAdmit())
      .EndObject();
  w.Key("oblivdb_env").BeginArray();
  for (const std::string& v : SetOblivdbVariables()) w.Value(v);
  w.EndArray().EndObject();
}

}  // namespace oblivbench

#endif  // OBLIVBENCH_BENCH_HARNESS_H_
