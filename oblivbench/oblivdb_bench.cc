// oblivdb_bench: the repository benchmark driver.
//
// One process runs one named workload and prints, as the last line of its
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the run alternates plain and profiled queries, prints the
// per-layer metrics instead, and writes the profiled queries' spans to
// .bench_out/spans-<workload>-<seed>.json.
//
//   oblivdb_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--commit SHA]
//   oblivdb_bench --smoke
//
// Workloads (sizes for a 4-core box with 8 MiB of L2 in total and a 105 MiB
// shared L3; see oblivbench/README.md for why each one exists):
//
//   join_large     Join(Scan, Scan) on workload::Figure8Workload(2^20):
//                  the paper's Figure 8 / Table 3 input, larger than L3.
//   join_skewed    Join on 64 groups of 128 x 128 (n = 2^14, m = 2^20):
//                  output-heavy, so the align and expand phases dominate.
//   plan_pipeline  Aggregate(Select_keyonly(Join(Distinct T1, Distinct T2)),
//                  Distinct T3) at 2^16 rows per table + 25 % duplicates:
//                  optimizer, elision, run merge, Distinct and Aggregate.
//   service_mix    QueryService with nproc sessions: an open loop at a
//                  fixed rate, then a closed loop at saturation, over a
//                  70/20/10 mix of star join, select-over-join and the
//                  chained pipeline.
//
// Run rules: every OBLIVDB_* variable must be unset (the run refuses to
// start otherwise) so the engine runs at its defaults; --seed drives every
// generator and the engine sees only the generated tables; a fixed warm-up
// set runs before timing; every output is checked against a reference
// computed outside the timed region — baselines::SortMergeJoin for the
// joins, and for the plans a solo Executor with optimize and sort elision
// off, a different code path from the one timed.  A failed, rejected or
// wrong query counts in `failed`, and the process then exits nonzero.
//
// The driver times only calls into public entry points (Executor::TryRun,
// OptimizePlan, QueryService::Create/Submit and query completion,
// baselines::SortMergeJoin for references) and reads only counters the
// library already exposes (PlanNodeStats/JoinStats, QueryService::counters,
// ArtifactCache::stats, getrusage).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/sort_merge.h"
#include "bench_harness.h"
#include "common/bits.h"
#include "common/status.h"
#include "core/exec_context.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "obliv/artifact_cache.h"
#include "obliv/ct.h"
#include "service/query_service.h"
#include "table/record.h"
#include "table/table.h"
#include "workload/generators.h"

namespace {

using namespace oblivdb;
using oblivbench::JsonWriter;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------- metrics ---

// The metric names and units BENCHMARK.json declares (run.py --smoke checks
// the two lists agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
    {"saturation_qps", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"query.wait_ms_p50", "ms"},
    {"query.wait_ms_tail", "ms"},
    {"query.exec_ms_p50", "ms"},
    {"service.plan_cache_hit_frac", "fraction"},
    {"service.batched_frac", "fraction"},
    {"service.rejected", "count"},
    {"service.retries", "count"},
    {"loadgen.late_frac", "fraction"},
    {"optimizer.plan_ms", "ms"},
    {"optimizer.rewrites", "count"},
    {"plan.join_ms", "ms"},
    {"plan.distinct_share", "fraction"},
    {"plan.select_share", "fraction"},
    {"plan.aggregate_share", "fraction"},
    {"plan.sorts_elided", "count"},
    {"join.augment_ms", "ms"},
    {"join.expand_ms", "ms"},
    {"join.align_ms", "ms"},
    {"join.zip_ms", "ms"},
    {"join.augment_cmp", "count"},
    {"join.expand_cmp", "count"},
    {"join.route_ops", "count"},
    {"join.align_cmp", "count"},
    {"shard.count", "count"},
    {"shard.max_over_mean", "ratio"},
    {"obliv.sort_ns_per_cmp", "ns/cmp"},
    {"obliv.artifact_hits", "count"},
    {"obliv.artifact_misses", "count"},
    {"pool.cpu_util", "fraction"},
    {"profile.unattributed_frac", "fraction"},
    {"profile.overhead_frac", "fraction"},
};

// ---------------------------------------------------------------- args ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string spans_path;  // empty = .bench_out/spans-<workload>-<seed>.json
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return args.smoke || !args.workload.empty();
}

// ---------------------------------------------------------------- data ---

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return SplitMix64(state);
}

// `n` rows over `key_range` keys plus `dups` exact duplicates of earlier
// rows, so Distinct has real work.
Table FactTable(const std::string& name, size_t n, uint64_t key_range,
                size_t dups, uint64_t seed) {
  Table t(name);
  uint64_t state = seed;
  t.rows().reserve(n + dups);
  for (size_t i = 0; i < n; ++i) {
    t.rows().push_back(
        Record{SplitMix64(state) % key_range, {SplitMix64(state), i}});
  }
  for (size_t i = 0; i < dups; ++i) {
    t.rows().push_back(t.rows()[SplitMix64(state) % n]);
  }
  return t;
}

// Key-unique dimension table with primary keys 0..n-1, in key order.
Table DimTable(const std::string& name, size_t n, uint64_t seed) {
  Table t(name);
  uint64_t state = seed;
  t.rows().reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    t.rows().push_back(Record{k, {SplitMix64(state), k}});
  }
  return t;
}

// Key-only predicate: keeps rows whose key is below `bound`.
core::CtRowPredicate KeyBelow(uint64_t bound) {
  return [bound](const Record& r) { return ct::LeqMask(r.key + 1, bound); };
}

// Aggregate(Select_keyonly(Join(Distinct T1, Distinct T2)), Distinct T3).
core::PlanPtr ChainedPipeline(const std::vector<Table>& t, uint64_t bound) {
  return core::Aggregate(
      core::Select(core::Join(core::Distinct(core::Scan(t[0])),
                              core::Distinct(core::Scan(t[1]))),
                   KeyBelow(bound), /*key_only=*/true),
      core::Distinct(core::Scan(t[2])));
}

// Three tables of `n` rows + 25 % duplicates over n / 2 keys.
std::vector<Table> PipelineTables(size_t n, uint64_t seed) {
  std::vector<Table> tables;
  for (uint64_t i = 0; i < 3; ++i) {
    tables.push_back(FactTable("t" + std::to_string(i + 1), n, n / 2, n / 4,
                               StreamSeed(seed, i)));
  }
  return tables;
}

// --------------------------------------------------------- plan cases ---

// A plan plus the output it must produce.
struct PlanCase {
  core::PlanPtr plan;
  bool check_join = false;                // compare join_rows, else table
  std::vector<JoinedRecord> join_rows;    // root join rows (joins)
  std::vector<Record> table_rows;         // root table rows (plans)
};

// The reference is the insecure sort-merge join of the same tables.
PlanCase JoinCase(workload::TestCase tc) {
  PlanCase c;
  c.check_join = true;
  c.join_rows = baselines::SortMergeJoin(tc.t1, tc.t2);
  c.plan =
      core::Join(core::Scan(std::move(tc.t1)), core::Scan(std::move(tc.t2)));
  return c;
}

// The reference is a solo Executor run with the optimizer and sort elision
// off: the plan runs as written, with every entry sort in full.
std::vector<Record> ReferenceRows(const core::PlanPtr& plan) {
  core::ExecContext ref;
  ref.optimize = false;
  ref.sort_elision = false;
  return core::Executor(ref).Execute(plan).table.rows();
}

PlanCase ReferencedCase(core::PlanPtr plan) {
  PlanCase c;
  c.table_rows = ReferenceRows(plan);
  c.plan = std::move(plan);
  return c;
}

bool Matches(const PlanCase& c, const core::PlanResult& r) {
  return c.check_join ? r.join_rows == c.join_rows
                      : r.table.rows() == c.table_rows;
}

// ----------------------------------------------------- per-query record ---

// One finished query, condensed from its PlanNodeStats.
struct QueryRecord {
  double latency_s = 0;
  double exec_s = 0;  // sum of plan-node operator times
  double join_s = 0, distinct_s = 0, select_s = 0, aggregate_s = 0;
  double augment_s = 0, expand_s = 0, align_s = 0, zip_s = 0;
  uint64_t augment_cmp = 0, expand_cmp = 0, route_ops = 0, align_cmp = 0;
  uint64_t comparisons = 0, rewrites = 0, sorts_elided = 0, shards = 1;
  double shard_max_over_mean = 1.0;
  bool profiled = false;
};

QueryRecord MakeQueryRecord(const std::vector<core::PlanNodeStats>& nodes,
                            double latency_s) {
  QueryRecord q;
  q.latency_s = latency_s;
  for (const core::PlanNodeStats& n : nodes) {
    const core::JoinStats& s = n.stats;
    q.exec_s += s.total_seconds;
    switch (n.op) {
      case core::PlanOp::kJoin: q.join_s += s.total_seconds; break;
      case core::PlanOp::kDistinct: q.distinct_s += s.total_seconds; break;
      case core::PlanOp::kSelect: q.select_s += s.total_seconds; break;
      case core::PlanOp::kAggregate: q.aggregate_s += s.total_seconds; break;
      default: break;
    }
    q.augment_s += s.augment_seconds;
    q.expand_s += s.expand_seconds;
    q.align_s += s.align_seconds;
    q.zip_s += s.zip_seconds;
    q.augment_cmp += s.augment_sort_comparisons;
    q.expand_cmp += s.expand_sort_comparisons;
    q.route_ops += s.expand_route_ops;
    q.align_cmp += s.align_sort_comparisons;
    q.comparisons += s.TotalComparisons();
    q.rewrites += s.op_rewrites;
    q.sorts_elided += s.op_sorts_elided;
    q.shards = std::max(q.shards, s.op_shards);
    if (s.shard_seconds.size() > 1) {
      double sum = 0, max = 0;
      for (double x : s.shard_seconds) {
        sum += x;
        max = std::max(max, x);
      }
      const double mean = sum / static_cast<double>(s.shard_seconds.size());
      if (mean > 0) {
        q.shard_max_over_mean = std::max(q.shard_max_over_mean, max / mean);
      }
    }
  }
  return q;
}

// ----------------------------------------------------------------- spans ---

// The benchmark's own spans, recorded around its calls into the library
// and from the per-node counters the library returns.  Layer "" marks the
// benchmark's wrapper spans (the query itself and the Executor call):
// their self time is what no library counter accounts for.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a query's root span
  uint64_t query = 0;
  std::string name;
  const char* layer = "";
  double start = 0;  // seconds since the run's origin
  double end = 0;
};

class Profile {
 public:
  explicit Profile(Clock::time_point origin) : origin_(origin) {}

  double At(Clock::time_point t) const { return Since(origin_, t); }

  uint64_t Add(uint64_t query, uint64_t parent, std::string name,
               const char* layer, double start, double end) {
    spans_.push_back(
        Span{next_id_, parent, query, std::move(name), layer, start, end});
    return next_id_++;
  }

  // One child span per plan node, and per join node one span per phase.
  // The counters carry durations, not timestamps, so the node spans are
  // laid end to end (post-order, the order the operators ran) from
  // `start`.  A sharded node's phase times are sums over concurrent
  // shards, so it gets no phase spans.
  void AddNodes(uint64_t query, uint64_t parent,
                const std::vector<core::PlanNodeStats>& nodes, double start) {
    double t = start;
    for (const core::PlanNodeStats& n : nodes) {
      const core::JoinStats& s = n.stats;
      if (n.op == core::PlanOp::kScan) continue;  // borrowed, no work
      const bool is_join = n.op == core::PlanOp::kJoin;
      const uint64_t id =
          Add(query, parent, std::string("node:") + core::PlanOpName(n.op),
              is_join ? "core.join" : "core.plan", t, t + s.total_seconds);
      if (is_join && s.op_shards <= 1) {
        double p = t;
        const std::pair<const char*, double> phases[] = {
            {"join.augment", s.augment_seconds},
            {"join.expand", s.expand_seconds},
            {"join.align", s.align_seconds},
            {"join.zip", s.zip_seconds}};
        for (const auto& [name, seconds] : phases) {
          Add(query, id, name, "core.join", p, p + seconds);
          p += seconds;
        }
      }
      t += s.total_seconds;
    }
  }

  // Self time per layer; the benchmark's wrapper spans land under "".
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::map<uint64_t, double> child_seconds;
    for (const Span& s : spans_) child_seconds[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      const auto it = child_seconds.find(s.id);
      const double children = it == child_seconds.end() ? 0.0 : it->second;
      self[s.layer] += (s.end - s.start) - children;
    }
    return self;
  }

  double RootSeconds() const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.parent == 0) total += s.end - s.start;
    }
    return total;
  }

  double UnattributedFraction() const {
    const double total = RootSeconds();
    if (total <= 0) return 0.0;
    const auto self = SelfSecondsByLayer();
    const auto it = self.find("");
    return it == self.end() ? 0.0 : it->second / total;
  }

  void WriteSpans(JsonWriter& w) const {
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject()
          .Field("id", s.id)
          .Field("parent", s.parent)
          .Field("query", s.query)
          .Field("name", s.name)
          .Field("layer", s.layer)
          .Field("start_ms", 1e3 * s.start)
          .Field("end_ms", 1e3 * s.end)
          .EndObject();
    }
    w.EndArray();
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// ----------------------------------------------------------- run result ---

struct RunResult {
  explicit RunResult(Clock::time_point origin) : profile(origin) {}

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;         // one per set-up repetition
  std::vector<QueryRecord> latency;    // queries whose latency is reported
  std::vector<QueryRecord> all;        // every timed query
  double saturation_qps = 0;
  double loop_wall_s = 0;
  double loop_cpu_s = 0;
  std::vector<double> optimizer_s;     // timed OptimizePlan calls
  uint64_t rejected = 0;
  uint64_t retries = 0;
  double plan_cache_hit_frac = 0;
  double batched_frac = 0;
  double late_frac = 0;
  uint64_t artifact_hits = 0;
  uint64_t artifact_misses = 0;
  bool table3 = false;                 // the workload is one bare join
  core::JoinStats join_stats;          // its first timed run's counters
  Profile profile;
};

void Fail(RunResult& r, const char* what, const std::string& detail) {
  ++r.failed;
  std::fprintf(stderr, "FAIL: %s: %s\n", what, detail.c_str());
}

// ------------------------------------------------- Executor workloads ---

// A closed loop with one client over a bare Executor.
struct ExecutorWorkload {
  std::vector<PlanCase> warmup;  // the fixed warm-up set, run at set-up
  std::vector<PlanCase> timed;   // rotated over by the timed loop
  size_t min_queries = 3;
  bool table3 = false;
};

constexpr int kSetupRepeats = 9;

RunResult RunExecutorWorkload(const ExecutorWorkload& w, const Args& args,
                              Clock::time_point origin) {
  RunResult out(origin);
  out.table3 = w.table3;
  const core::ExecContext ctx;  // every knob at its default

  // Set-up: engine construction plus the warm-up set, repeated; outputs are
  // checked after each repetition's timed window.
  const int repeats = args.smoke ? 2 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    std::vector<StatusOr<core::PlanResult>> results;
    const Clock::time_point t0 = Clock::now();
    core::Executor ex(ctx);
    for (const PlanCase& c : w.warmup) results.push_back(ex.TryRun(c.plan));
    out.setup_s.push_back(Since(t0, Clock::now()));
    for (size_t i = 0; i < results.size(); ++i) {
      ++out.attempted;
      if (!results[i].ok()) {
        Fail(out, "warm-up", results[i].status().ToString());
      } else if (!Matches(w.warmup[i], *results[i])) {
        Fail(out, "warm-up", "output differs from the reference");
      }
    }
  }

  // Timed loop: stop once another query would overrun the budget.
  std::vector<double> latencies;
  const oblivbench::Usage usage0 = oblivbench::ReadUsage();
  const Clock::time_point loop0 = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = Since(loop0, Clock::now());
    const double typical = oblivbench::Median(latencies);
    if (i >= w.min_queries && elapsed + typical > args.seconds) break;

    const PlanCase& c = w.timed[i % w.timed.size()];
    const bool profile = args.trace && i % 2 == 1;
    std::optional<StatusOr<core::PlanResult>> result;
    std::vector<core::PlanNodeStats> nodes;
    double latency = 0;
    if (!profile) {
      const Clock::time_point t0 = Clock::now();
      core::Executor ex(ctx);
      result.emplace(ex.TryRun(c.plan));
      latency = Since(t0, Clock::now());
      nodes = ex.node_stats();
    } else {
      // Profiled: the optimizer pass Execute would run is called on its
      // own, so it gets a span, then the rewritten tree executes as is.
      const Clock::time_point t0 = Clock::now();
      const core::PlanPtr optimized = core::OptimizePlan(c.plan, ctx);
      const Clock::time_point t1 = Clock::now();
      core::ExecContext exec_ctx = ctx;
      exec_ctx.optimize = false;
      core::Executor ex(exec_ctx);
      result.emplace(ex.TryRun(optimized));
      const Clock::time_point t2 = Clock::now();
      latency = Since(t0, t2);
      nodes = ex.node_stats();
      out.optimizer_s.push_back(Since(t0, t1));
      Profile& p = out.profile;
      const uint64_t query = i;
      const uint64_t root = p.Add(query, 0, "query", "", p.At(t0), p.At(t2));
      p.Add(query, root, "optimizer", "core.optimizer", p.At(t0), p.At(t1));
      const uint64_t exec =
          p.Add(query, root, "execute", "", p.At(t1), p.At(t2));
      p.AddNodes(query, exec, nodes, p.At(t1));
    }
    latencies.push_back(latency);

    ++out.attempted;
    if (!result->ok()) {
      Fail(out, "query", result->status().ToString());
      continue;
    }
    if (!Matches(c, **result)) {
      Fail(out, "query", "output differs from the reference");
    }
    if (w.table3 && out.all.empty()) out.join_stats = nodes.back().stats;
    QueryRecord q = MakeQueryRecord(nodes, latency);
    q.profiled = profile;
    out.all.push_back(q);
    out.latency.push_back(q);
  }
  out.loop_wall_s = Since(loop0, Clock::now());
  out.loop_cpu_s = oblivbench::ReadUsage().cpu_seconds - usage0.cpu_seconds;
  out.saturation_qps =
      static_cast<double>(out.all.size()) / std::max(out.loop_wall_s, 1e-9);
  return out;
}

ExecutorWorkload JoinLarge(const Args& args) {
  const uint64_t n = args.smoke ? (1u << 10) : (1u << 20);
  const uint64_t warm_n = args.smoke ? (1u << 8) : (1u << 14);
  ExecutorWorkload w;
  w.table3 = true;
  w.min_queries = args.smoke ? 1 : 2;  // ~10 s per query
  w.warmup.push_back(
      JoinCase(workload::Figure8Workload(warm_n, StreamSeed(args.seed, 1))));
  w.timed.push_back(
      JoinCase(workload::Figure8Workload(n, StreamSeed(args.seed, 2))));
  return w;
}

// `groups` join values, each with `a` rows on both sides.
workload::TestCase SquareGroups(uint64_t groups, uint64_t a, uint64_t seed) {
  const std::vector<std::pair<uint64_t, uint64_t>> spec(groups, {a, a});
  return workload::FromGroupSpec("skewed", spec, seed);
}

ExecutorWorkload JoinSkewed(const Args& args) {
  ExecutorWorkload w;
  w.table3 = true;
  w.min_queries = args.smoke ? 1 : 3;
  w.warmup.push_back(JoinCase(
      SquareGroups(args.smoke ? 4 : 16, args.smoke ? 4 : 32,
                   StreamSeed(args.seed, 1))));
  w.timed.push_back(JoinCase(
      SquareGroups(args.smoke ? 8 : 64, args.smoke ? 8 : 128,
                   StreamSeed(args.seed, 2))));
  return w;
}

ExecutorWorkload PlanPipeline(const Args& args) {
  const size_t n = args.smoke ? 128 : (size_t{1} << 16);
  const size_t warm_n = args.smoke ? 64 : (size_t{1} << 12);
  ExecutorWorkload w;
  w.min_queries = args.smoke ? 1 : 3;
  w.warmup.push_back(ReferencedCase(ChainedPipeline(
      PipelineTables(warm_n, StreamSeed(args.seed, 1)), warm_n / 4)));
  w.timed.push_back(ReferencedCase(
      ChainedPipeline(PipelineTables(n, StreamSeed(args.seed, 2)), n / 4)));
  return w;
}

// --------------------------------------------------------- service mix ---

struct ServiceShape {
  const char* name;
  uint32_t weight;  // percent of the mix
  std::function<core::PlanPtr(const std::vector<Table>&)> build;
  std::vector<std::vector<Table>> datasets;
  std::vector<std::vector<Record>> expected;
};

constexpr size_t kServiceDatasets = 8;
constexpr double kServiceRate = 100.0;  // queries/s in the open-loop phase
constexpr double kOpenLoopShare = 0.6;  // of --seconds; the rest saturates
constexpr auto kPollInterval = std::chrono::microseconds(100);
constexpr double kLateSeconds = 1e-3;   // "late" submission threshold

std::vector<ServiceShape> ServiceShapes(const Args& args) {
  const size_t scale = args.smoke ? 16 : 1;
  const size_t fact_n = (size_t{1} << 12) / scale;
  const size_t dim_n = (size_t{1} << 9) / scale;
  const size_t sel_n = (size_t{1} << 11) / scale;
  const size_t chain_n = (size_t{1} << 11) / scale;

  std::vector<ServiceShape> shapes;
  shapes.push_back(ServiceShape{
      "star_join", 70,
      [](const std::vector<Table>& t) {
        return core::Join(core::Scan(t[0], core::OrderSpec::ByKey(true)),
                          core::Scan(t[1]));
      },
      {}, {}});
  shapes.push_back(ServiceShape{
      "select_join", 20,
      [sel_n](const std::vector<Table>& t) {
        return core::Select(core::Join(core::Scan(t[0]), core::Scan(t[1])),
                            KeyBelow(sel_n / 4), /*key_only=*/true);
      },
      {}, {}});
  shapes.push_back(ServiceShape{
      "chained", 10,
      [chain_n](const std::vector<Table>& t) {
        return ChainedPipeline(t, chain_n / 4);
      },
      {}, {}});

  for (size_t d = 0; d < kServiceDatasets; ++d) {
    const uint64_t s = StreamSeed(args.seed, 100 + d);
    shapes[0].datasets.push_back(
        {DimTable("dim", dim_n, StreamSeed(s, 0)),
         FactTable("fact", fact_n, dim_n, 0, StreamSeed(s, 1))});
    shapes[1].datasets.push_back(
        {FactTable("a", sel_n, sel_n, 0, StreamSeed(s, 2)),
         FactTable("b", sel_n, sel_n, 0, StreamSeed(s, 3))});
    shapes[2].datasets.push_back(PipelineTables(chain_n, StreamSeed(s, 4)));
  }
  for (ServiceShape& shape : shapes) {
    for (const std::vector<Table>& data : shape.datasets) {
      shape.expected.push_back(ReferenceRows(shape.build(data)));
    }
  }
  return shapes;
}

// One submitted query the generator is waiting on.
struct InFlight {
  std::shared_ptr<service::PendingQuery> pending;
  size_t shape = 0;
  size_t dataset = 0;
  uint64_t index = 0;
  bool open_loop = false;
  Clock::time_point due, submit_start, submit_end;
};

RunResult RunServiceMix(const Args& args, Clock::time_point origin) {
  RunResult out(origin);
  const std::vector<ServiceShape> shapes = ServiceShapes(args);
  const unsigned nproc = oblivbench::OnlineCpus();
  service::ServiceOptions options;
  options.sessions = nproc;  // everything else at its default

  // Set-up: QueryService::Create plus one query of every shape, repeated;
  // the last service built serves the timed phases.
  std::unique_ptr<service::QueryService> svc;
  const int repeats = args.smoke ? 2 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    svc.reset();
    std::vector<std::shared_ptr<service::PendingQuery>> warm;
    const Clock::time_point t0 = Clock::now();
    auto created = service::QueryService::Create(core::ExecContext{}, options);
    if (!created.ok()) {
      Fail(out, "QueryService::Create", created.status().ToString());
      return out;
    }
    svc = std::move(*created);
    bool submitted_all = true;
    for (const ServiceShape& shape : shapes) {
      auto sub = svc->Submit(shape.build(shape.datasets[0]));
      if (!sub.ok()) {
        Fail(out, "warm-up submit", sub.status().ToString());
        submitted_all = false;
        continue;
      }
      warm.push_back(*sub);
    }
    for (const auto& p : warm) p->Wait();
    out.setup_s.push_back(Since(t0, Clock::now()));
    out.attempted += shapes.size();
    if (!submitted_all) continue;
    for (size_t s = 0; s < shapes.size(); ++s) {
      const auto& result = warm[s]->Wait();
      if (!result.ok()) {
        Fail(out, "warm-up", result.status().ToString());
      } else if (result->result.table.rows() != shapes[s].expected[0]) {
        Fail(out, "warm-up", "output differs from the reference");
      }
    }
  }

  if (args.trace) {
    for (const ServiceShape& shape : shapes) {
      for (const std::vector<Table>& data : shape.datasets) {
        const core::PlanPtr plan = shape.build(data);
        const Clock::time_point t0 = Clock::now();
        const core::PlanPtr optimized =
            core::OptimizePlan(plan, core::ExecContext{});
        out.optimizer_s.push_back(Since(t0, Clock::now()));
      }
    }
  }

  // The mix: a seeded shape draw per query; each shape rotates over its
  // datasets; every query gets a fresh plan object.
  uint64_t mix_state = StreamSeed(args.seed, 7);
  std::vector<size_t> next_dataset(shapes.size(), 0);
  auto next_query = [&](size_t& shape, size_t& dataset) {
    const uint64_t roll = SplitMix64(mix_state) % 100;
    uint64_t acc = 0;
    shape = shapes.size() - 1;
    for (size_t s = 0; s < shapes.size(); ++s) {
      acc += shapes[s].weight;
      if (roll < acc) {
        shape = s;
        break;
      }
    }
    dataset = next_dataset[shape]++ % kServiceDatasets;
    return shapes[shape].build(shapes[shape].datasets[dataset]);
  };

  std::vector<InFlight> in_flight;
  uint64_t completed_by_deadline = 0;
  Clock::time_point window_end = Clock::time_point::max();
  auto finish = [&](const InFlight& f, Clock::time_point done) {
    const auto& result = f.pending->Wait();
    if (done <= window_end) ++completed_by_deadline;
    if (!result.ok()) {
      Fail(out, shapes[f.shape].name, result.status().ToString());
      return;
    }
    if (result->result.table.rows() != shapes[f.shape].expected[f.dataset]) {
      Fail(out, shapes[f.shape].name, "output differs from the reference");
    }
    const Clock::time_point start = f.open_loop ? f.due : f.submit_start;
    const bool profile = args.trace && f.index % 2 == 1;
    QueryRecord q = MakeQueryRecord(result->node_stats, Since(start, done));
    q.profiled = profile;
    out.all.push_back(q);
    if (!f.open_loop) return;
    out.latency.push_back(q);
    if (profile) {
      Profile& p = out.profile;
      const uint64_t root =
          p.Add(f.index, 0, "query", "", p.At(start), p.At(done));
      p.Add(f.index, root, "submit", "service", p.At(f.submit_start),
            p.At(f.submit_end));
      const uint64_t wait = p.Add(f.index, root, "wait", "service",
                                  p.At(f.submit_end), p.At(done));
      p.AddNodes(f.index, wait, result->node_stats,
                 p.At(done) - q.exec_s);
    }
  };
  auto poll = [&] {
    const Clock::time_point now = Clock::now();
    for (size_t i = 0; i < in_flight.size();) {
      if (in_flight[i].pending->done()) {
        finish(in_flight[i], now);
        if (i + 1 != in_flight.size()) {
          in_flight[i] = std::move(in_flight.back());
        }
        in_flight.pop_back();
      } else {
        ++i;
      }
    }
  };
  auto submit = [&](InFlight f, core::PlanPtr plan) {
    ++out.attempted;
    f.submit_start = Clock::now();
    auto sub = svc->Submit(std::move(plan));
    f.submit_end = Clock::now();
    if (!sub.ok()) {  // counted as rejected by the service counters
      Fail(out, "submit", sub.status().ToString());
      return;
    }
    f.pending = *sub;
    in_flight.push_back(std::move(f));
  };
  auto drain = [&] {
    while (!in_flight.empty()) {
      std::this_thread::sleep_for(kPollInterval);
      poll();
    }
  };

  const service::QueryService::Counters c0 = svc->counters();
  const obliv::ArtifactCache::Stats a0 = obliv::ArtifactCache::Global().stats();
  const oblivbench::Usage usage0 = oblivbench::ReadUsage();
  const Clock::time_point loop0 = Clock::now();

  // Phase A: open loop at a fixed rate; latency counts from the due time.
  const uint64_t open_queries = static_cast<uint64_t>(
      std::max(1.0, std::floor(kOpenLoopShare * args.seconds * kServiceRate)));
  uint64_t late = 0;
  uint64_t index = 0;
  for (uint64_t k = 0; k < open_queries; ++k, ++index) {
    InFlight f;
    f.index = index;
    f.open_loop = true;
    f.due = loop0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / kServiceRate));
    core::PlanPtr plan = next_query(f.shape, f.dataset);
    for (;;) {
      poll();
      const Clock::time_point now = Clock::now();
      if (now >= f.due) break;
      std::this_thread::sleep_for(
          std::min<Clock::duration>(kPollInterval, f.due - now));
    }
    const Clock::time_point due = f.due;
    submit(std::move(f), std::move(plan));
    if (Since(due, Clock::now()) > kLateSeconds) ++late;
  }
  drain();
  out.late_frac = static_cast<double>(late) / static_cast<double>(open_queries);

  // Phase B: closed loop holding 2 x nproc queries outstanding, so the
  // admission queue never empties; throughput over a fixed window.
  const double closed_seconds = (1.0 - kOpenLoopShare) * args.seconds;
  const size_t outstanding = 2 * static_cast<size_t>(nproc);
  const Clock::time_point b0 = Clock::now();
  window_end = b0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(closed_seconds));
  completed_by_deadline = 0;
  while (Clock::now() < window_end) {
    while (in_flight.size() < outstanding) {
      InFlight f;
      f.index = index++;
      core::PlanPtr plan = next_query(f.shape, f.dataset);
      submit(std::move(f), std::move(plan));
    }
    std::this_thread::sleep_for(kPollInterval);
    poll();
  }
  const uint64_t saturated = completed_by_deadline;
  drain();
  out.saturation_qps = static_cast<double>(saturated) / closed_seconds;

  out.loop_wall_s = Since(loop0, Clock::now());
  out.loop_cpu_s = oblivbench::ReadUsage().cpu_seconds - usage0.cpu_seconds;
  const service::QueryService::Counters c1 = svc->counters();
  const obliv::ArtifactCache::Stats a1 = obliv::ArtifactCache::Global().stats();
  out.artifact_hits = a1.hits - a0.hits;
  out.artifact_misses = a1.misses - a0.misses;
  out.retries = c1.retries - c0.retries;
  out.rejected = (c1.rejected_queue_full - c0.rejected_queue_full) +
                 (c1.rejected_deadline - c0.rejected_deadline) +
                 (c1.shed - c0.shed) +
                 (c1.breaker_rejected - c0.breaker_rejected);
  const uint64_t lookups = (c1.plan_cache_hits - c0.plan_cache_hits) +
                           (c1.plan_cache_misses - c0.plan_cache_misses);
  out.plan_cache_hit_frac =
      lookups == 0 ? 0.0
                   : static_cast<double>(c1.plan_cache_hits -
                                         c0.plan_cache_hits) /
                         static_cast<double>(lookups);
  const uint64_t completed = c1.completed - c0.completed;
  out.batched_frac =
      completed == 0 ? 0.0
                     : static_cast<double>(c1.batched_queries -
                                           c0.batched_queries) /
                           static_cast<double>(completed);
  svc->Close();
  return out;
}

// ------------------------------------------------------------- report ---

using Metrics = std::vector<std::pair<std::string, double>>;

double Ms(double seconds) { return 1e3 * seconds; }

template <typename F>
std::vector<double> Collect(const std::vector<QueryRecord>& qs, F f) {
  std::vector<double> v;
  v.reserve(qs.size());
  for (const QueryRecord& q : qs) v.push_back(f(q));
  return v;
}

template <typename T>
double MeanOf(const std::vector<QueryRecord>& qs, T QueryRecord::*field) {
  if (qs.empty()) return 0.0;
  double sum = 0;
  for (const QueryRecord& q : qs) sum += static_cast<double>(q.*field);
  return sum / static_cast<double>(qs.size());
}

Metrics EndToEndMetrics(const RunResult& r) {
  std::vector<double> latency =
      Collect(r.latency, [](const QueryRecord& q) { return q.latency_s; });
  std::sort(latency.begin(), latency.end());
  return {
      {"latency_p50_ms", Ms(oblivbench::Median(latency))},
      // p99 for service_mix's open loop; the median for the Executor
      // workloads, whose runs hold too few queries for any tail.
      {"latency_tail_ms", Ms(oblivbench::SupportedTail(latency))},
      {"saturation_qps", r.saturation_qps},
      {"setup_s", oblivbench::Median(r.setup_s)},
      {"peak_rss_mb", oblivbench::ReadUsage().peak_rss_mb},
  };
}

Metrics PerLayerMetrics(const RunResult& r) {
  std::vector<double> wait = Collect(r.latency, [](const QueryRecord& q) {
    return q.latency_s - q.exec_s;
  });
  std::sort(wait.begin(), wait.end());
  const std::vector<double> exec =
      Collect(r.latency, [](const QueryRecord& q) { return q.exec_s; });
  const double exec_total = MeanOf(r.all, &QueryRecord::exec_s);
  auto share = [&](double part) {
    return exec_total > 0 ? part / exec_total : 0.0;
  };
  const double comparisons = MeanOf(r.all, &QueryRecord::comparisons);
  uint64_t shards = 1;
  double shard_ratio = 1.0;
  for (const QueryRecord& q : r.all) {
    shards = std::max(shards, q.shards);
    shard_ratio = std::max(shard_ratio, q.shard_max_over_mean);
  }
  std::vector<double> plain_lat, profiled_lat;
  for (const QueryRecord& q : r.latency) {
    (q.profiled ? profiled_lat : plain_lat).push_back(q.latency_s);
  }
  const double plain_median = oblivbench::Median(plain_lat);
  const double overhead =
      plain_median > 0 && !profiled_lat.empty()
          ? oblivbench::Median(profiled_lat) / plain_median - 1.0
          : 0.0;
  const unsigned nproc = oblivbench::OnlineCpus();
  return {
      {"query.wait_ms_p50", Ms(oblivbench::Median(wait))},
      {"query.wait_ms_tail", Ms(oblivbench::SupportedTail(wait))},
      {"query.exec_ms_p50", Ms(oblivbench::Median(exec))},
      {"service.plan_cache_hit_frac", r.plan_cache_hit_frac},
      {"service.batched_frac", r.batched_frac},
      {"service.rejected", static_cast<double>(r.rejected)},
      {"service.retries", static_cast<double>(r.retries)},
      {"loadgen.late_frac", r.late_frac},
      {"optimizer.plan_ms", Ms(oblivbench::Median(r.optimizer_s))},
      {"optimizer.rewrites", MeanOf(r.all, &QueryRecord::rewrites)},
      {"plan.join_ms", Ms(MeanOf(r.all, &QueryRecord::join_s))},
      {"plan.distinct_share", share(MeanOf(r.all, &QueryRecord::distinct_s))},
      {"plan.select_share", share(MeanOf(r.all, &QueryRecord::select_s))},
      {"plan.aggregate_share", share(MeanOf(r.all, &QueryRecord::aggregate_s))},
      {"plan.sorts_elided", MeanOf(r.all, &QueryRecord::sorts_elided)},
      {"join.augment_ms", Ms(MeanOf(r.all, &QueryRecord::augment_s))},
      {"join.expand_ms", Ms(MeanOf(r.all, &QueryRecord::expand_s))},
      {"join.align_ms", Ms(MeanOf(r.all, &QueryRecord::align_s))},
      {"join.zip_ms", Ms(MeanOf(r.all, &QueryRecord::zip_s))},
      {"join.augment_cmp", MeanOf(r.all, &QueryRecord::augment_cmp)},
      {"join.expand_cmp", MeanOf(r.all, &QueryRecord::expand_cmp)},
      {"join.route_ops", MeanOf(r.all, &QueryRecord::route_ops)},
      {"join.align_cmp", MeanOf(r.all, &QueryRecord::align_cmp)},
      {"shard.count", static_cast<double>(shards)},
      {"shard.max_over_mean", shard_ratio},
      {"obliv.sort_ns_per_cmp",
       comparisons > 0 ? 1e9 * exec_total / comparisons : 0.0},
      {"obliv.artifact_hits", static_cast<double>(r.artifact_hits)},
      {"obliv.artifact_misses", static_cast<double>(r.artifact_misses)},
      {"pool.cpu_util",
       r.loop_wall_s > 0 ? r.loop_cpu_s / (r.loop_wall_s * nproc) : 0.0},
      {"profile.unattributed_frac", r.profile.UnattributedFraction()},
      {"profile.overhead_frac", overhead},
  };
}

template <size_t N>
bool HasEvery(const Metrics& metrics, const MetricSpec (&specs)[N]) {
  for (const MetricSpec& spec : specs) {
    const bool found =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const auto& m) { return m.first == spec.name; });
    if (!found) {
      std::fprintf(stderr, "FAIL: metric %s not emitted\n", spec.name);
      return false;
    }
  }
  return metrics.size() == N;
}

template <size_t N>
std::string ResultLine(const RunResult& r, const Metrics& metrics,
                       const MetricSpec (&specs)[N]) {
  JsonWriter w;
  w.BeginObject()
      .Field("correct", r.failed == 0)
      .Field("attempted", r.attempted)
      .Field("failed", r.failed);
  w.Key("metrics").BeginObject();
  for (const MetricSpec& spec : specs) {
    for (const auto& [name, value] : metrics) {
      if (name != spec.name) continue;
      w.Key(name).BeginObject().Field("value", value).Field("unit", spec.unit)
          .EndObject();
    }
  }
  w.EndObject().EndObject();
  return w.str();
}

// The paper's Table 3 next to this run: measured comparisons against the
// closed-form model, and measured runtime share against 60/25/3/12.
struct Table3Row {
  const char* subroutine;
  double measured;  // comparisons or routing steps per query
  double model;
  double share;     // of the four phases' time; < 0 = not separable
  double paper_share;
};

void WriteTable3(JsonWriter& w, const RunResult& r) {
  const core::JoinStats& stats = r.join_stats;
  double augment = 0, expand = 0, align = 0, zip = 0;
  for (const QueryRecord& x : r.all) {
    augment += x.augment_s;
    expand += x.expand_s;
    align += x.align_s;
    zip += x.zip_s;
  }
  const double phases = std::max(augment + expand + align + zip, 1e-12);
  const double n = static_cast<double>(stats.n1 + stats.n2);
  const double n1 = static_cast<double>(stats.n1);
  const double n2 = static_cast<double>(stats.n2);
  const double m = static_cast<double>(stats.m);
  auto lg = [](double x) { return x > 1 ? std::log2(x) : 0.0; };
  const Table3Row rows[] = {
      {"initial sorts on TC", double(stats.augment_sort_comparisons),
       n * lg(n) * lg(n) / 2.0, augment / phases, 0.60},
      {"o.d. on T1,T2 (sort)", double(stats.expand_sort_comparisons),
       n1 * lg(n1) * lg(n1) / 4.0 + n2 * lg(n2) * lg(n2) / 4.0,
       expand / phases, 0.25},
      {"o.d. on T1,T2 (route)", double(stats.expand_route_ops),
       2.0 * m * lg(m), -1.0, 0.03},
      {"align sort on S2", double(stats.align_sort_comparisons),
       m * lg(m) * lg(m) / 4.0, align / phases, 0.12},
      {"zip (not in Table 3)", 0.0, 0.0, zip / phases, 0.0},
  };
  std::fprintf(stderr,
               "Table 3 (n1 = %" PRIu64 ", n2 = %" PRIu64 ", m = %" PRIu64
               "; the paper's shares are for m ~= n1 = n2):\n"
               "  %-24s %14s %14s %8s %8s\n",
               stats.n1, stats.n2, stats.m, "subroutine", "measured", "model",
               "share", "paper");
  w.BeginArray();
  for (const Table3Row& row : rows) {
    char share[16] = "  (in sort)";
    if (row.share >= 0) {
      std::snprintf(share, sizeof(share), "%7.1f%%", 100.0 * row.share);
    }
    std::fprintf(stderr, "  %-24s %14.0f %14.0f %8s %7.0f%%\n",
                 row.subroutine, row.measured, row.model, share,
                 100.0 * row.paper_share);
    w.BeginObject()
        .Field("subroutine", row.subroutine)
        .Field("measured", row.measured)
        .Field("model", row.model)
        .Field("runtime_share", row.share)
        .Field("paper_share", row.paper_share)
        .EndObject();
  }
  w.EndArray();
}

// ------------------------------------------------------------------ run ---

constexpr const char* kWorkloads[] = {"join_large", "join_skewed",
                                      "plan_pipeline", "service_mix"};

// `args.workload` is one of kWorkloads.
RunResult RunWorkload(const Args& args, Clock::time_point origin) {
  if (args.workload == "service_mix") return RunServiceMix(args, origin);
  if (args.workload == "join_large") {
    return RunExecutorWorkload(JoinLarge(args), args, origin);
  }
  if (args.workload == "join_skewed") {
    return RunExecutorWorkload(JoinSkewed(args), args, origin);
  }
  return RunExecutorWorkload(PlanPipeline(args), args, origin);
}

void WriteSpanFile(const Args& args, const RunResult& r) {
  std::string path = args.spans_path;
  if (path.empty()) {
    path = ".bench_out/spans-" + args.workload + "-" +
           std::to_string(args.seed) + ".json";
  }
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  JsonWriter w;
  w.BeginObject().Field("workload", args.workload).Field("seed", args.seed);
  w.Key("env");
  oblivbench::WriteEnvironment(w, args.commit);
  w.Key("layer_self_ms").BeginObject();
  for (const auto& [layer, seconds] : r.profile.SelfSecondsByLayer()) {
    w.Field(layer.empty() ? "unattributed" : layer, Ms(seconds));
  }
  w.EndObject();
  w.Field("end_to_end_ms", Ms(r.profile.RootSeconds()));
  w.Field("unattributed_frac", r.profile.UnattributedFraction());
  if (r.table3) {
    w.Key("table3");
    WriteTable3(w, r);
  }
  w.Key("spans");
  r.profile.WriteSpans(w);
  w.EndObject();
  std::ofstream(path) << w.str() << "\n";
  std::fprintf(stderr, "spans: %s\n", path.c_str());
}

void PrintSummary(const Args& args, const RunResult& r) {
  JsonWriter w;
  w.BeginObject().Field("workload", args.workload).Field("seed", args.seed);
  w.Field("trace", args.trace).Field("seconds", args.seconds);
  w.Key("env");
  oblivbench::WriteEnvironment(w, args.commit);
  std::vector<double> latency =
      Collect(r.latency, [](const QueryRecord& q) { return q.latency_s; });
  w.Key("latency_s");
  oblivbench::WriteSummary(w, oblivbench::Summarize(latency));
  if (latency.size() <= 64) {
    w.Key("latencies_s").BeginArray();
    for (double x : latency) w.Value(x);
    w.EndArray();
  }
  w.Key("setup_s");
  oblivbench::WriteSummary(w, oblivbench::Summarize(r.setup_s));
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

int RunOne(const Args& args) {
  const RunResult r = RunWorkload(args, Clock::now());
  PrintSummary(args, r);
  const Metrics metrics = args.trace ? PerLayerMetrics(r) : EndToEndMetrics(r);
  if (args.trace) {
    WriteSpanFile(args, r);
    std::printf("%s\n", ResultLine(r, metrics, kPerLayer).c_str());
  } else {
    std::printf("%s\n", ResultLine(r, metrics, kEndToEnd).c_str());
  }
  std::fflush(stdout);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}

// Every workload at tiny sizes, in both modes: outputs must match their
// references and every declared metric must be emitted.
int RunSmoke(const Args& base) {
  bool ok = true;
  for (const char* name : kWorkloads) {
    for (bool trace : {false, true}) {
      Args args = base;
      args.workload = name;
      args.trace = trace;
      args.seconds = 0.25;
      args.spans_path = ".bench_out/smoke-spans-" + args.workload + ".json";
      const RunResult r = RunWorkload(args, Clock::now());
      const Metrics metrics =
          trace ? PerLayerMetrics(r) : EndToEndMetrics(r);
      const bool emitted =
          trace ? HasEvery(metrics, kPerLayer) : HasEvery(metrics, kEndToEnd);
      if (trace) WriteSpanFile(args, r);
      const bool run_ok = r.failed == 0 && r.attempted > 0 && emitted;
      std::fprintf(stderr, "smoke %-14s trace=%d: %s (%" PRIu64 " queries)\n",
                   name, trace ? 1 : 0, run_ok ? "ok" : "FAILED", r.attempted);
      JsonWriter w;
      w.BeginObject().Field("workload", name).Field("trace", trace);
      w.Key("result").BeginObject();
      for (const auto& [metric, value] : metrics) w.Field(metric, value);
      w.EndObject().EndObject();
      std::printf("%s\n", w.str().c_str());
      ok = ok && run_ok;
    }
  }
  std::printf("{\"smoke\": %s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: oblivdb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA]\n"
                 "       oblivdb_bench --smoke\n");
    return 2;
  }
  const std::vector<std::string> set = oblivbench::SetOblivdbVariables();
  if (!set.empty()) {
    std::fprintf(stderr, "refusing to run with %s set: the benchmark runs "
                         "the engine at its defaults\n", set.front().c_str());
    return 2;
  }
  if (args.smoke) return RunSmoke(args);
  if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return args.workload == w; })) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return RunOne(args);
}
