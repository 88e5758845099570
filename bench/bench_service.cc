// Query service benchmark (service/query_service.h): queries/sec as the
// session count grows, and what the shape-keyed plan cache buys on
// repeated same-shape queries.
//
// Workload: Q submissions of the same join shape (distinct plan objects
// over identical public sizes — the repeated-dashboard-query pattern).
// Variants:
//
//   * sessions1_nocache   — 1 session, plan cache off, FIFO: the baseline;
//   * sessions1_cache     — 1 session, plan cache on: the pure plan-cache
//                           speedup (same schedule);
//   * sessions2_cache     — 2 concurrent sessions, plan cache on;
//   * sessions4_cache     — 4 concurrent sessions, plan cache on.
//
// Every variant byte-compares each response against a direct solo
// Executor reference — concurrency and caching must never change a bit.
//
// Emits JSON to stdout (bench/run_benches.sh captures it as
// BENCH_service.json): per variant the wall seconds, queries/sec, and the
// plan-cache counters; the header carries the thread budget and the
// cache-on hit rate.
//
//   bench_service [--smoke]
//
// --smoke: tiny sizes; verifies byte-identical outputs across every
// variant and that the cache-on rows actually hit the plan cache; exits
// nonzero on any mismatch (bench/smoke.sh runs this).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/exec_context.h"
#include "core/plan.h"
#include "service/query_service.h"

namespace {

using namespace oblivdb;
using core::ExecContext;
using core::Executor;
using core::PlanPtr;
using service::PendingQuery;
using service::QueryResponse;
using service::QueryService;
using service::ServiceOptions;

Table FactTable(const std::string& name, size_t n, uint64_t key_range,
                uint64_t seed) {
  Table t(name);
  uint64_t state = seed;
  t.rows().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.rows().push_back(
        Record{SplitMix64(state) % key_range, {SplitMix64(state), i}});
  }
  return t;
}

Table DimTable(const std::string& name, size_t n, uint64_t seed) {
  Table t(name);
  uint64_t state = seed;
  t.rows().reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    t.rows().push_back(Record{k, {SplitMix64(state), k}});
  }
  return t;
}

ExecContext BaseContext() {
  ExecContext ctx;
  ctx.optimize = true;
  return ctx;
}

struct VariantSpec {
  const char* name;
  unsigned sessions;
  bool plan_cache;
};

struct VariantResult {
  double seconds = 0;
  double qps = 0;
  unsigned session_workers = 0;
  QueryService::Counters counters;
  bool outputs_ok = true;
};

VariantResult RunVariant(const VariantSpec& spec,
                         const std::vector<PlanPtr>& plans,
                         const std::vector<Record>& expected) {
  ServiceOptions opts;
  opts.sessions = spec.sessions;
  opts.plan_cache = spec.plan_cache;
  QueryService svc(BaseContext(), opts);

  VariantResult out;
  out.session_workers = svc.session_workers();
  Timer timer;
  std::vector<std::shared_ptr<PendingQuery>> pending;
  pending.reserve(plans.size());
  for (const PlanPtr& p : plans) {
    auto submitted = svc.Submit(p);
    if (!submitted.ok()) {
      std::fprintf(stderr, "FAIL: %s: submit: %s\n", spec.name,
                   submitted.status().ToString().c_str());
      out.outputs_ok = false;
      continue;
    }
    pending.push_back(*submitted);
  }
  for (const auto& p : pending) {
    const StatusOr<QueryResponse>& r = p->Wait();
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: %s: query: %s\n", spec.name,
                   r.status().ToString().c_str());
      out.outputs_ok = false;
    } else if (r->result.table.rows() != expected) {
      std::fprintf(stderr, "FAIL: %s: output differs from solo reference\n",
                   spec.name);
      out.outputs_ok = false;
    }
  }
  out.seconds = timer.ElapsedSeconds();
  out.qps = out.seconds > 0 ? static_cast<double>(plans.size()) / out.seconds
                            : 0.0;
  out.counters = svc.counters();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const size_t fact_n = smoke ? 96 : (size_t{1} << 13);
  const size_t dim_n = smoke ? 12 : (size_t{1} << 10);
  const uint64_t keys = smoke ? 12 : (uint64_t{1} << 10);
  const size_t queries = smoke ? 6 : 16;

  // Q distinct plan objects over the *same* tables: same shape signature,
  // so repeats exercise the plan cache's shape hits.
  const Table fact = FactTable("fact", fact_n, keys, 101);
  const Table dim = DimTable("dim", dim_n, 202);
  std::vector<PlanPtr> plans;
  plans.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    plans.push_back(core::Join(
        core::Scan(fact), core::Scan(dim, core::OrderSpec::ByKey(true))));
  }

  // Solo reference under the same knobs (cache irrelevant to bytes).
  std::vector<Record> expected;
  {
    Executor ex(BaseContext());
    expected = ex.Execute(plans.front()).table.rows();
  }

  const VariantSpec specs[] = {
      {"sessions1_nocache", 1, false},
      {"sessions1_cache", 1, true},
      {"sessions2_cache", 2, true},
      {"sessions4_cache", 4, true},
  };

  bool ok = true;
  std::vector<VariantResult> results;
  for (const VariantSpec& spec : specs) {
    results.push_back(RunVariant(spec, plans, expected));
    ok = ok && results.back().outputs_ok;
  }

  // Smoke bar: the same-shape repeats must land in the plan cache.
  const VariantResult& nocache = results[0];
  const VariantResult& cached = results[1];
  if (cached.counters.plan_cache_hits == 0) {
    std::fprintf(stderr, "FAIL: cache-on variant recorded no plan-cache "
                         "hits\n");
    ok = false;
  }

  const uint64_t plan_total =
      cached.counters.plan_cache_hits + cached.counters.plan_cache_misses;
  std::printf(
      "{\n  \"bench\": \"service\",\n  \"threads\": %u,\n"
      "  \"smoke\": %s,\n  \"queries\": %zu,\n"
      "  \"fact_rows\": %zu,\n  \"dim_rows\": %zu,\n"
      "  \"plan_cache_hit_rate\": %.3f,\n  \"variants\": [\n",
      ThreadPool::Global().worker_count(), smoke ? "true" : "false", queries,
      fact_n, dim_n,
      plan_total > 0
          ? static_cast<double>(cached.counters.plan_cache_hits) / plan_total
          : 0.0);
  for (size_t i = 0; i < results.size(); ++i) {
    const VariantSpec& spec = specs[i];
    const VariantResult& r = results[i];
    std::printf(
        "    {\"name\": \"%s\", \"sessions\": %u, \"session_workers\": %u, "
        "\"plan_cache\": %s,\n"
        "     \"seconds\": %.6f, \"queries_per_sec\": %.3f,\n"
        "     \"plan_cache_hits\": %" PRIu64 ", \"plan_cache_misses\": %" PRIu64
        "}%s\n",
        spec.name, spec.sessions, r.session_workers,
        spec.plan_cache ? "true" : "false", r.seconds, r.qps,
        r.counters.plan_cache_hits, r.counters.plan_cache_misses,
        i + 1 == results.size() ? "" : ",");
  }
  std::printf("  ],\n  \"speedup_cache_over_nocache\": %.3f\n}\n",
              cached.seconds > 0 ? nocache.seconds / cached.seconds : 0.0);

  if (smoke) {
    std::fprintf(stderr, ok ? "service smoke OK\n" : "service smoke FAILED\n");
  }
  return ok ? 0 : 1;
}
