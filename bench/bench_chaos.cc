// Chaos harness for the resilient query service (service/query_service.h):
// replays seeded fault schedules against a 4-session service and pins the
// resilience contract — every query that resolves OK is byte-identical to
// a solo fault-free Executor run, whatever faults fired around it.
//
// Fault schedules come from the deterministic injector (common/fault.h):
// a fixed seed + a per-variant spec make each schedule a pure function of
// arrival order, so a replay under the same spec/seed/workload fires the
// same faults.  Variants sweep the per-arrival fault rate {0, 1%, 5%}
// over the sites the service recovers from —
//
//   alloc        -> kResourceExhausted, rescued by transparent retry;
//   pool_spawn   -> sequential-sort degradation (trace-identical);
//   worker_crash -> session worker dies picking up a query; the service
//                   requeues the query (at most once) and respawns the
//                   slot;
//
// plus a crash_heavy variant (worker_crash every 2nd pop, everyNth mode)
// that deterministically drives the requeue/respawn machinery hard — a
// query that loses two workers surfaces kUnavailable, which is exactly the
// at-most-one-requeue contract.  (The decrypt_mac transient
// path is unit-level: plan execution does not yet route tables through
// EncryptedOArray, so that site is exercised by tests/robustness_test.cc
// and the Status classification by tests/resilience_test.cc.)  Every
// variant also runs one *traced* (exclusive) query and, when it resolves
// OK, requires its whole public-memory trace hash to equal the solo
// fault-free run's — possible because none of these sites perturb an
// executed trace (a crash fires before execution; pool_spawn's downgrade
// is trace-identical; an alloc fault fails the attempt outright).
//
// Each variant ends with QueryService::Drain, so the graceful-drain path
// runs under every schedule; per-variant goodput (OK queries/sec) and the
// retry / requeue / shed / breaker counters land in the JSON
// (bench/run_benches.sh captures it as BENCH_chaos.json).
//
//   bench_chaos [--smoke]
//
// --smoke: tiny sizes; asserts the fault-free variant is loss-free, every
// OK response matches the reference bytes, chaos variants saw fault
// activity, and OK traced runs hash identically; exits nonzero on any
// violation (bench/smoke.sh runs this).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/exec_context.h"
#include "core/plan.h"
#include "memtrace/sinks.h"
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
using service::SessionOptions;

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
  const char* fault_spec;  // injector spec text; "" = fault-free
  double rate;             // per-arrival rate, for the JSON
  bool traced_probe;       // run + trace-hash-check one exclusive query
};

struct VariantResult {
  double seconds = 0;
  double goodput_qps = 0;  // OK queries per second
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t faults_fired = 0;
  QueryService::Counters counters;
  uint64_t breaker_trips = 0;
  QueryService::DrainReport drain;
  bool traced_probe_ok = false;      // probe resolved OK
  bool traced_probe_skipped = true;  // no probe, or probe failed (no claim)
  bool assertions_ok = true;
};

VariantResult RunVariant(const VariantSpec& spec,
                         const std::vector<PlanPtr>& plans,
                         const std::vector<Record>& expected,
                         const std::string& expected_trace) {
  FaultSpec parsed;  // all-off
  if (spec.fault_spec[0] != '\0') {
    StatusOr<FaultSpec> p = FaultSpec::Parse(spec.fault_spec);
    if (!p.ok()) {
      std::fprintf(stderr, "FAIL: %s: bad spec: %s\n", spec.name,
                   p.status().ToString().c_str());
      VariantResult bad;
      bad.assertions_ok = false;
      return bad;
    }
    parsed = *p;
  }
  const FaultCounters before = FaultInjector::Global().Snapshot();
  FaultInjector::Global().Configure(parsed, kDefaultFaultSeed);

  ServiceOptions opts;
  opts.sessions = 4;
  opts.plan_cache = true;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.base_ms = 0;  // immediate retries: deterministic timing
  QueryService svc(BaseContext(), opts);

  VariantResult out;
  Timer timer;
  std::vector<std::shared_ptr<PendingQuery>> pending;
  pending.reserve(plans.size());
  for (const PlanPtr& p : plans) {
    auto submitted = svc.Submit(p);
    if (!submitted.ok()) {
      ++out.failed;  // backpressure rejections count against goodput
      continue;
    }
    pending.push_back(*submitted);
  }

  memtrace::HashTraceSink probe_sink;
  std::shared_ptr<PendingQuery> probe;
  if (spec.traced_probe) {
    SessionOptions sess;
    sess.trace_sink = &probe_sink;
    auto submitted = svc.Submit(plans.front(), sess);
    if (submitted.ok()) probe = *submitted;
  }

  for (const auto& p : pending) {
    const StatusOr<QueryResponse>& r = p->Wait();
    if (!r.ok()) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    if (r->result.table.rows() != expected) {
      std::fprintf(stderr,
                   "FAIL: %s: OK response differs from solo fault-free "
                   "reference\n",
                   spec.name);
      out.assertions_ok = false;
    }
  }
  if (probe != nullptr) {
    const StatusOr<QueryResponse>& r = probe->Wait();
    if (r.ok()) {
      ++out.ok;
      out.traced_probe_ok = true;
      out.traced_probe_skipped = false;
      if (probe_sink.HexDigest() != expected_trace) {
        std::fprintf(stderr,
                     "FAIL: %s: OK traced probe's trace hash differs from "
                     "solo fault-free reference\n",
                     spec.name);
        out.assertions_ok = false;
      }
      if (r->result.table.rows() != expected) {
        std::fprintf(stderr, "FAIL: %s: traced probe output differs\n",
                     spec.name);
        out.assertions_ok = false;
      }
    } else {
      ++out.failed;  // fault landed on the probe: no trace claim to make
    }
  }
  out.seconds = timer.ElapsedSeconds();
  out.goodput_qps =
      out.seconds > 0 ? static_cast<double>(out.ok) / out.seconds : 0.0;

  out.drain = svc.Drain(/*deadline_seconds=*/10.0);
  out.counters = svc.counters();
  out.breaker_trips = svc.breaker().stats().trips;
  const FaultCounters after = FaultInjector::Global().Snapshot();
  out.faults_fired = after.TotalFired() - before.TotalFired();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const size_t fact_n = smoke ? 96 : (size_t{1} << 11);
  const size_t dim_n = smoke ? 12 : (size_t{1} << 8);
  const uint64_t keys = smoke ? 12 : (uint64_t{1} << 8);
  const size_t queries = smoke ? 10 : 24;

  // Make sure no ambient OBLIVDB_FAULT_SPEC leaks into the references;
  // every variant configures the injector itself.
  FaultInjector::Global().Configure(FaultSpec{}, kDefaultFaultSeed);

  const Table fact = FactTable("fact", fact_n, keys, 101);
  const Table dim = DimTable("dim", dim_n, 202);
  std::vector<PlanPtr> plans;
  plans.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    plans.push_back(core::Join(
        core::Scan(fact), core::Scan(dim, core::OrderSpec::ByKey(true))));
  }

  // Solo fault-free references: output bytes and the full trace hash.
  std::vector<Record> expected;
  std::string expected_trace;
  {
    ExecContext ctx = BaseContext();
    memtrace::HashTraceSink sink;
    ctx.trace_sink = &sink;
    Executor ex(ctx);
    expected = ex.Execute(plans.front()).table.rows();
    expected_trace = sink.HexDigest();
  }

  const VariantSpec specs[] = {
      {"faultfree", "", 0.0, true},
      {"chaos_1pct", "alloc:0.01;pool_spawn:0.01;worker_crash:0.01", 0.01,
       true},
      {"chaos_5pct", "alloc:0.05;pool_spawn:0.05;worker_crash:0.05", 0.05,
       true},
      {"crash_heavy", "worker_crash:2", 0.5, true},
  };

  bool ok = true;
  std::vector<VariantResult> results;
  for (const VariantSpec& spec : specs) {
    results.push_back(RunVariant(spec, plans, expected, expected_trace));
    ok = ok && results.back().assertions_ok;
  }
  FaultInjector::Global().Configure(FaultSpec{}, kDefaultFaultSeed);

  // Smoke bars beyond per-response byte identity:
  //  * the fault-free schedule is loss-free, retry- and crash-free, and
  //    its traced probe matched the solo hash;
  //  * the chaos schedules actually fired faults (fixed seed, per-arrival
  //    rates over thousands of arrivals).
  const VariantResult& calm = results[0];
  if (calm.failed != 0 || calm.counters.retries != 0 ||
      calm.counters.worker_crashes != 0) {
    std::fprintf(stderr, "FAIL: fault-free variant saw failures/retries\n");
    ok = false;
  }
  if (!calm.traced_probe_ok) {
    std::fprintf(stderr, "FAIL: fault-free traced probe did not resolve OK\n");
    ok = false;
  }
  uint64_t chaos_fired = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    chaos_fired += results[i].faults_fired;
  }
  if (chaos_fired == 0) {
    std::fprintf(stderr, "FAIL: chaos variants fired no faults\n");
    ok = false;
  }
  // Every 2nd pop crashes a worker in crash_heavy — with >= 2 pops
  // the containment path (requeue + respawn) must have run.
  const VariantResult& heavy = results[3];
  if (heavy.counters.worker_crashes == 0 ||
      heavy.counters.crash_requeues == 0) {
    std::fprintf(stderr,
                 "FAIL: crash_heavy variant absorbed no worker crashes\n");
    ok = false;
  }

  std::printf(
      "{\n  \"bench\": \"chaos\",\n  \"threads\": %u,\n  \"smoke\": %s,\n"
      "  \"sessions\": 4,\n  \"queries\": %zu,\n  \"fact_rows\": %zu,\n"
      "  \"dim_rows\": %zu,\n  \"fault_seed\": \"0x%016" PRIx64 "\",\n"
      "  \"retry_max_attempts\": 3,\n  \"variants\": [\n",
      ThreadPool::Global().worker_count(), smoke ? "true" : "false", queries,
      fact_n, dim_n, kDefaultFaultSeed);
  for (size_t i = 0; i < results.size(); ++i) {
    const VariantSpec& spec = specs[i];
    const VariantResult& r = results[i];
    std::printf(
        "    {\"name\": \"%s\", \"fault_rate\": %.2f, \"fault_spec\": "
        "\"%s\",\n"
        "     \"seconds\": %.6f, \"goodput_qps\": %.3f, \"ok\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"faults_fired\": %" PRIu64 ",\n"
        "     \"retries\": %" PRIu64 ", \"retry_successes\": %" PRIu64
        ", \"worker_crashes\": %" PRIu64 ", \"crash_requeues\": %" PRIu64
        ",\n     \"shed\": %" PRIu64 ", \"breaker_rejected\": %" PRIu64
        ", \"breaker_trips\": %" PRIu64 ",\n"
        "     \"traced_probe\": \"%s\",\n"
        "     \"drain\": {\"completed\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"cancelled\": %" PRIu64 ", \"flushed\": %" PRIu64
        ", \"deadline_hit\": %s}}%s\n",
        spec.name, spec.rate, spec.fault_spec, r.seconds, r.goodput_qps,
        r.ok, r.failed, r.faults_fired, r.counters.retries,
        r.counters.retry_successes, r.counters.worker_crashes,
        r.counters.crash_requeues, r.counters.shed,
        r.counters.breaker_rejected, r.breaker_trips,
        r.traced_probe_skipped ? "skipped"
                               : (r.traced_probe_ok ? "ok" : "failed"),
        r.drain.completed, r.drain.failed, r.drain.cancelled,
        r.drain.flushed, r.drain.deadline_hit ? "true" : "false",
        i + 1 == results.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  if (smoke) {
    std::fprintf(stderr, ok ? "chaos smoke OK\n" : "chaos smoke FAILED\n");
  }
  return ok ? 0 : 1;
}
