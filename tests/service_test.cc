// The concurrent query service (service/query_service.h): session
// isolation must be airtight — byte-identical outputs and traces vs solo
// Executor runs across every cache/session-count setting, fully private
// telemetry, strict FIFO admission, and per-query cancellation/deadline/
// queue-full rejection that never perturbs a neighbour — while the
// shape-keyed plan cache changes only wall time.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/cancel.h"
#include "core/exec_context.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "memtrace/sinks.h"
#include "obliv/ct.h"
#include "obliv/sort_kernel.h"
#include "service/admission.h"
#include "service/plan_cache.h"
#include "service/query_service.h"

namespace oblivdb {
namespace {

using core::CollectingStatsSink;
using core::ExecContext;
using core::Executor;
using core::PlanPtr;
using core::PlanResult;
using service::AdmissionLimits;
using service::AdmissionQueue;
using service::PendingQuery;
using service::QueryResponse;
using service::QueryService;
using service::ServiceOptions;
using service::SessionOptions;

Table FactTable(const std::string& name, size_t n, uint64_t key_range,
                uint64_t variant) {
  Table t(name);
  uint64_t state = 0x5eef + key_range;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = SplitMix64(state) % key_range;
    t.rows().push_back(Record{key, {1000 * variant + 3 * i, variant + i % 2}});
  }
  return t;
}

Table DimTable(const std::string& name, size_t n, uint64_t variant) {
  Table t(name);
  for (uint64_t k = 0; k < n; ++k) {
    t.rows().push_back(Record{k, {500 * variant + k, variant}});
  }
  return t;
}

PlanPtr KeyUniqueScan(Table t) {
  return core::Scan(std::move(t), core::OrderSpec::ByKey(/*key_unique=*/true));
}

uint64_t KeyBelow(const Record& r, uint64_t bound) {
  return ct::LeqMask(r.key + 1, bound);
}

// The mixed workload the isolation tests submit: distinct shapes whose
// operator sets barely overlap (telemetry cross-talk would be visible).
std::vector<PlanPtr> Workload() {
  std::vector<PlanPtr> plans;
  plans.push_back(core::Join(core::Scan(FactTable("f1", 96, 12, 1)),
                             KeyUniqueScan(DimTable("d1", 12, 1))));
  plans.push_back(core::Distinct(core::Scan(FactTable("f2", 80, 10, 2))));
  plans.push_back(core::Aggregate(core::Scan(FactTable("f3", 64, 8, 3)),
                                  KeyUniqueScan(DimTable("d3", 8, 3))));
  plans.push_back(core::Union(core::Scan(FactTable("f4", 40, 5, 4)),
                              core::Scan(FactTable("f5", 24, 5, 5))));
  return plans;
}

// ---------------------------------------------------------------------------
// Byte identity: every cache x session-count combination must return
// exactly what a solo Executor returns.

TEST(QueryServiceTest, ByteIdenticalAcrossCacheAndSessions) {
  const std::vector<PlanPtr> plans = Workload();

  // Solo references, computed under the same session context the service
  // publishes (same worker budget, same derived seed).
  std::vector<std::vector<Record>> expected;
  {
    ExecContext base;
    QueryService ref_service(base, ServiceOptions{});
    const ExecContext solo = ref_service.MakeSessionContext(SessionOptions{});
    for (const PlanPtr& p : plans) {
      Executor ex(solo);
      expected.push_back(ex.Execute(p).table.rows());
    }
  }

  for (const bool cache_on : {false, true}) {
    for (const unsigned sessions : {1u, 4u}) {
      ExecContext base;
      ServiceOptions opts;
      opts.sessions = sessions;
      opts.plan_cache = cache_on;
      QueryService svc(base, opts);
      // Two rounds so the second hits every warm cache path.
      for (int round = 0; round < 2; ++round) {
        std::vector<std::shared_ptr<PendingQuery>> pending;
        for (const PlanPtr& p : plans) {
          auto submitted = svc.Submit(p);
          ASSERT_TRUE(submitted.ok());
          pending.push_back(*submitted);
        }
        for (size_t i = 0; i < pending.size(); ++i) {
          const StatusOr<QueryResponse>& r = pending[i]->Wait();
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(r->result.table.rows(), expected[i])
              << "cache=" << cache_on << " sessions=" << sessions
              << " round=" << round << " plan=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trace isolation: concurrently submitted traced queries each produce the
// exact trace a solo run produces (traced queries run exclusively, so the
// process-global instrumentation sees solo state).

TEST(QueryServiceTest, ConcurrentTracedSessionsMatchSoloTraces) {
  // Join shapes only: no multiway, so revealed-size feedback cannot move
  // any rewrite and the executed shape is pinned across repeats.
  const PlanPtr plan_a = core::Join(core::Scan(FactTable("fa", 64, 8, 1)),
                                    KeyUniqueScan(DimTable("da", 8, 1)));
  const PlanPtr plan_b = core::Join(core::Scan(FactTable("fb", 48, 6, 2)),
                                    KeyUniqueScan(DimTable("db", 6, 2)));

  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 2;
  QueryService svc(base, opts);

  SessionOptions sess_a;
  sess_a.rng_stream = 1;
  SessionOptions sess_b;
  sess_b.rng_stream = 2;

  std::string solo_a, solo_b;
  {
    memtrace::HashTraceSink sink;
    ExecContext ctx = svc.MakeSessionContext(sess_a);
    ctx.trace_sink = &sink;
    Executor ex(ctx);
    ex.Execute(plan_a);
    solo_a = sink.HexDigest();
  }
  {
    memtrace::HashTraceSink sink;
    ExecContext ctx = svc.MakeSessionContext(sess_b);
    ctx.trace_sink = &sink;
    Executor ex(ctx);
    ex.Execute(plan_b);
    solo_b = sink.HexDigest();
  }

  memtrace::HashTraceSink svc_sink_a, svc_sink_b;
  sess_a.trace_sink = &svc_sink_a;
  sess_b.trace_sink = &svc_sink_b;
  auto pa = svc.Submit(plan_a, sess_a);
  auto pb = svc.Submit(plan_b, sess_b);
  ASSERT_TRUE(pa.ok() && pb.ok());
  ASSERT_TRUE((*pa)->Wait().ok());
  ASSERT_TRUE((*pb)->Wait().ok());

  EXPECT_EQ(svc_sink_a.HexDigest(), solo_a);
  EXPECT_EQ(svc_sink_b.HexDigest(), solo_b);
}

// ---------------------------------------------------------------------------
// Stats isolation: each session's sink receives only its own query's
// operator reports.

TEST(QueryServiceTest, StatsSinksAreIsolatedAcrossConcurrentSessions) {
  const PlanPtr join_plan =
      core::Join(core::Scan(FactTable("fj", 96, 12, 1)),
                 KeyUniqueScan(DimTable("dj", 12, 1)));
  const PlanPtr distinct_plan =
      core::Distinct(core::Scan(FactTable("fd", 80, 10, 2)));

  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 2;
  QueryService svc(base, opts);

  // Solo op sequences under the same session context.
  auto solo_ops = [&](const PlanPtr& p) {
    CollectingStatsSink sink;
    ExecContext ctx = svc.MakeSessionContext(SessionOptions{});
    ctx.stats_sink = &sink;
    Executor ex(ctx);
    ex.Execute(p);
    std::vector<std::string> ops;
    for (const auto& r : sink.reports()) ops.push_back(r.op);
    return ops;
  };
  const std::vector<std::string> expect_join = solo_ops(join_plan);
  const std::vector<std::string> expect_distinct = solo_ops(distinct_plan);

  for (int round = 0; round < 4; ++round) {
    CollectingStatsSink sink_join, sink_distinct;
    SessionOptions s1;
    s1.stats_sink = &sink_join;
    SessionOptions s2;
    s2.stats_sink = &sink_distinct;
    auto p1 = svc.Submit(join_plan, s1);
    auto p2 = svc.Submit(distinct_plan, s2);
    ASSERT_TRUE(p1.ok() && p2.ok());
    ASSERT_TRUE((*p1)->Wait().ok());
    ASSERT_TRUE((*p2)->Wait().ok());

    std::vector<std::string> got_join, got_distinct;
    for (const auto& r : sink_join.reports()) got_join.push_back(r.op);
    for (const auto& r : sink_distinct.reports()) {
      got_distinct.push_back(r.op);
    }
    EXPECT_EQ(got_join, expect_join);
    EXPECT_EQ(got_distinct, expect_distinct);
  }
}

// ---------------------------------------------------------------------------
// Cancellation isolation: a pre-cancelled query resolves kCancelled; a
// same-shape neighbour submitted alongside it stays byte-identical.

TEST(QueryServiceTest, CancellingOneSessionLeavesTheOtherByteIdentical) {
  const PlanPtr victim = core::Join(core::Scan(FactTable("fv", 64, 8, 1)),
                                    KeyUniqueScan(DimTable("dv", 8, 1)));
  const PlanPtr survivor = core::Join(core::Scan(FactTable("fs", 64, 8, 2)),
                                      KeyUniqueScan(DimTable("ds", 8, 2)));

  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 2;
  QueryService svc(base, opts);

  std::vector<Record> expected;
  {
    Executor ex(svc.MakeSessionContext(SessionOptions{}));
    expected = ex.Execute(survivor).table.rows();
  }

  CancelToken token;
  token.Cancel();
  SessionOptions cancelled;
  cancelled.cancel_token = &token;
  auto pv = svc.Submit(victim, cancelled);
  auto ps = svc.Submit(survivor);
  ASSERT_TRUE(pv.ok() && ps.ok());

  const StatusOr<QueryResponse>& rv = (*pv)->Wait();
  ASSERT_FALSE(rv.ok());
  EXPECT_EQ(rv.status().code(), StatusCode::kCancelled);

  const StatusOr<QueryResponse>& rs = (*ps)->Wait();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->result.table.rows(), expected);
}

// ---------------------------------------------------------------------------
// Status-typed rejection.

TEST(QueryServiceTest, NullPlanIsInvalidArgument) {
  ExecContext base;
  QueryService svc(base, ServiceOptions{});
  auto r = svc.Submit(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, DeadlineBeforeAdmissionIsDeadlineExceeded) {
  ExecContext base;
  QueryService svc(base, ServiceOptions{});
  SessionOptions sess;
  sess.deadline_seconds = 1e-12;  // expires before any worker can pop it
  auto r = svc.Run(core::Distinct(core::Scan(FactTable("fx", 40, 5, 1))),
                   sess);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(svc.counters().rejected_deadline, 1u);
}

TEST(AdmissionQueueTest, FullQueueRefusesWithResourceExhausted) {
  AdmissionLimits limits;
  limits.queue_capacity = 2;
  AdmissionQueue queue(limits);
  auto make = [](uint64_t v) {
    return std::make_shared<PendingQuery>(
        core::Distinct(core::Scan(FactTable("q", 8, 4, v))), "sig",
        SessionOptions{});
  };
  EXPECT_TRUE(queue.TryEnqueue(make(1)).ok());
  EXPECT_TRUE(queue.TryEnqueue(make(2)).ok());
  const Status full = queue.TryEnqueue(make(3));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Strict FIFO: shape and tracing never reorder the queue.

TEST(AdmissionQueueTest, PopIsStrictArrivalOrder) {
  AdmissionLimits limits;
  limits.queue_capacity = 8;
  AdmissionQueue queue(limits);
  auto make = [](const std::string& sig, bool traced) {
    SessionOptions sess;
    static memtrace::CountingTraceSink sink;
    if (traced) sess.trace_sink = &sink;
    return std::make_shared<PendingQuery>(core::Scan(FactTable("q", 8, 4, 1)),
                                          sig, sess);
  };
  // Same-signature, other-signature and traced entries, interleaved.
  const std::vector<std::shared_ptr<PendingQuery>> arrivals = {
      make("X", false), make("Y", false), make("X", false), make("X", true),
      make("Y", false)};
  for (const auto& q : arrivals) ASSERT_TRUE(queue.TryEnqueue(q).ok());

  for (const auto& expected : arrivals) {
    EXPECT_EQ(queue.Pop(), expected);
    EXPECT_EQ(queue.in_flight(), 1u);
    queue.Finish();
  }
  EXPECT_EQ(queue.in_flight(), 0u);
  queue.Close();
  EXPECT_EQ(queue.Pop(), nullptr);
}

// ---------------------------------------------------------------------------
// Queued queries fail alone.

// Blocks the first query so later submissions pile up in the queue
// deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;
  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// A queued query whose deadline lapsed while it waited fails alone: only it
// resolves kDeadlineExceeded, and the same-shape queries queued around it
// return responses byte-identical to a solo run.

TEST(QueryServiceTest, ExpiredQueuedQueryFailsAlone) {
  auto gate = std::make_shared<Gate>();
  const PlanPtr blocker = core::Select(
      core::Scan(FactTable("fb", 16, 4, 1)),
      [gate](const Record& r) {
        gate->Enter();
        return KeyBelow(r, 3);
      },
      /*key_only=*/false);
  const PlanPtr repeated = core::Join(core::Scan(FactTable("fr", 64, 8, 2)),
                                      KeyUniqueScan(DimTable("dr", 8, 2)));

  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  QueryService svc(base, opts);

  std::vector<Record> expected;
  {
    Executor ex(svc.MakeSessionContext(SessionOptions{}));
    expected = ex.Execute(repeated).table.rows();
  }

  auto pb = svc.Submit(blocker);
  ASSERT_TRUE(pb.ok());
  gate->AwaitEntered();

  // Three same-shape queries queue behind the blocker; the middle one's
  // deadline expires while it waits (the blocker holds the only worker).
  auto first = svc.Submit(repeated);
  SessionOptions doomed;
  doomed.deadline_seconds = 1e-9;
  auto expired = svc.Submit(repeated, doomed);
  auto last = svc.Submit(repeated);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(expired.ok());
  ASSERT_TRUE(last.ok());
  gate->Open();

  ASSERT_TRUE((*pb)->Wait().ok());
  const StatusOr<QueryResponse>& re = (*expired)->Wait();
  ASSERT_FALSE(re.ok());
  EXPECT_EQ(re.status().code(), StatusCode::kDeadlineExceeded);

  for (const auto& p : {*first, *last}) {
    const StatusOr<QueryResponse>& r = p->Wait();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.table.rows(), expected);
  }
  EXPECT_EQ(svc.counters().rejected_deadline, 1u);
  EXPECT_EQ(svc.counters().completed, 3u);  // blocker + two survivors
  EXPECT_EQ(svc.counters().failed, 1u);
}

// ---------------------------------------------------------------------------
// Plan cache: a repeat of the same plan object is an identity hit.

TEST(QueryServiceTest, RepeatQueryHitsPlanCache) {
  ExecContext base;
  base.optimize = true;
  ServiceOptions opts;
  opts.sessions = 1;
  opts.plan_cache = true;
  QueryService svc(base, opts);

  const PlanPtr plan = core::Distinct(core::Scan(FactTable("fc", 64, 8, 1)));

  auto r1 = svc.Run(plan);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->plan_cache_hit);

  auto r2 = svc.Run(plan);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->plan_cache_hit);
  EXPECT_EQ(r2->result.table.rows(), r1->result.table.rows());

  EXPECT_EQ(svc.counters().plan_cache_hits, 1u);
  EXPECT_EQ(svc.counters().plan_cache_misses, 1u);
}

// ---------------------------------------------------------------------------
// PlanShapeSignature: shape + public sizes only.

TEST(PlanShapeSignatureTest, CapturesShapeNotData) {
  const PlanPtr a = core::Join(core::Scan(FactTable("x", 64, 8, 1)),
                               KeyUniqueScan(DimTable("y", 8, 1)));
  // Same shape/sizes, different names, rows, variant: equal signature.
  const PlanPtr b = core::Join(core::Scan(FactTable("p", 64, 4, 9)),
                               KeyUniqueScan(DimTable("q", 8, 9)));
  // Different public size: different signature.
  const PlanPtr c = core::Join(core::Scan(FactTable("x", 65, 8, 1)),
                               KeyUniqueScan(DimTable("y", 8, 1)));
  EXPECT_EQ(core::PlanShapeSignature(a), core::PlanShapeSignature(b));
  EXPECT_NE(core::PlanShapeSignature(a), core::PlanShapeSignature(c));
  // Declared order / key-uniqueness is part of the public profile.
  const PlanPtr d = core::Join(core::Scan(FactTable("x", 64, 8, 1)),
                               core::Scan(DimTable("y", 8, 1)));
  EXPECT_NE(core::PlanShapeSignature(a), core::PlanShapeSignature(d));
}

// ---------------------------------------------------------------------------
// Revealed-size feedback: it sharpens the multiway ranking and never
// changes bytes.

TEST(SizeFeedbackTest, FeedbackReordersMultiwayMiddlesAndPreservesBytes) {
  // Middles: selects over key-unique dims of 64 and 32 rows.  Statically
  // the 32-row middle ranks first; feedback that reveals the 64-row
  // select actually kept 4 rows flips the order.
  const PlanPtr first = core::Scan(FactTable("mf", 48, 16, 1));
  const PlanPtr sel_a = core::Select(
      KeyUniqueScan(DimTable("ma", 64, 2)),
      [](const Record& r) { return KeyBelow(r, 4); }, /*key_only=*/false);
  const PlanPtr sel_b = core::Select(
      KeyUniqueScan(DimTable("mb", 32, 3)),
      [](const Record& r) { return KeyBelow(r, 30); }, /*key_only=*/false);
  const PlanPtr last = core::Scan(FactTable("ml", 40, 16, 4));
  const PlanPtr plan = core::MultiwayJoin({first, sel_a, sel_b, last});

  const ExecContext ctx;
  const PlanPtr statically = core::OptimizePlan(plan, ctx);
  ASSERT_EQ(statically->inputs.size(), 4u);
  EXPECT_EQ(statically->inputs[1], sel_b);  // 32 < 64
  EXPECT_EQ(statically->inputs[2], sel_a);

  core::SizeFeedback fb;
  fb.rows_by_signature[core::PlanShapeSignature(sel_a)] = 4;
  const PlanPtr steered = core::OptimizePlan(plan, ctx, &fb);
  ASSERT_EQ(steered->inputs.size(), 4u);
  EXPECT_EQ(steered->inputs[1], sel_a);  // revealed 4 < 32
  EXPECT_EQ(steered->inputs[2], sel_b);

  Executor ex_static(ctx), ex_steered(ctx);
  EXPECT_EQ(ex_static.Execute(statically).table.rows(),
            ex_steered.Execute(steered).table.rows());
}

TEST(SizeFeedbackTest, CollectSizeFeedbackRecordsRevealedSizes) {
  const PlanPtr plan = core::Distinct(core::Scan(FactTable("cf", 40, 5, 1)));
  ExecContext ctx;
  ctx.optimize = false;
  Executor ex(ctx);
  const PlanResult result = ex.Execute(plan);
  const core::SizeFeedback fb =
      core::CollectSizeFeedback(ex.executed_plan(), ex.node_stats());
  const auto it =
      fb.rows_by_signature.find(core::PlanShapeSignature(ex.executed_plan()));
  ASSERT_NE(it, fb.rows_by_signature.end());
  EXPECT_EQ(it->second, result.table.rows().size());
}

// ---------------------------------------------------------------------------
// Plan cache LRU mechanics.

TEST(PlanCacheTest, LruEvictsBeyondCapacity) {
  service::PlanCache cache(/*capacity=*/2);
  auto entry = [] {
    auto e = std::make_shared<service::PlanCache::Entry>();
    e->original = core::Scan(FactTable("e", 4, 2, 1));
    e->optimized = e->original;
    return e;
  };
  cache.Insert("a", entry());
  cache.Insert("b", entry());
  EXPECT_NE(cache.Lookup("a"), nullptr);  // bumps "a" to MRU
  cache.Insert("c", entry());             // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

}  // namespace
}  // namespace oblivdb
