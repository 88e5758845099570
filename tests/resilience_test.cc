// The resilience layer (service/retry.h, service/breaker.h, the admission
// queue's load shedding, and QueryService's crash containment + drain):
// transparent retry must rescue transient faults with byte-identical
// outputs, a crashed session worker must cost its queries nothing (one
// requeue, a respawned slot), the per-shape circuit breaker must fast-fail
// and recover deterministically, shedding must displace only by priority,
// and Drain must dispose of every query exactly once — all under the
// deterministic fault injector, so each scenario replays exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/bits.h"
#include "common/fault.h"
#include "common/status.h"
#include "core/exec_context.h"
#include "core/plan.h"
#include "obliv/ct.h"
#include "service/admission.h"
#include "service/breaker.h"
#include "service/query_service.h"
#include "service/retry.h"

namespace oblivdb {
namespace {

using core::ExecContext;
using core::Executor;
using core::PlanPtr;
using service::AdmissionLimits;
using service::AdmissionQueue;
using service::BreakerOptions;
using service::CircuitBreaker;
using service::PendingQuery;
using service::QueryResponse;
using service::QueryService;
using service::RetryAfterMsHint;
using service::RetryPolicy;
using service::ServiceOptions;
using service::SessionOptions;
using service::WithRetryAfter;

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

// A small join — allocates inside the join subtree, so the alloc fault
// site has something to hit and the recovery paths something to redo.
PlanPtr SmallJoin(uint64_t variant) {
  return core::Join(core::Scan(FactTable("rf", 64, 8, variant)),
                    KeyUniqueScan(DimTable("rd", 8, variant)));
}

// ---------------------------------------------------------------------------
// Backoff: a pure function of (policy, attempt, seed) — deterministic,
// bounded by the exponential step, jittered downward only.

TEST(BackoffTest, ZeroBaseAndAttemptZeroDisableTheDelay) {
  BackoffPolicy policy;
  policy.base_ms = 0;
  EXPECT_EQ(BackoffDelayMs(policy, 1, 7), 0u);
  EXPECT_EQ(BackoffDelayMs(policy, 9, 7), 0u);
  policy.base_ms = 4;
  EXPECT_EQ(BackoffDelayMs(policy, 0, 7), 0u);  // attempt 0 never waits
}

TEST(BackoffTest, DeterministicAndBoundedByTheExponentialStep) {
  BackoffPolicy policy;
  policy.base_ms = 4;
  policy.multiplier = 2;
  policy.max_ms = 100;
  policy.jitter_frac = 0.5;
  for (uint32_t attempt = 1; attempt <= 8; ++attempt) {
    uint64_t step = policy.base_ms;
    for (uint32_t i = 1; i < attempt; ++i) step *= policy.multiplier;
    if (step > policy.max_ms) step = policy.max_ms;
    const uint64_t delay = BackoffDelayMs(policy, attempt, /*seed=*/11);
    EXPECT_EQ(delay, BackoffDelayMs(policy, attempt, 11));  // replayable
    EXPECT_GE(delay, 1u);
    EXPECT_LE(delay, step);
    EXPECT_GE(delay * 2, step);  // jitter removes at most jitter_frac = 1/2
  }
}

TEST(BackoffTest, SeedSteersTheJitter) {
  BackoffPolicy policy;
  policy.base_ms = 64;
  policy.max_ms = 1 << 20;  // wide steps so distinct jitters stay distinct
  std::vector<uint64_t> a, b;
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    a.push_back(BackoffDelayMs(policy, attempt, 1));
    b.push_back(BackoffDelayMs(policy, attempt, 2));
  }
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// Retry classification and the machine-readable backoff hint.

TEST(RetryPolicyTest, RetryableIsExactlyTheTransientEnvironmentalClass) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(
      Status(StatusCode::kUnavailable, "worker crashed")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(
      Status(StatusCode::kIntegrityViolation, "mac mismatch")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(
      Status(StatusCode::kResourceExhausted, "alloc refused")));

  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Ok()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(
      Status(StatusCode::kCancelled, "client gave up")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(
      Status(StatusCode::kDeadlineExceeded, "budget spent")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(
      Status(StatusCode::kInvalidArgument, "bad plan")));
}

TEST(RetryPolicyTest, RetryAfterHintRoundTrips) {
  const Status hinted = WithRetryAfter(
      Status(StatusCode::kResourceExhausted, "admission queue full"), 25);
  EXPECT_EQ(hinted.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(hinted.message().find("admission queue full"), std::string::npos);
  EXPECT_EQ(RetryAfterMsHint(hinted), 25);

  EXPECT_EQ(RetryAfterMsHint(Status(StatusCode::kUnavailable, "no hint")), -1);
  EXPECT_EQ(RetryAfterMsHint(Status::Ok()), -1);
}

// ---------------------------------------------------------------------------
// Status annotation: a fault unwinding out of a plan subtree arrives at the
// caller carrying the root-to-fault operator path.

TEST(AnnotateTest, ChainsOperatorNamesOntoTheMessage) {
  const Status base(StatusCode::kResourceExhausted, "alloc refused");
  const Status once = base.Annotate("join");
  EXPECT_EQ(once.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(once.message(), "join: alloc refused");
  const Status twice = Status(once).Annotate("distinct");
  EXPECT_EQ(twice.message(), "distinct: join: alloc refused");
  EXPECT_TRUE(Status::Ok().Annotate("join").ok());  // ok stays ok
}

TEST(AnnotateTest, ExecutorReportsTheNodePathOfAnInjectedFault) {
  ExecContext base;
  const PlanPtr plan = core::Distinct(SmallJoin(1));
  ScopedFaultInjection scoped("alloc:once");
  Executor ex(base);
  StatusOr<core::PlanResult> r = ex.TryRun(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // The first allocation lives in the join subtree; the unwind gains each
  // enclosing node's operator name, root last.
  EXPECT_NE(r.status().message().find("distinct: join"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Startup validation: a malformed OBLIVDB_FAULT_SPEC fails Create instead
// of silently running un-faulted.

TEST(ServiceStartupTest, CreateRejectsMalformedFaultSpec) {
  ExecContext base;
  setenv("OBLIVDB_FAULT_SPEC", "bogus_site:0.5", 1);
  auto bad = QueryService::Create(base);
  unsetenv("OBLIVDB_FAULT_SPEC");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("bogus_site"), std::string::npos);
  EXPECT_NE(bad.status().message().find("QueryService::Create"),
            std::string::npos);
}

TEST(ServiceStartupTest, CreateAcceptsValidAndUnsetFaultSpecs) {
  ExecContext base;
  setenv("OBLIVDB_FAULT_SPEC", "alloc:off", 1);
  auto valid = QueryService::Create(base);
  unsetenv("OBLIVDB_FAULT_SPEC");
  ASSERT_TRUE(valid.ok());
  (*valid)->Close();

  auto unset = QueryService::Create(base);
  ASSERT_TRUE(unset.ok());
  (*unset)->Close();
}

// ---------------------------------------------------------------------------
// Transparent retry: a transient fault costs the client nothing — the
// rescued output is byte-identical to a solo fault-free run.

TEST(TransparentRetryTest, RescuesATransientAllocFaultByteIdentically) {
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.base_ms = 0;  // instant retries; still counted
  QueryService svc(base, opts);
  const PlanPtr plan = SmallJoin(2);

  std::vector<Record> expected;
  {
    Executor ex(svc.MakeSessionContext(SessionOptions{}));
    expected = ex.Execute(plan).table.rows();
  }

  ScopedFaultInjection scoped("alloc:once");  // attempt 0 fails, 1 succeeds
  auto r = svc.Run(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.table.rows(), expected);

  const QueryService::Counters c = svc.counters();
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.retry_successes, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(TransparentRetryTest, DisabledRetrySurfacesTheFault) {
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  opts.retry.max_attempts = 1;  // off
  QueryService svc(base, opts);

  ScopedFaultInjection scoped("alloc:once");
  auto r = svc.Run(SmallJoin(3));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.counters().retries, 0u);
  EXPECT_EQ(svc.counters().failed, 1u);
}

TEST(TransparentRetryTest, SinkCarryingQueriesNeverRetryTransparently) {
  // A stats/trace sink must observe exactly one execution, so the service
  // surfaces the transient and lets the client retry with a fresh sink.
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.base_ms = 0;
  QueryService svc(base, opts);

  core::CollectingStatsSink sink;
  SessionOptions sess;
  sess.stats_sink = &sink;
  ScopedFaultInjection scoped("alloc:once");
  auto r = svc.Run(SmallJoin(4), sess);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.counters().retries, 0u);
}

// ---------------------------------------------------------------------------
// Worker-crash containment: the dying worker requeues its query, respawns
// its slot, and the rerun is byte-identical.

TEST(WorkerCrashTest, CrashedWorkerRequeuesRespawnsAndReruns) {
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;  // the single slot must survive its own death
  QueryService svc(base, opts);
  const PlanPtr plan = SmallJoin(5);

  std::vector<Record> expected;
  {
    Executor ex(svc.MakeSessionContext(SessionOptions{}));
    expected = ex.Execute(plan).table.rows();
  }

  {
    ScopedFaultInjection scoped("worker_crash:once");
    auto r = svc.Run(plan);  // pop -> crash -> requeue -> respawn -> rerun
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->result.table.rows(), expected);
  }
  EXPECT_EQ(svc.counters().worker_crashes, 1u);
  EXPECT_EQ(svc.counters().crash_requeues, 1u);
  EXPECT_EQ(svc.counters().completed, 1u);

  // The respawned slot is a full citizen: a fault-free query runs fine.
  auto again = svc.Run(plan);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.table.rows(), expected);
}

TEST(WorkerCrashTest, TwiceOrphanedQueryResolvesUnavailable) {
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  QueryService svc(base, opts);
  {
    // Every pop crashes the worker: requeue once, then stop cycling.
    ScopedFaultInjection scoped("worker_crash:1");
    auto r = svc.Run(SmallJoin(6));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status().message().find("crashed twice"), std::string::npos);
  }
  EXPECT_EQ(svc.counters().worker_crashes, 2u);
  EXPECT_EQ(svc.counters().crash_requeues, 1u);
  EXPECT_EQ(svc.counters().failed, 1u);
  svc.Close();  // the twice-respawned slot joins cleanly
}

// ---------------------------------------------------------------------------
// Circuit breaker unit: the three-state machine with arrival-counted
// cooldown, single half-open probe, and abandoned-probe release.

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRecovers) {
  BreakerOptions opts;
  opts.trip_threshold = 3;
  opts.cooldown_rejects = 2;
  opts.retry_after_ms = 7;
  CircuitBreaker breaker(opts);
  const std::string sig = "shape";

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Admit(sig).ok());
    breaker.OnFailure(sig);
  }
  EXPECT_EQ(breaker.StateOf(sig), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1u);

  // Cooldown: the next two arrivals bounce with the hint.
  for (int i = 0; i < 2; ++i) {
    const Status rejected = breaker.Admit(sig);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
    EXPECT_EQ(RetryAfterMsHint(rejected), 7);
  }
  EXPECT_EQ(breaker.stats().rejects, 2u);

  // Cooldown spent: exactly one probe admits; a concurrent arrival bounces.
  EXPECT_TRUE(breaker.Admit(sig).ok());
  EXPECT_EQ(breaker.StateOf(sig), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Admit(sig).ok());
  EXPECT_EQ(breaker.stats().probes, 1u);

  breaker.OnSuccess(sig);  // probe came back healthy
  EXPECT_EQ(breaker.StateOf(sig), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().recoveries, 1u);
  EXPECT_TRUE(breaker.Admit(sig).ok());
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  BreakerOptions opts;
  opts.trip_threshold = 3;
  CircuitBreaker breaker(opts);
  breaker.OnFailure("s");
  breaker.OnFailure("s");
  breaker.OnSuccess("s");  // streak cleared
  breaker.OnFailure("s");
  breaker.OnFailure("s");
  EXPECT_EQ(breaker.StateOf("s"), CircuitBreaker::State::kClosed);
  breaker.OnFailure("s");
  EXPECT_EQ(breaker.StateOf("s"), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, ProbeFailureReopensForAnotherCooldown) {
  BreakerOptions opts;
  opts.trip_threshold = 1;
  opts.cooldown_rejects = 1;
  CircuitBreaker breaker(opts);
  breaker.OnFailure("s");
  EXPECT_EQ(breaker.StateOf("s"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Admit("s").ok());  // spends the cooldown
  EXPECT_TRUE(breaker.Admit("s").ok());   // the probe
  breaker.OnFailure("s");                 // probe still sick
  EXPECT_EQ(breaker.StateOf("s"), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2u);
  EXPECT_FALSE(breaker.Admit("s").ok());
}

TEST(CircuitBreakerTest, AbandonedProbeReleasesItsSlot) {
  BreakerOptions opts;
  opts.trip_threshold = 1;
  opts.cooldown_rejects = 0;
  CircuitBreaker breaker(opts);
  breaker.OnFailure("s");
  EXPECT_TRUE(breaker.Admit("s").ok());   // straight to the probe
  EXPECT_FALSE(breaker.Admit("s").ok());  // slot held
  breaker.OnAbandoned("s");               // probe never executed
  EXPECT_EQ(breaker.StateOf("s"), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Admit("s").ok());  // a fresh probe may go
  EXPECT_EQ(breaker.stats().probes, 2u);
}

TEST(CircuitBreakerTest, ZeroThresholdDisablesTheGate) {
  BreakerOptions opts;
  opts.trip_threshold = 0;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 10; ++i) breaker.OnFailure("s");
  EXPECT_TRUE(breaker.Admit("s").ok());
}

// ---------------------------------------------------------------------------
// Breaker in the service: a shape that keeps failing is quarantined at
// Submit, then recovers through a half-open probe once the fault clears.

TEST(ServiceBreakerTest, OpenCircuitFastFailsSubmitThenRecovers) {
  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;
  opts.retry.max_attempts = 1;  // failures surface immediately
  opts.breaker.trip_threshold = 2;
  opts.breaker.cooldown_rejects = 1;
  QueryService svc(base, opts);
  const PlanPtr plan = SmallJoin(7);

  std::vector<Record> expected;
  {
    Executor ex(svc.MakeSessionContext(SessionOptions{}));
    expected = ex.Execute(plan).table.rows();
  }

  ScopedFaultInjection scoped("alloc:1");  // every execution fails
  for (int i = 0; i < 2; ++i) {
    auto r = svc.Run(plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  // Two consecutive failures tripped the shape: Submit now fast-fails
  // without burning a session slot on the oblivious pipeline.
  auto rejected = svc.Run(plan);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("circuit open"),
            std::string::npos);
  EXPECT_GE(RetryAfterMsHint(rejected.status()), 0);
  EXPECT_EQ(svc.counters().breaker_rejected, 1u);
  EXPECT_EQ(svc.breaker().stats().trips, 1u);

  // Fault clears; the cooldown is spent, so the next arrival is the probe
  // and its success closes the circuit with a byte-identical response.
  ScopedFaultInjection healthy("");
  auto probe = svc.Run(plan);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->result.table.rows(), expected);
  EXPECT_EQ(svc.breaker().stats().recoveries, 1u);
  auto after = svc.Run(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.table.rows(), expected);
}

// ---------------------------------------------------------------------------
// Load shedding: above the watermark admission turns priority-aware; below
// it nothing is displaced.  Queue-full rejections carry depth + hint.

std::shared_ptr<PendingQuery> MakePending(int32_t priority) {
  SessionOptions sess;
  sess.priority = priority;
  return std::make_shared<PendingQuery>(core::Scan(FactTable("q", 8, 4, 1)),
                                        "sig", sess);
}

TEST(LoadShedTest, WatermarkShedsOnlyByPriority) {
  AdmissionLimits limits;
  limits.queue_capacity = 4;
  limits.shed_watermark = 2;
  limits.shed_retry_after_ms = 9;
  AdmissionQueue queue(limits);

  auto low_a = MakePending(0);
  auto low_b = MakePending(0);
  ASSERT_TRUE(queue.TryEnqueue(low_a).ok());
  ASSERT_TRUE(queue.TryEnqueue(low_b).ok());

  // At the watermark an equal-priority arrival is itself shed (ties favor
  // incumbents — they already waited).
  const Status shed = queue.TryEnqueue(MakePending(0));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("shed under queue pressure"),
            std::string::npos);
  EXPECT_EQ(RetryAfterMsHint(shed), 9);
  EXPECT_EQ(queue.shed_count(), 1u);

  // A higher-priority arrival displaces the lowest-priority waiter, which
  // resolves with the same machine-readable rejection.
  auto urgent = MakePending(5);
  ASSERT_TRUE(queue.TryEnqueue(urgent).ok());
  ASSERT_TRUE(low_a->done());
  const StatusOr<QueryResponse>& victim = low_a->Wait();
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(victim.status().message().find("higher-priority"),
            std::string::npos);
  EXPECT_EQ(RetryAfterMsHint(victim.status()), 9);
  EXPECT_EQ(queue.shed_count(), 2u);
  EXPECT_EQ(queue.size(), 2u);  // low_b and urgent
  EXPECT_FALSE(low_b->done());
}

TEST(LoadShedTest, FullQueueRejectionCarriesDepthAndHint) {
  AdmissionLimits limits;
  limits.queue_capacity = 2;
  limits.shed_watermark = 0;  // watermark off: only the hard cap applies
  limits.shed_retry_after_ms = 13;
  AdmissionQueue queue(limits);
  ASSERT_TRUE(queue.TryEnqueue(MakePending(0)).ok());
  ASSERT_TRUE(queue.TryEnqueue(MakePending(9)).ok());
  const Status full = queue.TryEnqueue(MakePending(9));  // priority is moot
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("admission queue full: 2 queries waiting"),
            std::string::npos);
  EXPECT_EQ(RetryAfterMsHint(full), 13);
  EXPECT_EQ(queue.shed_count(), 0u);  // a cap rejection is not a shed
}

// ---------------------------------------------------------------------------
// Graceful drain: every query gets exactly one disposition — finished,
// drain-cancelled at an oblivious checkpoint, or flushed unrun.

// Blocks the plan mid-execution so drain deadlines can lapse around it.
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

TEST(DrainTest, IdleDrainReportsNothingAndStopsAdmission) {
  ExecContext base;
  QueryService svc(base, ServiceOptions{});
  ASSERT_TRUE(svc.Run(SmallJoin(8)).ok());

  const QueryService::DrainReport report = svc.Drain(1.0);
  EXPECT_FALSE(report.deadline_hit);
  EXPECT_EQ(report.completed, 0u);  // nothing was in flight at drain start
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_EQ(report.flushed, 0u);

  auto late = svc.Submit(SmallJoin(8));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(RetryAfterMsHint(late.status()), 0);

  // A second drain is a no-op reporting zeros.
  const QueryService::DrainReport again = svc.Drain(1.0);
  EXPECT_EQ(again.flushed, 0u);
  EXPECT_FALSE(again.deadline_hit);
}

TEST(DrainTest, DeadlineCancelsInFlightAndFlushesQueued) {
  auto gate = std::make_shared<Gate>();
  // The gated predicate sits under a join: once the gate opens, the join's
  // own oblivious checkpoints run with the drain token already fired.
  const PlanPtr blocker = core::Join(
      core::Select(core::Scan(FactTable("bf", 24, 6, 1)),
                   [gate](const Record& r) {
                     gate->Enter();
                     return ct::LeqMask(r.key + 1, 4);
                   },
                   /*key_only=*/false),
      KeyUniqueScan(DimTable("bd", 6, 1)));

  ExecContext base;
  ServiceOptions opts;
  opts.sessions = 1;  // the blocker pins the only worker
  QueryService svc(base, opts);

  auto pb = svc.Submit(blocker);
  ASSERT_TRUE(pb.ok());
  gate->AwaitEntered();

  std::vector<std::shared_ptr<PendingQuery>> queued;
  for (int i = 0; i < 2; ++i) {
    auto p = svc.Submit(SmallJoin(9));
    ASSERT_TRUE(p.ok());
    queued.push_back(*p);
  }

  QueryService::DrainReport report;
  std::thread drainer([&] { report = svc.Drain(0.05); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate->Open();  // deadline long gone: the blocker resumes into a cancel
  drainer.join();

  EXPECT_TRUE(report.deadline_hit);
  EXPECT_EQ(report.cancelled, 1u);
  EXPECT_EQ(report.flushed, 2u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);

  const StatusOr<QueryResponse>& rb = (*pb)->Wait();
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kCancelled);
  for (const auto& p : queued) {
    const StatusOr<QueryResponse>& r = p->Wait();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status().message().find("flushed"), std::string::npos);
  }
}

}  // namespace
}  // namespace oblivdb
