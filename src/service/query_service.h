// QueryService: N concurrent query sessions multiplexed over the engine.
//
// The paper's engine executes one query at a time; a realistic deployment
// serves many clients.  The service owns a pool of session workers, each
// with a private worker-thread budget carved out of the global pool
// (workers / N threads per session), and pushes every submitted query
// through a bounded FIFO admission queue (service/admission.h).  Two
// layers make the multiplexing both *safe* and *fast*:
//
//   1. Session isolation.  Each query runs under a private ExecContext
//      clone of the service's base: its own stats/trace sinks, its own
//      CancelToken and deadline, a deterministically derived rng seed
//      (DeriveSeed(base_seed, kSessionSeedStreamBase + rng_stream) — a
//      stream namespace disjoint from the retry streams), and a
//      session-slot ThreadPool whose size is independent of which slot
//      runs the query (all slots have equal budgets, so traces cannot
//      depend on placement).  A query's output — and,
//      for traced queries, its public-memory trace — is byte-identical to
//      a solo Executor run under MakeSessionContext(options)
//      (tests/service_test.cc pins it).
//
//   2. Shape-keyed caching.  The service PlanCache (service/plan_cache.h),
//      keyed on public state only, reuses optimized plans (identity hits)
//      and revealed-size feedback (shape hits).  Hits change wall time,
//      never a trace or an output.
//
// Traced queries are exclusive: the trace instrumentation is
// process-global (memtrace/trace.h — one sink pointer, one array-id
// counter touched by every OArray), so a query with a trace_sink takes
// the service's execution lock uniquely and runs alone, giving it the
// exact global state a solo run sees.  Untraced queries share the lock
// and run genuinely concurrently.
//
// Resilience (the layer the chaos harness bench/bench_chaos.cc exercises):
//
//   * Transparent retry.  A query failing with a transient Status
//     (RetryPolicy::IsRetryable — kUnavailable / kIntegrityViolation /
//     kResourceExhausted) re-executes up to retry.max_attempts times with
//     deterministic seeded-jitter backoff between attempts.  Attempt k
//     runs under ExecContext::ForAttempt(k) — the session seed re-derived
//     on the retry stream — and since outputs and oblivious traces are
//     seed-independent, the attempt that succeeds is byte-identical to a
//     fresh solo run.  Cancellation and deadline expiry never retry.
//
//   * Worker-crash containment.  The worker_crash fault site
//     (common/fault.h) kills a session worker as it picks up a query; the
//     dying worker requeues the query at the queue front (at most once — a
//     twice-orphaned query resolves kUnavailable), retires its own thread
//     handle, and respawns the slot.  Other sessions' stats/trace
//     isolation is untouched.
//
//   * Overload protection.  A per-plan-shape circuit breaker
//     (service/breaker.h) fast-fails Submit for shapes with
//     trip_threshold consecutive execution failures (kUnavailable +
//     retry_after_ms, recovery via half-open probes), and the admission
//     queue sheds lowest-priority work above the shed watermark
//     (kResourceExhausted + depth + retry_after_ms — service/admission.h).
//
//   * Graceful drain.  Drain(deadline_seconds) stops admission, lets
//     in-flight and queued work finish until the deadline, then cancels
//     in-flight queries at their next oblivious checkpoint (a second,
//     service-owned CancelToken — the client's token is untouched) and
//     flushes still-queued work as kUnavailable, reporting per-disposition
//     counts.
//
// Knobs: OBLIVDB_SERVICE_SESSIONS (worker count, default 2),
// OBLIVDB_PLAN_CACHE (off = disable both cache layers' defaults),
// OBLIVDB_FAULT_SPEC (validated at Create — a malformed spec fails startup
// with kInvalidArgument instead of silently running un-faulted).  All
// public configuration.

#ifndef OBLIVDB_SERVICE_QUERY_SERVICE_H_
#define OBLIVDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/exec_context.h"
#include "core/plan.h"
#include "obliv/artifact_cache.h"
#include "service/admission.h"
#include "service/breaker.h"
#include "service/plan_cache.h"
#include "service/retry.h"

namespace oblivdb::service {

struct ServiceOptions {
  // Concurrent session workers: OBLIVDB_SERVICE_SESSIONS when set to a
  // positive integer, else 2.
  static unsigned DefaultSessions();
  // Always false (admission is strict FIFO); exists only for the benchmark.
  static constexpr bool DefaultBatchAdmit() { return false; }

  unsigned sessions = DefaultSessions();
  size_t queue_capacity = 64;
  // Master switch for the PlanCache: when false it is bypassed.  Defaults
  // to the OBLIVDB_PLAN_CACHE-driven process default.
  bool plan_cache = obliv::ArtifactCache::DefaultEnabled();
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;

  // Transparent re-execution of retryable failures (service/retry.h);
  // max_attempts <= 1 disables.
  RetryPolicy retry{};
  // Per-plan-shape circuit breaker (service/breaker.h); trip_threshold = 0
  // disables.
  BreakerOptions breaker{};
  // Load-shedding watermark for the admission queue: 0 = 3/4 of
  // queue_capacity; >= queue_capacity disables shedding.
  size_t shed_watermark = 0;
  // Backoff hint attached to shed / queue-full / draining rejections.
  uint64_t shed_retry_after_ms = 25;
};

class QueryService {
 public:
  // `base` supplies the public execution knobs every session inherits
  // (sort policy, elision, optimize, rng root);
  // its per-query fields (stats, sinks, token, pool) are ignored — those
  // come from each query's SessionOptions.
  explicit QueryService(core::ExecContext base, ServiceOptions options = {});
  ~QueryService();  // Close(): drains queued queries, joins every session

  // Validating factory: fails with kInvalidArgument (naming the offending
  // token) when OBLIVDB_FAULT_SPEC is set but malformed, instead of
  // starting a service the operator believes is running under injected
  // faults when it is not.  The plain constructor skips the check (tests
  // configure the injector directly).
  static StatusOr<std::unique_ptr<QueryService>> Create(
      core::ExecContext base, ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Enqueues a query.  Immediate kResourceExhausted (with queue depth and
  // a retry_after_ms hint) when the admission queue is full or sheds the
  // arrival; kUnavailable when the service is draining/closed or the
  // shape's circuit is open — the caller's backpressure signals.
  // Otherwise the PendingQuery resolves exactly once with the response or
  // with kCancelled / kDeadlineExceeded / any Status the fallible
  // execution surfaces.
  StatusOr<std::shared_ptr<PendingQuery>> Submit(core::PlanPtr plan,
                                                 SessionOptions options = {});

  // Submit + Wait.
  StatusOr<QueryResponse> Run(core::PlanPtr plan, SessionOptions options = {});

  // The ExecContext a query submitted with `options` executes under,
  // modulo the session-slot pool (all slots have the worker budget this
  // returns, so the published context is execution-equivalent).  Solo
  // reference runs for the byte-identity tests use exactly this.
  core::ExecContext MakeSessionContext(const SessionOptions& options) const;

  // Per-session worker-thread budget: max(1, base workers / sessions).
  unsigned session_workers() const { return session_workers_; }
  unsigned sessions() const { return static_cast<unsigned>(slots_.size()); }

  // Stops admission and blocks until queued queries resolve and every
  // session worker exits.  Idempotent.
  void Close();

  // Graceful shutdown with a budget.  Stops admission immediately (Submit
  // returns kUnavailable), then waits up to `deadline_seconds` for queued
  // and in-flight work to finish.  Work still running at the deadline is
  // cancelled at its next oblivious checkpoint via the service's own
  // drain token (the client's CancelToken is never touched); work still
  // queued is flushed as kUnavailable without executing.  Ends with
  // Close().  Idempotent with Close: a second Drain/Close is a no-op
  // reporting zeros.
  struct DrainReport {
    uint64_t completed = 0;  // resolved ok during the drain window
    uint64_t failed = 0;     // resolved with their own execution error
    uint64_t cancelled = 0;  // in flight at the deadline, drain-cancelled
    uint64_t flushed = 0;    // queued at the deadline, resolved unrun
    bool deadline_hit = false;
  };
  DrainReport Drain(double deadline_seconds);

  struct Counters {
    uint64_t submitted = 0;
    uint64_t completed = 0;          // resolved with an ok response
    uint64_t failed = 0;             // resolved with a non-ok Status
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_deadline = 0;  // expired while waiting for admission
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
    uint64_t batched_queries = 0;  // always 0; read only by the benchmark
    // Resilience-layer counters.
    uint64_t retries = 0;          // re-execution attempts after a failure
    uint64_t retry_successes = 0;  // queries rescued by a later attempt
    uint64_t worker_crashes = 0;   // worker_crash faults absorbed
    uint64_t crash_requeues = 0;   // queries requeued after their worker died
    uint64_t shed = 0;             // watermark sheds (admission queue)
    uint64_t breaker_rejected = 0; // Submit-time open-circuit rejections
  };
  Counters counters() const;

  const PlanCache& plan_cache() const { return plan_cache_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  // Session rng streams live at kSessionSeedStreamBase + rng_stream, above
  // the retry band that starts at ExecContext::kRetrySeedStreamBase.
  // Retry attempts re-derive *within* a session seed on that band.
  static constexpr uint64_t kSessionSeedStreamBase = 4096;

 private:
  void SessionLoop(unsigned slot);
  StatusOr<QueryResponse> ExecuteQuery(const PendingQuery& query,
                                       ThreadPool* slot_pool);
  // The worker_crash containment path: requeues the query (at most once),
  // retires this worker's thread handle, respawns the slot.
  void CrashWorker(unsigned slot, std::shared_ptr<PendingQuery> query);
  // Outcome bookkeeping shared by SessionLoop's resolution paths.
  void ReportOutcome(const PendingQuery& query, const Status& status);

  core::ExecContext base_;
  ServiceOptions options_;
  unsigned session_workers_ = 1;
  AdmissionQueue queue_;
  PlanCache plan_cache_;
  CircuitBreaker breaker_;

  // Traced (exclusive) queries hold this uniquely; untraced queries hold
  // it shared — the guard that keeps the process-global trace state
  // single-writer while letting untraced work overlap.
  std::shared_mutex exec_mu_;

  std::vector<std::unique_ptr<ThreadPool>> slot_pools_;
  // slots_/retired_/accepting_respawns_ are guarded by slots_mu_: a
  // crashing worker swaps its own handle into retired_ and installs a
  // replacement; Close() flips accepting_respawns_ off, moves every handle
  // out under the lock, and joins them outside it.
  std::mutex slots_mu_;
  std::vector<std::thread> slots_;
  std::vector<std::thread> retired_;
  bool accepting_respawns_ = true;

  bool closed_ = false;
  std::mutex close_mu_;

  // Drain state: draining_ stops admission; drain_token_ rides every
  // service execution as the secondary cancel token and fires only when a
  // drain deadline lapses.
  std::atomic<bool> draining_{false};
  CancelToken drain_token_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> plan_cache_misses_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retry_successes_{0};
  std::atomic<uint64_t> worker_crashes_{0};
  std::atomic<uint64_t> crash_requeues_{0};
  std::atomic<uint64_t> breaker_rejected_{0};
  std::atomic<uint64_t> drain_cancelled_{0};
};

}  // namespace oblivdb::service

#endif  // OBLIVDB_SERVICE_QUERY_SERVICE_H_
