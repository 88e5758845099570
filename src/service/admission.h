// Admission control for the concurrent query service: a bounded FIFO of
// pending queries.
//
// The queue is the service's only shared front-door state.  Workers pop
// one query at a time, in arrival order.  Admission decisions read only
// *public* state — the queue depth and each query's client-supplied
// priority — never row contents, so the dispatch order is itself a
// function of public state (§3.1's composition argument extends across
// queries).
//
// Rejection is Status-typed, never silent: a full queue refuses with
// kResourceExhausted (current depth + a retry_after_ms backoff hint) at
// Submit time; a query whose deadline lapsed while it waited is resolved
// kDeadlineExceeded by the worker that pops it.
//
// Overload protection (load shedding): above `shed_watermark` queued
// entries the queue is under pressure, and admission turns priority-aware.
// An arriving query that outranks the lowest-priority waiter displaces it —
// the victim resolves kResourceExhausted with depth + retry_after_ms and
// the arrival takes its slot; an arrival that doesn't outrank anyone is
// itself refused with the same hint.  Below the watermark priority is
// ignored entirely (plain FIFO — no starvation while there is headroom).
// Priorities are client-supplied public metadata (SessionOptions::priority),
// so shed decisions remain functions of public state.
//
// Drain support: Pop/Finish bracket a query's execution so the queue can
// count in-flight work; WaitIdleFor blocks until both the queue and the
// in-flight set are empty (or the deadline lapses), and DrainPending
// flushes still-queued entries back to the caller for disposition.
// RequeueFront re-admits a query popped by a worker that died under it,
// ahead of everything queued (it already waited once).

#ifndef OBLIVDB_SERVICE_ADMISSION_H_
#define OBLIVDB_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/exec_context.h"
#include "core/plan.h"
#include "memtrace/trace.h"

namespace oblivdb::service {

// Per-query session configuration, supplied at Submit.  Everything here is
// public (sinks, knobs, seeds) — the same trust story as ExecContext.
struct SessionOptions {
  // Per-query telemetry sink; reports arrive only from this query's own
  // execution (never another session's — isolation is pinned by
  // tests/service_test.cc).
  core::StatsSink* stats_sink = nullptr;

  // Full public-memory trace of this query.  Setting it marks the query
  // *exclusive*: it runs alone (no concurrent queries), so the
  // process-global trace instrumentation observes exactly what a solo
  // Executor run would emit — byte-identical traces are the contract.
  memtrace::TraceSink* trace_sink = nullptr;

  // Cooperative cancellation for this query only.  Checked before
  // execution starts (deterministic kCancelled for a pre-cancelled token)
  // and polled at the pipeline's public checkpoints while running.
  const CancelToken* cancel_token = nullptr;

  // Wall-clock budget covering admission wait *plus* execution; <= 0 =
  // none.  A query still queued when it expires resolves
  // kDeadlineExceeded without executing.
  double deadline_seconds = 0.0;

  // Deterministic rng stream for this query: the service derives the
  // query's seed as DeriveSeed(base.rng_seed, kSessionSeedStreamBase +
  // rng_stream), so same (base seed, stream) -> same seed, whatever
  // session slot or admission order the query lands on.
  uint64_t rng_stream = 0;

  // Shedding rank under queue pressure; higher outranks lower.  Public
  // client-supplied metadata.  Ignored below the shed watermark.
  int32_t priority = 0;
};

// What a resolved query hands back: the Executor's outputs plus the
// service-level provenance flags the benches and tests key on.
struct QueryResponse {
  core::PlanResult result;
  std::vector<core::PlanNodeStats> node_stats;
  core::PlanPtr executed_plan;
  // The service plan cache served this shape (identity hit: the cached
  // optimized tree ran; shape hit: the cached revealed-size feedback
  // steered the rewrite).  False on a miss or with the cache disabled.
  bool plan_cache_hit = false;
};

// A submitted query: the service resolves it exactly once; callers block
// in Wait().  Created only by QueryService::Submit (via the queue).
class PendingQuery {
 public:
  PendingQuery(core::PlanPtr plan, std::string signature,
               SessionOptions options);

  // Blocks until the service resolves this query; repeat calls return the
  // same result.
  const StatusOr<QueryResponse>& Wait();

  bool done() const;

  const core::PlanPtr& plan() const { return plan_; }
  const std::string& signature() const { return signature_; }
  const SessionOptions& options() const { return options_; }
  // Trace-sink queries run alone; see SessionOptions::trace_sink.
  bool exclusive() const { return options_.trace_sink != nullptr; }

  // Absolute deadline, fixed at construction (= submission).  Unset when
  // options.deadline_seconds <= 0.
  const std::optional<std::chrono::steady_clock::time_point>& deadline()
      const {
    return deadline_;
  }

  // Resolves the query (exactly once) and wakes every waiter.
  void Resolve(StatusOr<QueryResponse> response);

  // Worker-crash containment bookkeeping: how many times this query has
  // been requeued because the session worker running it died.  The service
  // requeues at most once — a query that kills two workers resolves
  // kUnavailable instead of cycling forever.
  uint32_t crash_requeues() const { return crash_requeues_; }
  void RecordCrashRequeue() { ++crash_requeues_; }

 private:
  const core::PlanPtr plan_;
  const std::string signature_;
  const SessionOptions options_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  // Touched only by the owning worker / the queue lock, never concurrently.
  uint32_t crash_requeues_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<StatusOr<QueryResponse>> response_;
};

struct AdmissionLimits {
  // Maximum queries waiting (not yet popped); TryEnqueue refuses beyond it.
  size_t queue_capacity = 64;
  // Queue-pressure point where priority-aware shedding kicks in; 0 =
  // disabled (only the full-queue rejection applies).  QueryService
  // defaults it to 3/4 of queue_capacity (service/query_service.h).
  size_t shed_watermark = 0;
  // Client backoff hint attached to shed / queue-full rejections.
  uint64_t shed_retry_after_ms = 25;
};

// The bounded FIFO.  Thread-safe; many producers (Submit), many consumers
// (session workers).
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionLimits limits) : limits_(limits) {}

  // kOk and owns a queue slot; kUnavailable when closed (shutdown/drain —
  // safe to retry against a restarted service); kResourceExhausted with
  // current depth + retry_after_ms hint when full or shed under pressure.
  // May resolve a lower-priority waiter (shed victim) before returning kOk.
  // Never blocks.
  Status TryEnqueue(std::shared_ptr<PendingQuery> query);

  // Blocks until a query is available, then removes and returns the head,
  // counting it in flight until the matching Finish.  Returns nullptr only
  // when the queue is closed *and* drained — the consumer's shutdown
  // signal.
  std::shared_ptr<PendingQuery> Pop();

  // Ends the in-flight window a Pop opened.  A crashing worker must still
  // call it (crash containment requeues first, then finishes).
  void Finish();

  // Re-admits a query at the *front* of the queue (used for worker-crash
  // containment, so a requeued query doesn't pay the queue tail twice).
  // Works even when closed — the query was already admitted once.  Does
  // not count against queue_capacity: displacing admitted work would turn
  // a worker crash into a client-visible shed.
  void RequeueFront(std::shared_ptr<PendingQuery> query);

  // Stops accepting; queued queries still drain through Pop.
  void Close();

  // Blocks until no queries are queued *or* in flight, or `deadline`
  // passes; returns whether idle was reached.
  bool WaitIdleFor(std::chrono::steady_clock::time_point deadline);

  // Removes and returns every still-queued query (resolution is the
  // caller's job — the drain path resolves them kUnavailable).
  std::vector<std::shared_ptr<PendingQuery>> DrainPending();

  size_t size() const;
  size_t in_flight() const;
  // Queries displaced or refused by the pressure watermark (not plain
  // queue-full rejections).
  uint64_t shed_count() const;

  // Invoked (outside the queue lock, before the victim resolves) for every
  // query the watermark displaces — the service's chance to release
  // breaker probe slots and count sheds.  Set before any worker consumes;
  // not synchronized against in-flight TryEnqueue calls.
  void set_shed_callback(std::function<void(const PendingQuery&)> cb) {
    shed_callback_ = std::move(cb);
  }

 private:
  Status PressureStatus(const char* reason, size_t depth) const;

  const AdmissionLimits limits_;
  std::function<void(const PendingQuery&)> shed_callback_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::shared_ptr<PendingQuery>> queue_;
  size_t in_flight_ = 0;
  uint64_t shed_count_ = 0;
  bool closed_ = false;
};

}  // namespace oblivdb::service

#endif  // OBLIVDB_SERVICE_ADMISSION_H_
