#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/backoff.h"
#include "common/check.h"
#include "common/fault.h"
#include "core/optimizer.h"

namespace oblivdb::service {

namespace {

double RemainingSeconds(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  if (!deadline.has_value()) return 0.0;  // none
  return std::chrono::duration<double>(*deadline -
                                       std::chrono::steady_clock::now())
      .count();
}

AdmissionLimits MakeLimits(const ServiceOptions& options) {
  AdmissionLimits limits;
  limits.queue_capacity = options.queue_capacity;
  limits.shed_watermark =
      options.shed_watermark != 0
          ? options.shed_watermark
          : std::max<size_t>(1, options.queue_capacity * 3 / 4);
  limits.shed_retry_after_ms = options.shed_retry_after_ms;
  return limits;
}

}  // namespace

unsigned ServiceOptions::DefaultSessions() {
  static const unsigned sessions = [] {
    const char* env = std::getenv("OBLIVDB_SERVICE_SESSIONS");
    if (env == nullptr) return 2u;
    unsigned parsed = 0;
    for (const char* p = env; *p != '\0'; ++p) {
      if (*p < '0' || *p > '9') return 2u;  // unrecognized: default
      parsed = parsed * 10 + static_cast<unsigned>(*p - '0');
      if (parsed > 256) return 256u;
    }
    return parsed == 0 ? 2u : parsed;
  }();
  return sessions;
}

QueryService::QueryService(core::ExecContext base, ServiceOptions options)
    : base_(base),
      options_(options),
      queue_(MakeLimits(options)),
      plan_cache_(options.plan_cache_capacity),
      breaker_(options.breaker) {
  // A shed victim was admitted past the breaker gate but never executes:
  // release any half-open probe slot it held and account the resolution.
  queue_.set_shed_callback([this](const PendingQuery& victim) {
    breaker_.OnAbandoned(victim.signature());
    failed_.fetch_add(1, std::memory_order_relaxed);
  });
  // The base context contributes only the public engine knobs; per-query
  // channels are supplied per submission.
  base_.stats = nullptr;
  base_.stats_sink = nullptr;
  base_.trace_sink = nullptr;
  base_.cancel_token = nullptr;
  base_.checkpoint_sink = nullptr;
  base_.deadline_seconds = 0.0;

  const unsigned sessions = std::max(1u, options_.sessions);
  const unsigned base_workers = base_.pool_or_global().worker_count();
  session_workers_ = std::max(1u, base_workers / sessions);

  slot_pools_.reserve(sessions);
  slots_.reserve(sessions);
  for (unsigned i = 0; i < sessions; ++i) {
    slot_pools_.push_back(std::make_unique<ThreadPool>(session_workers_));
  }
  for (unsigned i = 0; i < sessions; ++i) {
    slots_.emplace_back([this, i] { SessionLoop(i); });
  }
}

QueryService::~QueryService() { Close(); }

StatusOr<std::unique_ptr<QueryService>> QueryService::Create(
    core::ExecContext base, ServiceOptions options) {
  StatusOr<FaultSpec> spec = FaultSpec::FromEnv();
  if (!spec.ok()) {
    return Status(spec.status()).Annotate("QueryService::Create");
  }
  return std::make_unique<QueryService>(std::move(base), options);
}

void QueryService::Close() {
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    if (closed_) return;
    closed_ = true;
  }
  queue_.Close();
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    accepting_respawns_ = false;
    for (std::thread& t : slots_) {
      if (t.joinable()) to_join.push_back(std::move(t));
    }
    for (std::thread& t : retired_) {
      if (t.joinable()) to_join.push_back(std::move(t));
    }
    retired_.clear();
  }
  // Joined outside slots_mu_: a crashing worker needs that lock to retire
  // itself, and joining it while holding the lock would deadlock.
  for (std::thread& t : to_join) t.join();
  // A worker that crashed during shutdown was refused a respawn; its
  // requeued queries may have outlived every worker.  Resolve them rather
  // than leaving their clients blocked in Wait() forever.
  for (const std::shared_ptr<PendingQuery>& q : queue_.DrainPending()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    breaker_.OnAbandoned(q->signature());
    q->Resolve(Status(StatusCode::kUnavailable,
                      "service closed before this query executed"));
  }
}

QueryService::DrainReport QueryService::Drain(double deadline_seconds) {
  DrainReport report;
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    if (closed_) return report;  // nothing left to drain
  }
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    Close();  // a concurrent Drain owns the report; just make sure we block
    return report;
  }

  const uint64_t completed_before =
      completed_.load(std::memory_order_relaxed);
  const uint64_t failed_before = failed_.load(std::memory_order_relaxed);
  const uint64_t cancelled_before =
      drain_cancelled_.load(std::memory_order_relaxed);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, deadline_seconds)));
  if (!queue_.WaitIdleFor(deadline)) {
    report.deadline_hit = true;
    // Budget spent: stop in-flight work at its next oblivious checkpoint
    // (the service-owned token — clients' tokens stay untouched) and flush
    // everything still queued without running it.
    drain_token_.Cancel();
    std::vector<std::shared_ptr<PendingQuery>> pending =
        queue_.DrainPending();
    report.flushed = pending.size();
    for (const std::shared_ptr<PendingQuery>& q : pending) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      breaker_.OnAbandoned(q->signature());
      q->Resolve(Status(StatusCode::kUnavailable,
                        "service draining: query flushed before execution"));
    }
  }
  Close();  // workers exit once the queue is drained; joins them

  report.completed =
      completed_.load(std::memory_order_relaxed) - completed_before;
  report.cancelled =
      drain_cancelled_.load(std::memory_order_relaxed) - cancelled_before;
  const uint64_t failed_delta =
      failed_.load(std::memory_order_relaxed) - failed_before;
  report.failed = failed_delta - report.flushed - report.cancelled;
  return report;
}

core::ExecContext QueryService::MakeSessionContext(
    const SessionOptions& options) const {
  core::ExecContext ctx = base_;
  ctx.pool = slot_pools_.empty() ? nullptr : slot_pools_.front().get();
  ctx.stats_sink = options.stats_sink;
  ctx.trace_sink = options.trace_sink;
  ctx.cancel_token = options.cancel_token;
  ctx.deadline_seconds = options.deadline_seconds;
  ctx.rng_seed = core::ExecContext::DeriveSeed(
      base_.rng_seed, kSessionSeedStreamBase + options.rng_stream);
  return ctx;
}

StatusOr<std::shared_ptr<PendingQuery>> QueryService::Submit(
    core::PlanPtr plan, SessionOptions options) {
  if (plan == nullptr) {
    return Status(StatusCode::kInvalidArgument, "Submit: plan must not be null");
  }
  if (draining_.load(std::memory_order_acquire)) {
    return WithRetryAfter(Status(StatusCode::kUnavailable,
                                 "service draining, not accepting queries"),
                          options_.shed_retry_after_ms);
  }
  std::string signature = core::PlanShapeSignature(plan);
  const Status gate = breaker_.Admit(signature);
  if (!gate.ok()) {
    breaker_rejected_.fetch_add(1, std::memory_order_relaxed);
    return gate;
  }
  auto query =
      std::make_shared<PendingQuery>(plan, std::move(signature), options);
  const Status admitted = queue_.TryEnqueue(query);
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    }
    breaker_.OnAbandoned(query->signature());  // release any probe slot
    return admitted;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return query;
}

StatusOr<QueryResponse> QueryService::Run(core::PlanPtr plan,
                                          SessionOptions options) {
  StatusOr<std::shared_ptr<PendingQuery>> submitted =
      Submit(std::move(plan), options);
  if (!submitted.ok()) return submitted.status();
  return (*submitted)->Wait();
}

void QueryService::ReportOutcome(const PendingQuery& query,
                                 const Status& status) {
  if (status.ok()) {
    breaker_.OnSuccess(query.signature());
  } else if (RetryPolicy::IsRetryable(status)) {
    breaker_.OnFailure(query.signature());
  } else {
    // Cancellation / deadline expiry say the client gave up, not that the
    // shape is sick — release any probe slot, leave the machine alone.
    breaker_.OnAbandoned(query.signature());
  }
}

void QueryService::CrashWorker(unsigned slot,
                               std::shared_ptr<PendingQuery> query) {
  worker_crashes_.fetch_add(1, std::memory_order_relaxed);
  if (query->crash_requeues() == 0) {
    query->RecordCrashRequeue();
    crash_requeues_.fetch_add(1, std::memory_order_relaxed);
    // Requeue before closing the in-flight window so a concurrent
    // Drain/WaitIdleFor never observes an empty-and-idle queue while this
    // query is still owed an execution.
    queue_.RequeueFront(std::move(query));
  } else {
    // At most one requeue per query: a query that outlives two workers
    // stops cycling and surfaces the (retryable) failure to its client.
    failed_.fetch_add(1, std::memory_order_relaxed);
    breaker_.OnAbandoned(query->signature());
    query->Resolve(Status(StatusCode::kUnavailable,
                          "session worker crashed twice under this query"));
  }
  queue_.Finish();

  std::lock_guard<std::mutex> lock(slots_mu_);
  if (!accepting_respawns_) return;  // shutting down: no replacement
  retired_.push_back(std::move(slots_[slot]));
  slots_[slot] = std::thread([this, slot] { SessionLoop(slot); });
}

void QueryService::SessionLoop(unsigned slot) {
  ThreadPool* slot_pool = slot_pools_[slot].get();
  while (true) {
    std::shared_ptr<PendingQuery> query = queue_.Pop();
    if (query == nullptr) return;  // closed and drained

    // The worker_crash fault site: this worker dies as it picks up work.
    // Polled once per popped query — the decision is the injector's pure
    // function of its arrival counter, never of the query's contents.
    if (FaultInjector::Global().ShouldFire(FaultSite::kWorkerCrash)) {
      CrashWorker(slot, std::move(query));
      return;  // this thread's handle is retired; a replacement owns the slot
    }

    // Exclusive (traced) queries own the engine; untraced ones share it.
    std::unique_lock<std::shared_mutex> exclusive_lock;
    std::shared_lock<std::shared_mutex> shared_lock;
    if (query->exclusive()) {
      exclusive_lock = std::unique_lock<std::shared_mutex>(exec_mu_);
    } else {
      shared_lock = std::shared_lock<std::shared_mutex>(exec_mu_);
    }

    PendingQuery& q = *query;
    const SessionOptions& opts = q.options();
    if (opts.cancel_token != nullptr && opts.cancel_token->cancelled()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      breaker_.OnAbandoned(q.signature());
      q.Resolve(
          Status(StatusCode::kCancelled, "query cancelled before execution"));
    } else if (q.deadline().has_value() &&
               RemainingSeconds(q.deadline()) <= 0) {
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      failed_.fetch_add(1, std::memory_order_relaxed);
      breaker_.OnAbandoned(q.signature());
      q.Resolve(Status(StatusCode::kDeadlineExceeded,
                       "deadline expired before admission"));
    } else {
      StatusOr<QueryResponse> response = ExecuteQuery(q, slot_pool);
      if (response.ok()) {
        completed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        if (response.status().code() == StatusCode::kCancelled &&
            drain_token_.cancelled()) {
          drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ReportOutcome(q, response.ok() ? Status::Ok() : response.status());
      q.Resolve(std::move(response));
    }
    queue_.Finish();
  }
}

StatusOr<QueryResponse> QueryService::ExecuteQuery(const PendingQuery& query,
                                                   ThreadPool* slot_pool) {
  core::ExecContext ctx = MakeSessionContext(query.options());
  ctx.pool = slot_pool;
  // Every service execution also answers to the drain token; the client's
  // own token is untouched (common/cancel.h dual-token checkpointing).
  ctx.secondary_cancel_token = &drain_token_;
  if (query.deadline().has_value()) {
    const double remaining = RemainingSeconds(query.deadline());
    if (remaining <= 0) {
      return Status(StatusCode::kDeadlineExceeded,
                    "deadline expired before admission");
    }
    ctx.deadline_seconds = remaining;
  }

  // The plan cache engages only when both the service cache switch and the
  // base optimize knob are on: with the rewrite pass off there is nothing
  // to memoize (the submitted tree runs as-is) and feedback has no
  // consumer, so OBLIVDB_OPTIMIZE=off keeps its exact solo semantics.
  const bool cache_enabled = options_.plan_cache && base_.optimize;
  bool cache_hit = false;
  std::shared_ptr<const PlanCache::Entry> entry;
  core::PlanPtr to_run = query.plan();
  if (cache_enabled) {
    entry = plan_cache_.Lookup(query.signature());
    if (entry != nullptr) {
      cache_hit = true;
      plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      if (entry->original == query.plan()) {
        // Identity hit: the cached rewrite of this exact tree runs
        // directly — the whole optimizer pass is skipped.
        to_run = entry->optimized;
      } else {
        // Shape hit: the cached tree embeds another query's tables, so
        // only the revealed-size feedback transfers — it steers this
        // query's own rewrite (equivalent output, sharper ranking).
        to_run = core::OptimizePlan(query.plan(), ctx, &entry->feedback);
      }
      ctx.optimize = false;  // already optimized (or deliberately as-is)
    } else {
      plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Transparent retry applies only to queries without private telemetry
  // channels: a stats/trace sink must observe exactly one execution (a
  // sink that recorded a failed attempt plus a successful one would no
  // longer match a solo run byte-for-byte), so sink-carrying queries
  // surface transient failures directly and the client retries with a
  // fresh sink.
  const bool transparent_retry = options_.retry.enabled() &&
                                 query.options().stats_sink == nullptr &&
                                 query.options().trace_sink == nullptr;
  const uint32_t max_attempts =
      transparent_retry ? options_.retry.max_attempts : 1;

  Status last = Status::Ok();
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      // Deterministic seeded-jitter backoff: the delay is a pure function
      // of (policy, attempt, session seed) — no wall-clock randomness.
      const uint64_t delay_ms =
          BackoffDelayMs(options_.retry.backoff, attempt, ctx.rng_seed);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      if (query.deadline().has_value()) {
        const double remaining = RemainingSeconds(query.deadline());
        if (remaining <= 0) {
          return Status(StatusCode::kDeadlineExceeded,
                        "deadline expired during retry backoff; last error: " +
                            last.message());
        }
        ctx.deadline_seconds = remaining;
      }
    }

    // Attempt k re-derives the session rng stream (identity for k = 0),
    // so an injector whose decisions mix the seed sees a fresh stream —
    // while outputs and oblivious traces, being seed-independent, stay
    // byte-identical to a fault-free solo run.
    core::Executor executor(ctx.ForAttempt(attempt));
    StatusOr<core::PlanResult> result = executor.TryRun(to_run);
    if (!result.ok()) {
      last = result.status();
      if (!RetryPolicy::IsRetryable(last)) return last;
      continue;
    }
    if (attempt > 0) {
      retry_successes_.fetch_add(1, std::memory_order_relaxed);
    }

    if (cache_enabled && entry == nullptr) {
      auto fresh = std::make_shared<PlanCache::Entry>();
      fresh->original = query.plan();
      fresh->optimized = executor.executed_plan();
      fresh->feedback =
          core::CollectSizeFeedback(executor.executed_plan(),
                                    executor.node_stats());
      plan_cache_.Insert(query.signature(), std::move(fresh));
    }

    QueryResponse response;
    response.result = std::move(*result);
    response.node_stats = executor.node_stats();
    response.executed_plan = executor.executed_plan();
    response.plan_cache_hit = cache_hit;
    return response;
  }
  return last;
}

QueryService::Counters QueryService::counters() const {
  Counters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  c.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  c.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  c.plan_cache_misses = plan_cache_misses_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  c.worker_crashes = worker_crashes_.load(std::memory_order_relaxed);
  c.crash_requeues = crash_requeues_.load(std::memory_order_relaxed);
  c.shed = queue_.shed_count();
  c.breaker_rejected = breaker_rejected_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace oblivdb::service
