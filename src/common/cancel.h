// Oblivious-safe cooperative cancellation and deadlines.
//
// The hard constraint: a data-dependent early exit is a side channel, so
// cancellation may only be observed at points whose position in the
// execution is a function of *public* sizes.  The pipeline therefore polls
// Checkpoint(phase) only at phase boundaries the adversary can predict
// from (n1, n2, m, flags) alone:
//
//   "plan_node"      — Executor::ExecNode entry, once per plan node;
//   "join_phase"     — ObliviousJoin's four phase starts;
//   "sort"           — obliv::SortRange entry, once per operator sort;
//   "sort_pass"      — each cross-block merge pass of the blocked kernel,
//                      and each merge of at least internal::kParallelCutoff
//                      elements that an untraced fan-out runs on the
//                      calling thread (obliv/parallel_sort.h).
//
// Between checkpoints the pipeline is non-interruptible, so a cancelled run
// performs a byte-identical access-trace *prefix* of the uncancelled run,
// truncated at a public boundary (tests/robustness_test.cc pins this).
//
// Mechanics: a fallible entry point installs a thread-local CancelScope
// carrying the token, the absolute deadline, and an optional CheckpointSink
// observer.  Checkpoint() is a no-op (one thread-local load) when no scope
// is installed — legacy callers and pool workers pay nothing.  On a fired
// token or passed deadline it raises kCancelled / kDeadlineExceeded through
// RaiseOrAbort, which the entry point catches into a Status.  ThreadPool
// helpers suspend the scope while running queued tasks (pool tasks must not
// throw), so the driver thread can safely help mid-pipeline.

#ifndef OBLIVDB_COMMON_CANCEL_H_
#define OBLIVDB_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace oblivdb {

// One-shot cancellation flag, settable from any thread.  Non-owning users
// (ExecContext) hold a const pointer; cancelling is the owner's business.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

// Observer of checkpoint polls.  `phase` is one of the static strings
// listed above; `seq` counts polls since the scope was installed (1-based).
// Tests use it to pin the checkpoint sequence as a function of public
// sizes; it is invoked *before* the cancellation test so a cancelled run
// still records the checkpoint it died at.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void OnCheckpoint(const char* phase, uint64_t seq) = 0;
};

namespace internal {

struct CancelState {
  const CancelToken* token = nullptr;
  // Second observed token: the query service's drain/shutdown token rides
  // here alongside the caller's own (either firing cancels; both are
  // polled at the same public checkpoints, so the two-token form changes
  // nothing about where a run may stop).
  const CancelToken* secondary_token = nullptr;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  CheckpointSink* sink = nullptr;
  uint64_t seq = 0;
};

inline CancelState*& ActiveCancelState() {
  thread_local CancelState* active = nullptr;
  return active;
}

// Raises kCancelled / kDeadlineExceeded via RaiseOrAbort (out of line: the
// cold path of Checkpoint).
[[noreturn]] void CheckpointFailed(const char* phase, bool deadline_hit);

}  // namespace internal

// Installs a cancellation scope on the calling thread for its lifetime.
// Any of the three facilities may be absent: token == nullptr (no external
// cancellation), deadline_seconds <= 0 (no deadline), sink == nullptr (no
// observer).  When all are absent, nothing is installed and Checkpoint
// stays on its no-op path.  The deadline is anchored at construction:
// steady_clock::now() + deadline_seconds.  Scopes nest; the inner scope
// wins until destroyed.
class CancelScope {
 public:
  CancelScope(const CancelToken* token, double deadline_seconds,
              CheckpointSink* sink)
      : CancelScope(token, nullptr, deadline_seconds, sink) {}
  // Two-token form: `secondary_token` is the service-owned drain token
  // (core/exec_context.h secondary_cancel_token); either token firing
  // cancels the run.
  CancelScope(const CancelToken* token, const CancelToken* secondary_token,
              double deadline_seconds, CheckpointSink* sink);
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  internal::CancelState state_;
  internal::CancelState* previous_ = nullptr;
  bool installed_ = false;
};

// Temporarily clears both the cancellation scope and the recovery scope on
// the calling thread.  ThreadPool wraps queued-task execution in one so a
// driver thread helping mid-pipeline (TaskGroup::Wait) cannot poll — or
// throw through — a task that other threads run bare.
class SuspendResilienceScopes {
 public:
  SuspendResilienceScopes()
      : saved_cancel_(internal::ActiveCancelState()),
        saved_recovery_depth_(internal::recovery_depth) {
    internal::ActiveCancelState() = nullptr;
    internal::recovery_depth = 0;
  }
  ~SuspendResilienceScopes() {
    internal::ActiveCancelState() = saved_cancel_;
    internal::recovery_depth = saved_recovery_depth_;
  }

  SuspendResilienceScopes(const SuspendResilienceScopes&) = delete;
  SuspendResilienceScopes& operator=(const SuspendResilienceScopes&) = delete;

 private:
  internal::CancelState* saved_cancel_;
  int saved_recovery_depth_;
};

// Cancellation poll.  Call sites must sit at public-size-determined phase
// boundaries only (see the list above) — never inside data-dependent
// control flow.  `phase` must be a string with static storage duration.
inline void Checkpoint(const char* phase) {
  internal::CancelState* s = internal::ActiveCancelState();
  if (s == nullptr) return;
  ++s->seq;
  if (s->sink != nullptr) s->sink->OnCheckpoint(phase, s->seq);
  if ((s->token != nullptr && s->token->cancelled()) ||
      (s->secondary_token != nullptr && s->secondary_token->cancelled())) {
    internal::CheckpointFailed(phase, /*deadline_hit=*/false);
  }
  if (s->has_deadline &&
      std::chrono::steady_clock::now() >= s->deadline) {
    internal::CheckpointFailed(phase, /*deadline_hit=*/true);
  }
}

}  // namespace oblivdb

#endif  // OBLIVDB_COMMON_CANCEL_H_
