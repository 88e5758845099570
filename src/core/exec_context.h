// ExecContext: the one execution-context object shared by every relational
// operator and by the plan Executor (core/plan.h).
//
// Before this header existed, each operator hand-threaded its own
// `sort_policy` default and only ObliviousJoin could report stats.  Now a
// single context carries the public configuration of a query execution:
//
//   * sort_policy  — which implementation runs every bitonic sort in every
//                    operator (obliv/sort_kernel.h): the blocked kernel,
//                    or the reference network as a test oracle;
//   * pool         — the worker pool every sort and run merge fans out on
//                    when it is wider than one worker (routed down
//                    through obliv::SortRange; width 1 = sequential);
//                    nullptr = the process-wide ThreadPool::Global();
//   * stats        — per-call out-parameter: the most recent operator run
//                    under this context writes its JoinStats here;
//   * stats_sink   — streaming telemetry: *every* operator (join, distinct,
//                    semi/anti-join, aggregate, union, select) reports its
//                    per-phase counters here as it finishes;
//   * trace_sink   — when set, Executor::Execute installs it for the whole
//                    plan run (memtrace::TraceScope), so a query's complete
//                    public-memory trace lands in one sink;
//   * rng_seed     — deterministic seed for randomized components.  The
//                    core pipeline is deterministic, so nothing consumes
//                    it yet; it is reserved for the probabilistic
//                    distribution / encrypted-array paths (ROADMAP, e.g.
//                    ObliviousDistributeProbabilistic's prp_key) so that
//                    plans stay reproducible once one lands.
//
// Everything in the context is *public* configuration in the paper's model
// (§3.1): none of it depends on table contents, so carrying it around — or
// logging it — leaks nothing.

#ifndef OBLIVDB_CORE_EXEC_CONTEXT_H_
#define OBLIVDB_CORE_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/stats.h"
#include "memtrace/trace.h"
#include "obliv/sort_kernel.h"

namespace oblivdb::core {

// Receiver for per-operator telemetry.  `op` names the operator ("join",
// "distinct", "semijoin", "antijoin", "aggregate", "select", "union",
// "scan"); `stats` carries its phase counters (core/stats.h).
class StatsSink {
 public:
  virtual ~StatsSink() = default;
  virtual void OnOperatorStats(std::string_view op, const JoinStats& stats) = 0;
};

// Stores every report in order — the plan tests and the examples use it to
// show per-operator work for a whole query.
class CollectingStatsSink : public StatsSink {
 public:
  struct Report {
    std::string op;
    JoinStats stats;
  };

  void OnOperatorStats(std::string_view op, const JoinStats& stats) override {
    reports_.push_back(Report{std::string(op), stats});
  }

  const std::vector<Report>& reports() const { return reports_; }

  uint64_t TotalComparisons() const {
    uint64_t total = 0;
    for (const Report& r : reports_) total += r.stats.TotalComparisons();
    return total;
  }

 private:
  std::vector<Report> reports_;
};

struct ExecContext {
  // The library-wide sort tier: the blocked kernel.  The reference network
  // (obliv::SortPolicy::kReference) is selected only by tests, as the
  // oracle the blocked kernel is checked against.
  static constexpr obliv::SortPolicy DefaultSortPolicy() {
    return obliv::SortPolicy::kBlocked;
  }

  // The process-wide default for `sort_elision`: OBLIVDB_SORT_ELISION set
  // to "off"/"0"/"false" disables it, "on"/"1"/"true" enables it, anything
  // else (including unset) leaves the compiled-in default of *on*.  Read
  // once and cached; CI uses it to run the whole suite with elision pinned
  // off (bench/smoke.sh).
  static bool DefaultSortElision();

  // The process-wide default for `optimize`: OBLIVDB_OPTIMIZE set to
  // "off"/"0"/"false" disables the plan rewrite pass (core/optimizer.h),
  // anything else (including unset) leaves the compiled-in default of
  // *on*.  Read once and cached; CI uses it to run the whole suite with
  // the optimizer pinned off (bench/smoke.sh).
  static bool DefaultOptimize();

  // The process-wide default for `deadline_seconds`: OBLIVDB_DEADLINE_MS
  // set to a positive number of milliseconds bounds every fallible entry
  // point's wall time; unset or <= 0 means no deadline.  Read once and
  // cached, like the other env defaults.
  static double DefaultDeadlineSeconds();

  // Stand-in kept for oblivbench's env header, which still records a shard
  // count: execution is never sharded, so it is always 1.  It goes with
  // the benchmark change that retires the shard.* metrics (ROADMAP item 6),
  // like the ArtifactCache stand-in (obliv/artifact_cache.h).
  static constexpr uint32_t DefaultShards() { return 1; }

  obliv::SortPolicy sort_policy = DefaultSortPolicy();

  // Order-aware sort elision (core/order.h): when true, operators may skip
  // or shrink an entry sort whose required order is covered by the caller's
  // OrderHints (and the Executor derives those hints from plan shape).
  // Every elision decision is a function of the hints, the flag, and the
  // public sizes — never of row contents — so traces stay input-
  // independent for either flag value; outputs are byte-identical across
  // the flag (tests/plan_test.cc pins both).  Direct operator calls that
  // pass no hints never elide, whatever this flag says.
  bool sort_elision = DefaultSortElision();

  // Cost-based plan optimization (core/optimizer.h): when true, the
  // Executor rewrites the plan tree before running it — multiway join
  // reordering, key-only select pushdown, redundant-distinct removal.
  // Every rewrite decision is a pure function of (plan shape, public
  // sizes, public flags) — never of row contents — and every rewritten
  // plan's root Table output is byte-identical to the original's
  // (tests/optimizer_test.cc pins both across all policy/elision
  // settings).
  bool optimize = DefaultOptimize();

  // Worker pool for the operators' parallel phases: every kBlocked sort
  // and every run merge of at least obliv::internal::kParallelCutoff
  // elements fans out on it when it has more than one worker (a width-1
  // pool runs the sequential kernels).  Forwarded to obliv::SortRange by
  // every operator.  nullptr means ThreadPool::Global(), whose size
  // honours the OBLIVDB_THREADS environment override.  Output and trace
  // are the same at every width.
  ThreadPool* pool = nullptr;

  // Out-parameter: filled by the most recent operator executed under this
  // context (for ObliviousJoin this is the familiar Table 3 breakdown).
  JoinStats* stats = nullptr;

  // Streaming per-operator telemetry; see StatsSink.
  StatsSink* stats_sink = nullptr;

  // Trace sink the plan Executor installs around a whole query run.
  // Operators themselves never touch this — they emit through whatever
  // sink is installed (memtrace::GetTraceSink()).
  memtrace::TraceSink* trace_sink = nullptr;

  // Cooperative cancellation (common/cancel.h).  Non-owning; honoured only
  // by the fallible entry points (TryObliviousJoin, Executor::TryRun,
  // QueryInterpreter::TryRun), which install the scope the pipeline's
  // Checkpoint() polls read.  Polls fire only at public-size-determined
  // phase boundaries, so cancellation cannot leak row contents: a cancelled
  // run's trace is a byte-identical prefix of the uncancelled run's.
  const CancelToken* cancel_token = nullptr;

  // Second cancellation token, observed alongside cancel_token at the same
  // public checkpoints — either firing cancels the run.  The query
  // service's graceful drain (service/query_service.h Drain) owns this one:
  // the caller keeps their token, the service keeps its drain token, and
  // neither can mask the other.  Non-owning, like cancel_token.
  const CancelToken* secondary_cancel_token = nullptr;

  // Wall-clock budget in seconds for a fallible entry point, anchored when
  // the Try* call installs its scope; <= 0 = none.  Enforced at the same
  // public checkpoints as cancellation (kDeadlineExceeded).
  double deadline_seconds = DefaultDeadlineSeconds();

  // Observer of checkpoint polls; tests use it to pin the checkpoint
  // sequence as a function of public sizes (and to cancel at an exact
  // checkpoint).  Like the token, only the Try* entry points install it.
  CheckpointSink* checkpoint_sink = nullptr;

  // Deterministic seed; public configuration.  Retried attempts and
  // service sessions derive their streams from it (ForAttempt, the query
  // service); reserved for the probabilistic paths (encrypted arrays).
  uint64_t rng_seed = 0x0b11da7aba5e5eedULL;

  ThreadPool& pool_or_global() const {
    return pool != nullptr ? *pool : ThreadPool::Global();
  }

  // Deterministic per-stream seed derivation (splitmix64 of seed ^ stream),
  // so concurrent or repeated runs draw from independent, reproducible
  // streams.
  static uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

  // The context a *retry* of a failed execution runs under: identical
  // public knobs, but with the rng stream re-derived per attempt so a
  // retried run never replays the exact pseudorandom draws of the attempt
  // that died mid-flight.  Attempt 0 is the original execution (identity —
  // a solo reference run and a first service attempt share the seed
  // exactly).  Because outputs and oblivious traces are functions of the
  // public shape alone — the seed steers only PRP contents, never an
  // access position — a retried run stays byte-identical to a fresh
  // fault-free run of the same plan.
  ExecContext ForAttempt(uint32_t attempt) const {
    ExecContext c = *this;
    if (attempt > 0) {
      c.rng_seed = DeriveSeed(rng_seed, kRetrySeedStreamBase + attempt);
    }
    return c;
  }

  // Retry streams start at 1024, below the query service's session
  // streams (QueryService::kSessionSeedStreamBase = 4096).
  static constexpr uint64_t kRetrySeedStreamBase = 1024;

  // Operators call this once on completion; also copies into `stats` so
  // direct (plan-free) callers keep the old out-parameter behaviour.
  void ReportStats(std::string_view op, const JoinStats& s) const {
    if (stats != nullptr) *stats = s;
    if (stats_sink != nullptr) stats_sink->OnOperatorStats(op, s);
  }
};

// Runs `fn` as a fallible entry point under `ctx`: installs the context's
// cancellation scope (token + deadline + checkpoint sink) and a recovery
// scope, catches the internal fault unwind, and returns the result — or the
// fault — as a StatusOr.  Every Try* API (TryObliviousJoin,
// Executor::TryRun, QueryInterpreter::TryRun) is this
// wrapper around its abort-on-fault sibling; the wrapped computation is
// unchanged, so traces and outputs stay byte-identical to the legacy path.
template <typename Fn>
auto RunRecoverable(const ExecContext& ctx, Fn&& fn)
    -> StatusOr<decltype(fn())> {
  using Result = decltype(fn());
  RecoveryScope recovery;
  CancelScope cancel(ctx.cancel_token, ctx.secondary_cancel_token,
                     ctx.deadline_seconds, ctx.checkpoint_sink);
  try {
    return StatusOr<Result>(fn());
  } catch (const internal::StatusError& e) {
    return StatusOr<Result>(e.status);
  }
}

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_EXEC_CONTEXT_H_
