// Per-plan-shape circuit breaker for the query service.
//
// Failure in an oblivious engine clusters by *shape*, not by client: a plan
// signature that trips the EPC ceiling, lands on a poisoned table, or keeps
// hitting an injected fault will fail every time it runs, and re-admitting
// it burns a session slot for the full oblivious O(n log n) cost before the
// failure surfaces.  The breaker keys its state machine on
// PlanShapeSignature — the same public normalization key the plan cache
// uses — so one misbehaving shape is quarantined without touching the
// goodput of every other shape in flight.
//
// Classic three-state machine, but with *arrival-counted* cooldown instead
// of wall-clock timers (the engine has no randomness or clocks in control
// decisions; chaos replays must be deterministic):
//
//   Closed    everything admits; `trip_threshold` *consecutive* execution
//             failures (successes reset the streak) → Open.
//   Open      the next `cooldown_rejects` arrivals for the shape are
//             rejected up front with kUnavailable + a retry_after_ms hint;
//             then → HalfOpen.
//   HalfOpen  exactly one arrival is admitted as the probe (concurrent
//             arrivals keep being rejected while it runs).  Probe success
//             → Closed (streak cleared, a recovery); probe failure →
//             Open again for another cooldown window.
//
// Only execution-class failures count toward tripping — the transient
// environmental set (kUnavailable / kIntegrityViolation /
// kResourceExhausted).  kCancelled and kDeadlineExceeded say the *client*
// gave up, not that the shape is sick, and never move the machine.

#ifndef OBLIVDB_SERVICE_BREAKER_H_
#define OBLIVDB_SERVICE_BREAKER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace oblivdb::service {

struct BreakerOptions {
  // Consecutive execution failures of one shape before its circuit opens.
  // 0 disables the breaker entirely (every Admit passes).
  uint32_t trip_threshold = 5;
  // Arrivals rejected while Open before the shape goes HalfOpen.
  uint32_t cooldown_rejects = 8;
  // Client backoff hint attached to Open/HalfOpen rejections.
  uint64_t retry_after_ms = 50;
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerOptions& options = {})
      : options_(options) {}

  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  struct Stats {
    uint64_t trips = 0;       // Closed->Open and HalfOpen->Open transitions
    uint64_t rejects = 0;     // arrivals turned away by an open circuit
    uint64_t probes = 0;      // HalfOpen arrivals admitted as the probe
    uint64_t recoveries = 0;  // probes that closed the circuit
  };

  // Gate an arriving query of this shape.  OkStatus() = admitted (run it,
  // then report the outcome via OnSuccess/OnFailure); kUnavailable with a
  // retry_after_ms hint = rejected by an open circuit.
  Status Admit(const std::string& signature);

  // Outcome of an admitted execution.  OnFailure only for execution-class
  // failures (RetryPolicy::IsRetryable after the retry budget is spent);
  // cancellations and deadline expiries report nothing.
  void OnSuccess(const std::string& signature);
  void OnFailure(const std::string& signature);

  // An admitted query that never executed (cancelled / deadline-expired /
  // shed / drain-flushed before a worker ran it): releases a half-open
  // probe slot without moving the state machine — otherwise an abandoned
  // probe would wedge its shape in HalfOpen forever.
  void OnAbandoned(const std::string& signature);

  State StateOf(const std::string& signature) const;
  Stats stats() const;

 private:
  struct ShapeState {
    State state = State::kClosed;
    uint32_t consecutive_failures = 0;
    uint32_t open_rejects_left = 0;
    bool probe_in_flight = false;
  };

  BreakerOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, ShapeState> shapes_;
  Stats stats_;
};

}  // namespace oblivdb::service

#endif  // OBLIVDB_SERVICE_BREAKER_H_
