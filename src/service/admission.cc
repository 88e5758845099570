#include "service/admission.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "service/retry.h"

namespace oblivdb::service {

PendingQuery::PendingQuery(core::PlanPtr plan, std::string signature,
                           SessionOptions options)
    : plan_(std::move(plan)),
      signature_(std::move(signature)),
      options_(options) {
  if (options_.deadline_seconds > 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options_.deadline_seconds));
  }
}

const StatusOr<QueryResponse>& PendingQuery::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return response_.has_value(); });
  return *response_;
}

bool PendingQuery::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return response_.has_value();
}

void PendingQuery::Resolve(StatusOr<QueryResponse> response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    OBLIVDB_CHECK(!response_.has_value());  // resolve-once contract
    response_.emplace(std::move(response));
  }
  cv_.notify_all();
}

Status AdmissionQueue::PressureStatus(const char* reason,
                                      size_t depth) const {
  return WithRetryAfter(
      Status(StatusCode::kResourceExhausted,
             std::string(reason) + ": " + std::to_string(depth) +
                 " queries waiting"),
      limits_.shed_retry_after_ms);
}

Status AdmissionQueue::TryEnqueue(std::shared_ptr<PendingQuery> query) {
  OBLIVDB_CHECK(query != nullptr);
  std::shared_ptr<PendingQuery> victim;
  size_t victim_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return Status(StatusCode::kUnavailable,
                    "admission queue closed: service draining or shut down");
    }
    const size_t depth = queue_.size();
    const bool shedding =
        limits_.shed_watermark != 0 && depth >= limits_.shed_watermark;
    if (shedding) {
      // Pressure: the lowest-priority query among (waiters, arrival) is
      // shed.  Ties favor incumbents — they already waited.
      auto lowest = std::min_element(
          queue_.begin(), queue_.end(),
          [](const std::shared_ptr<PendingQuery>& a,
             const std::shared_ptr<PendingQuery>& b) {
            return a->options().priority < b->options().priority;
          });
      if (lowest != queue_.end() &&
          query->options().priority > (*lowest)->options().priority) {
        victim = std::move(*lowest);
        queue_.erase(lowest);
        victim_depth = depth;
        ++shed_count_;
        queue_.push_back(std::move(query));
      } else if (depth >= limits_.queue_capacity) {
        return PressureStatus("admission queue full", depth);
      } else {
        ++shed_count_;
        return PressureStatus("shed under queue pressure", depth);
      }
    } else if (depth >= limits_.queue_capacity) {
      return PressureStatus("admission queue full", depth);
    } else {
      queue_.push_back(std::move(query));
    }
  }
  cv_.notify_one();
  if (victim != nullptr) {
    if (shed_callback_) shed_callback_(*victim);
    victim->Resolve(
        PressureStatus("shed under queue pressure by a higher-priority query",
                       victim_depth));
  }
  return Status::Ok();
}

std::shared_ptr<PendingQuery> AdmissionQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;  // closed and drained
  std::shared_ptr<PendingQuery> head = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  return head;
}

void AdmissionQueue::Finish() {
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    OBLIVDB_CHECK(in_flight_ > 0);
    --in_flight_;
    idle = in_flight_ == 0 && queue_.empty();
  }
  if (idle) idle_cv_.notify_all();
}

void AdmissionQueue::RequeueFront(std::shared_ptr<PendingQuery> query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_front(std::move(query));
  }
  cv_.notify_one();
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::WaitIdleFor(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_until(lock, deadline, [&] {
    return queue_.empty() && in_flight_ == 0;
  });
}

std::vector<std::shared_ptr<PendingQuery>> AdmissionQueue::DrainPending() {
  std::vector<std::shared_ptr<PendingQuery>> pending;
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
    queue_.clear();
    idle = in_flight_ == 0;
  }
  if (idle) idle_cv_.notify_all();
  return pending;
}

size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t AdmissionQueue::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

uint64_t AdmissionQueue::shed_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_count_;
}

}  // namespace oblivdb::service
