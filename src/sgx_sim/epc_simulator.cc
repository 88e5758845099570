#include "sgx_sim/epc_simulator.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace oblivdb::sgx_sim {
namespace {

constexpr uint64_t kPageBytes = 4096;

uint64_t AlignUpToPage(uint64_t v) {
  return (v + kPageBytes - 1) / kPageBytes * kPageBytes;
}

}  // namespace

EpcSimulator::EpcSimulator(const SgxCostModel& model)
    : model_(model),
      pages_capacity_(std::max<uint64_t>(model.epc_bytes / kPageBytes, 1)) {}

void EpcSimulator::OnAlloc(uint32_t array_id, const std::string& /*name*/,
                           size_t length, size_t elem_size) {
  // Page-aligned bump allocation of virtual enclave addresses.
  array_base_[array_id] = next_base_;
  next_base_ += AlignUpToPage(uint64_t{length} * elem_size);
}

void EpcSimulator::TouchPage(uint64_t page) {
  auto it = resident_.find(page);
  if (it != resident_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++faults_;
  if (resident_.size() >= pages_capacity_) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
  }
  lru_.push_front(page);
  resident_[page] = lru_.begin();
}

void EpcSimulator::OnAccess(const memtrace::AccessEvent& event) {
  ++accesses_;
  const auto base_it = array_base_.find(event.array_id);
  OBLIVDB_CHECK(base_it != array_base_.end());
  const uint64_t first = base_it->second + event.index * event.elem_size;
  const uint64_t last = first + event.elem_size - 1;
  for (uint64_t page = first / kPageBytes; page <= last / kPageBytes; ++page) {
    TouchPage(page);
  }
}

}  // namespace oblivdb::sgx_sim
