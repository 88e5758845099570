// EPC paging simulator — the substitution for the paper's real-SGX runs
// (Figure 8's "SGX" and "SGX (transformed)" curves).
//
// Model.  An SGX enclave whose entire working set lives in enclave memory
// (as the paper's SGX version does, §6.2) behaves like the plain prototype
// until its footprint exceeds the Enclave Page Cache (~93 MiB usable);
// beyond that, each access to a non-resident 4 KiB page triggers an
// encrypted swap with a fixed, data-independent cost.  We therefore attach
// this simulator as a TraceSink: every OArray access is mapped to a virtual
// address, run through an LRU model of the EPC, and page faults accumulate
// a calibrated penalty that is added to the measured wall time.
//
// The "(transformed)" variant — the level III, instruction-trace-oblivious
// rewrite of §3.4 — costs a constant instruction-overhead factor on top;
// the paper's measurement (6.30 s / 5.67 s at n = 10^6) gives 1.11x, which
// SgxCostModel carries as a parameter.
//
// Why the substitution preserves the result: the paper's own analysis
// attributes the SGX curve's shape to exactly these two effects (EPC
// swapping past ~93 MiB, constant transformation overhead); both are
// modelled explicitly, and the obliviousness of the algorithm guarantees
// the fault *pattern* is input-independent, so a page-granular LRU replay
// is faithful.

#ifndef OBLIVDB_SGX_SIM_EPC_SIMULATOR_H_
#define OBLIVDB_SGX_SIM_EPC_SIMULATOR_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "memtrace/trace.h"

namespace oblivdb::sgx_sim {

struct SgxCostModel {
  // Usable EPC bytes.  Real SGX v1: ~93 MiB.  The figure-8 harness scales
  // this down together with n so the paging knee stays inside the sweep.
  uint64_t epc_bytes = 93ull << 20;
  // Simulated cost of one EPC page swap (evict + load, both re-encrypted);
  // published measurements put SGX v1 EPC paging at roughly 10-40 us per
  // 4 KiB page — we use a mid-range 12 us.
  double seconds_per_fault = 12e-6;
  // Instruction overhead of the level II -> level III transformation.
  double transform_factor = 6.30 / 5.67;
};

// TraceSink that replays every public-memory access through a page-granular
// LRU model of the EPC.
class EpcSimulator : public memtrace::TraceSink {
 public:
  explicit EpcSimulator(const SgxCostModel& model = {});

  void OnAlloc(uint32_t array_id, const std::string& name, size_t length,
               size_t elem_size) override;
  void OnAccess(const memtrace::AccessEvent& event) override;

  uint64_t page_faults() const { return faults_; }
  uint64_t accesses() const { return accesses_; }
  uint64_t footprint_bytes() const { return next_base_; }

  // Penalty to add to the enclave's compute time.
  double FaultPenaltySeconds() const {
    return double(faults_) * model_.seconds_per_fault;
  }
  const SgxCostModel& model() const { return model_; }

 private:
  void TouchPage(uint64_t page);

  SgxCostModel model_;
  uint64_t pages_capacity_;
  uint64_t next_base_ = 0;
  std::unordered_map<uint32_t, uint64_t> array_base_;
  // LRU: most-recent at front.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;
  uint64_t faults_ = 0;
  uint64_t accesses_ = 0;
};

// Result of one simulated-SGX execution.
struct SgxRunResult {
  double cpu_seconds = 0;        // measured enclave compute time
  double sgx_seconds = 0;        // cpu + fault penalty
  double transformed_seconds = 0;  // sgx * transform_factor
  uint64_t page_faults = 0;
  uint64_t footprint_bytes = 0;
};

// Runs `fn` under an EpcSimulator trace scope and assembles the result.
template <typename Fn>
SgxRunResult SimulateSgxRun(const SgxCostModel& model, Fn&& fn);

template <typename Fn>
SgxRunResult SimulateSgxRun(const SgxCostModel& model, Fn&& fn) {
  EpcSimulator simulator(model);
  double cpu_seconds = 0;
  {
    memtrace::TraceScope scope(&simulator);
    Timer timer;
    fn();
    cpu_seconds = timer.ElapsedSeconds();
  }
  SgxRunResult result;
  result.cpu_seconds = cpu_seconds;
  result.sgx_seconds = cpu_seconds + simulator.FaultPenaltySeconds();
  result.transformed_seconds = result.sgx_seconds * model.transform_factor;
  result.page_faults = simulator.page_faults();
  result.footprint_bytes = simulator.footprint_bytes();
  return result;
}

}  // namespace oblivdb::sgx_sim

#endif  // OBLIVDB_SGX_SIM_EPC_SIMULATOR_H_
