// SortPolicy: one knob, two ways to execute the same logical sort.
//
// The enum lives in its own header (rather than obliv/sort_kernel.h, which
// holds the dispatcher) so that lightweight consumers can name policies
// without pulling in the sorting-network templates.
//
//   kReference   — the recursive network of bitonic_sort.h; four
//                  individually sink-tested OArray accesses per
//                  compare-exchange.  The semantic baseline and test
//                  oracle; always sequential.
//   kBlocked     — the cache-blocked kernel of sort_block.h.  Identical
//                  comparator schedule, element order, comparison count and
//                  (when traced) bit-identical access trace; simply faster.
//                  The production kernel.
//
// Parallelism is not a tier but a property of the pool SortRange is given:
// on a pool with more than one worker, a kBlocked range of at least
// internal::kParallelCutoff elements runs on the task-parallel network of
// parallel_sort.h, which replays its per-task trace buffers in
// sequential-schedule order, so the trace is byte-identical to the
// sequential run; a width-1 pool runs the sequential kernel outright.
//
// Both policies preserve level II obliviousness and produce the same
// output and trace; the policy choice itself is public configuration.
// tests/sort_kernel_test.cc pins the equivalence.

#ifndef OBLIVDB_OBLIV_SORT_POLICY_H_
#define OBLIVDB_OBLIV_SORT_POLICY_H_

#include <cstdint>

namespace oblivdb::obliv {

enum class SortPolicy : uint8_t {
  kReference,  // recursive network, four OArray accesses per exchange
  kBlocked,    // cache-blocked kernel, raw-memory passes inside the block
};

// Stable lowercase names ("reference", "blocked") — the vocabulary of the
// bench JSON.
const char* SortPolicyName(SortPolicy policy);

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_POLICY_H_
