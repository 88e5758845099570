// The "generic approach": run a conventional join on top of Path ORAM
// (§1, §3.3).  Access-pattern privacy comes entirely from the ORAM, at its
// Omega(log n) physical blowup per logical access — the overhead the paper
// is designed to avoid.
//
// Construction: both tables are loaded into OramArrays, sorted with a
// bitonic network whose element accesses go through the ORAM, and merged
// with a sort-merge pass whose (secret, data-dependent) pointer movements
// are hidden by the ORAM indirection.  The merge loop runs a fixed
// n1 + n2 + m iterations so its length reveals only the sizes every other
// algorithm here also reveals.

#ifndef OBLIVDB_BASELINES_ORAM_JOIN_H_
#define OBLIVDB_BASELINES_ORAM_JOIN_H_

#include <vector>

#include "table/record.h"
#include "table/table.h"

namespace oblivdb::baselines {

struct OramJoinResult {
  std::vector<JoinedRecord> rows;
  uint64_t physical_bucket_accesses = 0;  // total across all ORAMs
};

// `expected_m` sizes the output ORAM and the fixed-length merge loop; pass
// SortMergeJoinSize(t1, t2) (a real deployment would obtain it from the
// paper's Augment-Tables pass, which computes m obliviously).
OramJoinResult OramSortMergeJoin(const Table& table1, const Table& table2,
                                 uint64_t expected_m, uint64_t seed = 7);

}  // namespace oblivdb::baselines

#endif  // OBLIVDB_BASELINES_ORAM_JOIN_H_
