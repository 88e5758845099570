#include "obliv/sort_policy.h"

#include "common/check.h"

namespace oblivdb::obliv {

const char* SortPolicyName(SortPolicy policy) {
  switch (policy) {
    case SortPolicy::kReference: return "reference";
    case SortPolicy::kBlocked: return "blocked";
  }
  OBLIVDB_CHECK(false);
  return "?";
}

}  // namespace oblivdb::obliv
