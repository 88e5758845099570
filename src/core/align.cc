#include "core/align.h"

#include "core/comparators.h"
#include "obliv/bitonic_sort.h"
#include "obliv/ct.h"

namespace oblivdb::core {

void AlignTable(memtrace::OArray<Entry>& s2, uint64_t m,
                const ExecContext& ctx, uint64_t* sort_comparisons,
                const OrderHints& join_input_order, uint64_t* sorts_elided) {
  OBLIVDB_CHECK_LE(m, s2.size());

  // Keyness elision (see header): with a key-unique input on either side
  // of the join, S2 leaves the expansion already aligned — the ii values
  // the linear pass would compute equal each entry's current within-group
  // position (left-unique), or the block's entries are bytewise identical
  // (right-unique).  Downstream only reads join_key/payload words, so the
  // skipped ii writes are unobservable in the output.
  if (ctx.sort_elision && (join_input_order.left.key_unique ||
                           join_input_order.right.key_unique)) {
    if (sorts_elided != nullptr) ++*sorts_elided;
    return;
  }

  // Linear pass: q counts the entry's 0-based position within its group
  // block, resetting at group boundaries (same counter idiom as
  // Fill-Dimensions).
  uint64_t q = 0;
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < m; ++i) {
    Entry e = s2.Read(i);
    const uint64_t same_group =
        ct::EqMask(e.join_key, prev_key) & ct::ToMask(i != 0);
    q = ct::Select(same_group, q + 1, 0);
    // ii = floor(q / alpha1) + (q mod alpha1) * alpha2.  The division by a
    // secret value is the paper's documented model assumption (§3.1:
    // same-type local instructions take equal time); the divisor is blended
    // to 1 when alpha1 == 0 purely as defensive hygiene — entries that
    // reach this pass always have alpha1 >= 1.
    const uint64_t divisor = ct::Select(ct::EqMask(e.alpha1, 0), 1, e.alpha1);
    e.align_ii = q / divisor + (q % divisor) * e.alpha2;
    prev_key = e.join_key;
    s2.Write(i, e);
  }

  obliv::SortRange(s2, 0, m, ByJoinKeyThenAlignIndexLess{}, ctx.sort_policy,
                   sort_comparisons, ctx.pool);
}

}  // namespace oblivdb::core
