#include "integrate/context.h"

#include "common/string_util.h"

namespace ooint {

std::string IntegrationStats::ToString() const {
  return StrCat("pairs_checked=", pairs_checked,
                " pairs_enqueued=", pairs_enqueued,
                " pairs_skipped_by_labels=", pairs_skipped_by_labels,
                " sibling_pairs_removed=", sibling_pairs_removed,
                " dfs_steps=", dfs_steps, " classes_merged=", classes_merged,
                " isa_links_inserted=", isa_links_inserted,
                " isa_links_suppressed=", isa_links_suppressed,
                " rules_generated=", rules_generated,
                " cardinality_conflicts_resolved=",
                cardinality_conflicts_resolved);
}

}  // namespace ooint
