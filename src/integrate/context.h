#ifndef OOINT_INTEGRATE_CONTEXT_H_
#define OOINT_INTEGRATE_CONTEXT_H_

#include <string>
#include <vector>

#include "integrate/aif.h"
#include "integrate/class_pairs.h"
#include "integrate/integrated_schema.h"
#include "model/schema.h"

namespace ooint {

/// Counters instrumenting an integration run — the measurable quantities
/// behind the paper's Section 6 efficiency claims.
struct IntegrationStats {
  /// Class pairs actually checked against the assertion set.
  size_t pairs_checked = 0;
  /// Pairs pushed to the control queue.
  size_t pairs_enqueued = 0;
  /// Pairs skipped because of the label mechanism (line 7 of
  /// schema_integration).
  size_t pairs_skipped_by_labels = 0;
  /// Sibling pairs removed after an equivalence match (line 10).
  size_t sibling_pairs_removed = 0;
  /// Steps taken by depth-first path_labelling traversals.
  size_t dfs_steps = 0;
  /// Classes merged by equivalence assertions.
  size_t classes_merged = 0;
  /// is-a links inserted into the integrated schema.
  size_t isa_links_inserted = 0;
  /// Redundant is-a links suppressed / removed (Principle 2 + §6.2).
  size_t isa_links_suppressed = 0;
  /// Rules generated (Principles 3, 4 and 5).
  size_t rules_generated = 0;
  /// Cardinality-constraint conflicts resolved via the lattice
  /// (Principle 6).
  size_t cardinality_conflicts_resolved = 0;

  std::string ToString() const;
};

/// Shared state of one two-schema integration run: the (finalized) local
/// schemas, the index over the declared assertions, the integrated
/// schema under construction, the AIF registry, and the stats counters.
/// The principle implementations (principles.h) all operate on a context.
struct IntegrationContext {
  const Schema* s1 = nullptr;
  const Schema* s2 = nullptr;
  const ClassPairIndex* pairs = nullptr;
  IntegratedSchema result;
  AifRegistry* aifs = nullptr;  // optional
  IntegrationStats stats;
  /// Per local class of s1 and of s2 (by ClassId), the index of the
  /// integrated class representing it; IntegratedSchema::kNoClass until
  /// Materialize maps it. Mirrors result's source map by id.
  std::vector<size_t> index1;
  std::vector<size_t> index2;

  IntegrationContext(const Schema* schema1, const Schema* schema2,
                     const ClassPairIndex* pair_index)
      : s1(schema1), s2(schema2), pairs(pair_index),
        result("IS(" + schema1->name() + "," + schema2->name() + ")"),
        index1(schema1->NumClasses(), IntegratedSchema::kNoClass),
        index2(schema2->NumClasses(), IntegratedSchema::kNoClass) {}

  const Schema& schema(int side) const { return side == 1 ? *s1 : *s2; }
  /// The integrated class index of local class `id` of `side`.
  size_t& IndexOf(int side, ClassId id) {
    return side == 1 ? index1[id] : index2[id];
  }

  /// The side, id and ClassDef behind a ClassRef; not found() when the
  /// schema or class is unknown.
  LocalClass Resolve(const ClassRef& ref) const {
    return ResolveLocal(*s1, *s2, ref);
  }
};

}  // namespace ooint

#endif  // OOINT_INTEGRATE_CONTEXT_H_
