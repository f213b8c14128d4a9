#ifndef OOINT_INTEGRATE_PRINCIPLES_H_
#define OOINT_INTEGRATE_PRINCIPLES_H_

#include <set>
#include <tuple>
#include <vector>

#include "integrate/class_pairs.h"
#include "integrate/context.h"

namespace ooint {

/// The integration operations an integrator's traversal decides on.
///
/// Both integration algorithms (naive_schema_integration and the
/// optimized schema_integration of Section 6) are traversals that decide
/// *which* correspondence assertions fire; the semantic work of the
/// integration principles (Section 5) is identical. Traversals record
/// their decisions here and Materialize() then performs them in a stable
/// order: merges first (so every class's integrated name is known), then
/// default copies, then virtual classes and rules, then links. This also
/// guarantees the two algorithms produce semantically equal integrated
/// schemas, which the test suite verifies.
class PendingOperations {
 public:
  /// A pending is-a link IS(sub) -> IS(super): `sub` is a class of
  /// schema `side`, `super` a class of the other schema.
  struct PendingIsA {
    int side;
    ClassId sub;
    ClassId super;
  };

  /// Records the operation implied by a ClassPairIndex lookup for class
  /// `n1` of schema `side` and class `n2` of the other schema. Duplicate
  /// recordings are ignored. For derivations, every derivation assertion
  /// relating the pair is recorded (a pair may carry several, e.g. the
  /// per-column assertions of Fig. 10).
  void Record(const ClassPairIndex::Lookup& lookup, int side, ClassId n1,
              ClassId n2);

  /// Records a pending is-a link IS(sub) -> IS(super) (Principle 2),
  /// `sub` of schema `side` and `super` of the other schema.
  void RecordIsA(int side, ClassId sub, ClassId super);

  const std::vector<const Assertion*>& equivalences() const {
    return equivalences_;
  }
  const std::vector<PendingIsA>& inclusions() const { return inclusions_; }
  const std::vector<const Assertion*>& intersections() const {
    return intersections_;
  }
  const std::vector<const Assertion*>& disjoints() const {
    return disjoints_;
  }
  const std::vector<const Assertion*>& derivations() const {
    return derivations_;
  }

 private:
  bool Seen(const Assertion* assertion);

  std::vector<const Assertion*> equivalences_;
  std::vector<PendingIsA> inclusions_;
  std::vector<const Assertion*> intersections_;
  std::vector<const Assertion*> disjoints_;
  std::vector<const Assertion*> derivations_;
  std::set<const void*> seen_assertions_;
  std::set<std::tuple<int, ClassId, ClassId>> seen_isa_;
};

/// Ensures `ref` has an integrated version (default strategy 1: a copy
/// of the local class); returns the integrated class's index.
Result<size_t> EnsureCopy(IntegrationContext* ctx, const ClassRef& ref);

/// Performs the recorded operations against ctx->result, implementing
/// Principles 1-6 (see the implementation for the per-principle
/// details). On return the integrated schema is complete: merged and
/// copied classes, virtual classes with their defining rules, derivation
/// rules, carried-over and integrated links with redundant is-a links
/// removed and aggregation ranges resolved.
Status Materialize(IntegrationContext* ctx, const PendingOperations& ops);

}  // namespace ooint

#endif  // OOINT_INTEGRATE_PRINCIPLES_H_
