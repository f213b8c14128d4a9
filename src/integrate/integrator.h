#ifndef OOINT_INTEGRATE_INTEGRATOR_H_
#define OOINT_INTEGRATE_INTEGRATOR_H_

#include <deque>
#include <set>
#include <vector>

#include "assertions/assertion_set.h"
#include "common/result.h"
#include "integrate/class_pairs.h"
#include "integrate/naive_integrator.h"
#include "integrate/principles.h"
#include "integrate/trace.h"

namespace ooint {

/// Algorithm schema_integration + path_labelling (Section 6.1): the
/// paper's optimized integration algorithm.
///
/// It combines a breadth-first traversal over node pairs with:
///  - observation-based pruning — after N1 ≡ N2, sibling pairs
///    (N1, M_2j) and (M_1i, N2) are removed; after N1 ⊆ N2 only
///    (N1, N_2j) pairs continue; disjoint/derivation pairs spawn no extra
///    pairs;
///  - a depth-first path_labelling pass on every inclusion, which labels
///    the is-a paths above whose nodes need no further checking against
///    N1's subtree, performs merges found en route, and generates only
///    the deepest is-a link of each inclusion chain (the generalized
///    Principle 2, Fig. 8);
///  - label inheritance — a node's inherited labels flow to its
///    descendants so whole subtree-vs-path products are skipped (the
///    ⟨labels, inherited-labels⟩ pairs of Section 6.1).
///
/// The integration principles themselves are shared with
/// NaiveIntegrator, so both algorithms produce semantically equal
/// integrated schemas while this one checks O(n) pairs on the paper's
/// Section 6.3 workload instead of O(n²).
class Integrator {
 public:
  /// `trace`, when non-null, records every algorithm step (Appendix A's
  /// computation-step listing) — see integrate/trace.h.
  static Result<IntegrationOutcome> Integrate(const Schema& s1,
                                              const Schema& s2,
                                              const AssertionSet& assertions,
                                              AifRegistry* aifs = nullptr,
                                              IntegrationTrace* trace = nullptr);

 private:
  Integrator(const Schema& s1, const Schema& s2,
             const AssertionSet& assertions);

  Status Run();

  /// The depth-first pass: labels the subgraph of `target_schema` rooted
  /// at `n2` w.r.t. class `n1` of the other schema, records merges /
  /// pending links, and returns the fresh label.
  int PathLabelling(int side1, ClassId n1, int side2, ClassId n2);

  const Schema& SchemaOf(int side) const { return side == 1 ? s1_ : s2_; }

  const std::vector<ClassId>& ChildrenOrRoots(int side, ClassId node) const;

  /// Adds `label` to inherited-labels of `node` and all its descendants,
  /// and records every explicit derivation between a proper descendant
  /// and a class of the other schema that `label` marks — pairs the
  /// label guard never checks.
  void InheritLabel(int side, ClassId node, int label);

  const Schema& s1_;
  const Schema& s2_;
  const ClassPairIndex pairs_;
  const std::vector<ClassId> roots_s1_;
  const std::vector<ClassId> roots_s2_;
  IntegrationContext ctx_;
  PendingOperations ops_;

  // Per-node label state: labels obtained during depth-first search and
  // labels obtained through inheritance (the pair ⟨l₁···l_n, l₁'···l_m'⟩).
  std::vector<std::set<int>> labels_s1_;
  std::vector<std::set<int>> inherited_s1_;
  std::vector<std::set<int>> labels_s2_;
  std::vector<std::set<int>> inherited_s2_;
  int label_counter_ = 0;

  std::deque<std::pair<ClassId, ClassId>> queue_;
  ClassPairSet enqueued_;
  ClassPairSet suppressed_;
  IntegrationTrace* trace_ = nullptr;

  /// Renders "(lhs, rhs)" with class names for trace subjects. Trace
  /// text is formatted only under `if (trace_ != nullptr)`, so an
  /// untraced run formats none.
  std::string PairName(ClassId n1, ClassId n2) const;
};

}  // namespace ooint

#endif  // OOINT_INTEGRATE_INTEGRATOR_H_
