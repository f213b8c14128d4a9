#include "integrate/integrator.h"

#include <algorithm>

#include "common/string_util.h"

namespace ooint {

Integrator::Integrator(const Schema& s1, const Schema& s2,
                       const AssertionSet& assertions)
    : s1_(s1),
      s2_(s2),
      pairs_(s1, s2, assertions),
      roots_s1_(s1.Roots()),
      roots_s2_(s2.Roots()),
      ctx_(&s1, &s2, &pairs_),
      labels_s1_(s1.NumClasses()),
      inherited_s1_(s1.NumClasses()),
      labels_s2_(s2.NumClasses()),
      inherited_s2_(s2.NumClasses()),
      enqueued_(s1.NumClasses(), s2.NumClasses()),
      suppressed_(s1.NumClasses(), s2.NumClasses()) {}

Result<IntegrationOutcome> Integrator::Integrate(
    const Schema& s1, const Schema& s2, const AssertionSet& assertions,
    AifRegistry* aifs, IntegrationTrace* trace) {
  if (!s1.finalized() || !s2.finalized()) {
    return Status::FailedPrecondition(
        "both schemas must be finalized before integration");
  }
  Integrator integrator(s1, s2, assertions);
  integrator.ctx_.aifs = aifs;
  integrator.trace_ = trace;
  OOINT_RETURN_IF_ERROR(integrator.Run());
  OOINT_RETURN_IF_ERROR(Materialize(&integrator.ctx_, integrator.ops_));
  IntegrationOutcome outcome;
  outcome.schema = std::move(integrator.ctx_.result);
  outcome.stats = integrator.ctx_.stats;
  return outcome;
}

std::string Integrator::PairName(ClassId n1, ClassId n2) const {
  auto name = [&](int side, ClassId id) -> std::string {
    if (id == kStartNode) return "<start>";
    return SchemaOf(side).class_def(id).name();
  };
  return StrCat("(", name(1, n1), ", ", name(2, n2), ")");
}

const std::vector<ClassId>& Integrator::ChildrenOrRoots(int side,
                                                        ClassId node) const {
  if (node == kStartNode) return side == 1 ? roots_s1_ : roots_s2_;
  return SchemaOf(side).ChildrenOf(node);
}

void Integrator::InheritLabel(int side, ClassId node, int label) {
  auto& inherited = (side == 1) ? inherited_s1_ : inherited_s2_;
  const auto& other_labels = (side == 1) ? labels_s2_ : labels_s1_;
  inherited[node].insert(label);
  for (ClassId descendant : SchemaOf(side).Descendants(node)) {
    inherited[descendant].insert(label);
    // The label guard skips every pair of `descendant` with a class
    // `label` marks: their set relationship follows from the inclusion.
    // An explicit derivation on such a pair does not, so it is traced
    // and recorded here, as the pair's own check would have done.
    for (ClassId id : pairs_.PartnersOf(side, descendant)) {
      if (other_labels[id].count(label) == 0) continue;
      const ClassPairIndex::Lookup lookup = pairs_.Find(side, descendant, id);
      if (lookup.found() && lookup.rel == SetRel::kDerivation) {
        if (trace_ != nullptr) {
          trace_->Add(TraceEvent::Kind::kCase,
                      side == 1 ? PairName(descendant, id)
                                : PairName(id, descendant),
                      SetRelName(lookup.rel));
        }
        ops_.Record(lookup, side, descendant, id);
      }
    }
  }
}

int Integrator::PathLabelling(int side1, ClassId n1, int side2, ClassId n2) {
  // Algorithm path_labelling: depth-first traversal of the subgraph of
  // SchemaOf(side2) rooted at n2, w.r.t. class n1 of the other schema.
  const int label = ++label_counter_;
  auto& labels = (side2 == 1) ? labels_s1_ : labels_s2_;
  const Schema& target = SchemaOf(side2);

  // Steer the search by the characteristics of the assertion set: only
  // paths leading to a class that actually has an assertion with N1 can
  // satisfy property (ii), so subtrees without any assertion partner of
  // N1 are skipped wholesale (their relationship to N1 is decided by the
  // deepest labelled ancestor, exactly as for explicit end nodes).
  std::vector<bool> relevant(target.NumClasses(), false);
  for (ClassId id : pairs_.PartnersOf(side1, n1)) {
    relevant[id] = true;
    for (ClassId ancestor : target.Ancestors(id)) {
      relevant[ancestor] = true;
    }
  }

  struct StackEntry {
    ClassId node;
    ClassId dfs_parent;  // kStartNode for the root n2
  };
  std::vector<StackEntry> stack = {{n2, kStartNode}};
  std::map<ClassId, ClassId> dfs_parent;
  std::set<ClassId> starred;
  dfs_parent[n2] = kStartNode;

  // Backtracks from `from` through starred nodes, undoing their labels,
  // and links IS(n1) below the first non-starred ancestor U_k.
  auto backtrack_and_link = [&](ClassId from, bool from_starred) {
    // The link target is the first non-starred ancestor U_k strictly
    // above `from` (Fig. 8(b)); `from` itself either carries a
    // non-inclusion assertion (lines 13-18) or is a starred end node
    // (lines 19-25) — never the target.
    if (from_starred) labels[from].erase(label);
    ClassId current =
        dfs_parent.count(from) != 0 ? dfs_parent[from] : kStartNode;
    while (current != kStartNode && starred.count(current) != 0) {
      labels[current].erase(label);  // undo the invalid labels
      current = dfs_parent[current];
    }
    if (current != kStartNode) {
      // N1 ⊆ U_k must be specified (or U_k ≡ N1): generate one is-a link
      // (Fig. 8(b)).
      if (trace_ != nullptr) {
        trace_->Add(TraceEvent::Kind::kDfsLink,
                    StrCat("is_a(", SchemaOf(side1).class_def(n1).name(),
                           ", ", target.class_def(current).name(), ")"),
                    "");
      }
      ops_.RecordIsA(side1, n1, current);
    }
  };

  while (!stack.empty()) {
    const StackEntry entry = stack.back();
    stack.pop_back();
    const ClassId v = entry.node;
    dfs_parent[v] = entry.dfs_parent;
    ++ctx_.stats.dfs_steps;
    ++ctx_.stats.pairs_checked;
    if (trace_ != nullptr) {
      trace_->Add(TraceEvent::Kind::kDfsVisit, target.class_def(v).name(),
                  StrCat("w.r.t. ", SchemaOf(side1).class_def(n1).name()));
    }

    const ClassPairIndex::Lookup lookup = pairs_.Find(side1, n1, v);
    if (lookup.found() && lookup.rel == SetRel::kSubset) {
      // case N1 ⊆ V: label V and go deeper (into subtrees that can
      // still contain assertion partners of N1).
      labels[v].insert(label);
      if (trace_ != nullptr) {
        trace_->Add(TraceEvent::Kind::kDfsLabel, target.class_def(v).name(),
                    StrCat("l", label));
      }
      std::vector<ClassId> children;
      for (ClassId child : target.ChildrenOf(v)) {
        if (relevant[child]) children.push_back(child);
      }
      if (children.empty()) {
        // A labelled chain end: V is the deepest class including N1 on
        // this path.
        if (trace_ != nullptr) {
          trace_->Add(TraceEvent::Kind::kDfsLink,
                      StrCat("is_a(", SchemaOf(side1).class_def(n1).name(),
                             ", ", target.class_def(v).name(), ")"),
                      "");
        }
        ops_.RecordIsA(side1, n1, v);
        continue;
      }
      for (ClassId child : children) stack.push_back({child, v});
      continue;
    }
    if (lookup.found() && lookup.rel == SetRel::kEquivalent) {
      // case N1 ≡ V: merge; the remaining part of this path is no
      // longer searched.
      labels[v].insert(label);
      if (trace_ != nullptr) {
        trace_->Add(TraceEvent::Kind::kDfsLabel, target.class_def(v).name(),
                    StrCat("l", label, " merge"));
      }
      ops_.Record(lookup, side1, n1, v);
      continue;
    }
    if (lookup.found()) {
      // case θ ∈ {→, ∅, ⊇, ∩}: record the assertion's own integration
      // operation, then backtrack to the first non-starred ancestor and
      // link there.
      ops_.Record(lookup, side1, n1, v);
      backtrack_and_link(v, /*from_starred=*/false);
      continue;
    }
    // default: no assertion between N1 and V.
    starred.insert(v);
    labels[v].insert(label);
    if (trace_ != nullptr) {
      trace_->Add(TraceEvent::Kind::kDfsStar, target.class_def(v).name(), "");
    }
    std::vector<ClassId> children;
    for (ClassId child : target.ChildrenOf(v)) {
      if (relevant[child]) children.push_back(child);
    }
    if (!children.empty()) {
      for (ClassId child : children) stack.push_back({child, v});
    } else {
      backtrack_and_link(v, /*from_starred=*/true);
    }
  }
  return label;
}

Status Integrator::Run() {
  auto push = [&](ClassId a, ClassId b) {
    if (enqueued_.Insert(a, b)) {
      queue_.emplace_back(a, b);
      ++ctx_.stats.pairs_enqueued;
    }
  };
  push(kStartNode, kStartNode);

  while (!queue_.empty()) {
    const auto [n1, n2] = queue_.front();
    queue_.pop_front();
    if (suppressed_.Contains(n1, n2)) continue;
    if (trace_ != nullptr && n1 != kStartNode && n2 != kStartNode) {
      trace_->Add(TraceEvent::Kind::kPopPair, PairName(n1, n2), "");
    }

    const std::vector<ClassId>& kids1 = ChildrenOrRoots(1, n1);
    const std::vector<ClassId>& kids2 = ChildrenOrRoots(2, n2);
    // Line 6: child-with-child pairs are always scheduled.
    for (ClassId c1 : kids1) {
      for (ClassId c2 : kids2) push(c1, c2);
    }
    if (n1 == kStartNode || n2 == kStartNode) {
      // The virtual start node (Fig. 14) only seeds the root-with-root
      // cross products; mixed pairs involving it are meaningless (cross-
      // level pairs are reached through the default case of real pairs).
      continue;
    }

    // Line 7: the label guard.
    const bool clash_a =
        !inherited_s1_[n1].empty() && !labels_s2_[n2].empty() &&
        std::any_of(inherited_s1_[n1].begin(), inherited_s1_[n1].end(),
                    [&](int l) { return labels_s2_[n2].count(l) != 0; });
    const bool clash_b =
        !labels_s1_[n1].empty() && !inherited_s2_[n2].empty() &&
        std::any_of(labels_s1_[n1].begin(), labels_s1_[n1].end(),
                    [&](int l) { return inherited_s2_[n2].count(l) != 0; });
    if (clash_a || clash_b) {
      // Lines 34-35: the pair itself is skipped; one side's children
      // continue.
      ++ctx_.stats.pairs_skipped_by_labels;
      if (trace_ != nullptr) {
        trace_->Add(TraceEvent::Kind::kSkipByLabels, PairName(n1, n2), "");
      }
      if (clash_a) {
        for (ClassId c2 : kids2) push(n1, c2);
      } else {
        for (ClassId c1 : kids1) push(c1, n2);
      }
      continue;
    }

    ++ctx_.stats.pairs_checked;
    const ClassPairIndex::Lookup lookup = pairs_.Find(1, n1, n2);
    if (trace_ != nullptr) {
      trace_->Add(TraceEvent::Kind::kCase, PairName(n1, n2),
                  lookup.found() ? SetRelName(lookup.rel) : "none");
    }
    if (!lookup.found()) {
      // Default: nothing can be inferred; both mixed-pair families are
      // checked (line 33).
      for (ClassId c2 : kids2) push(n1, c2);
      for (ClassId c1 : kids1) push(c1, n2);
      continue;
    }
    switch (lookup.rel) {
      case SetRel::kEquivalent: {
        // Line 9-10: merge and remove sibling pairs — the relationship
        // between N1 (N2) and N2's (N1's) brothers equals the local one.
        ops_.Record(lookup, 1, n1, n2);
        for (ClassId parent2 : s2_.ParentsOf(n2)) {
          for (ClassId sibling2 : s2_.ChildrenOf(parent2)) {
            if (sibling2 == n2) continue;
            if (enqueued_.Contains(n1, sibling2) &&
                suppressed_.Insert(n1, sibling2)) {
              ++ctx_.stats.sibling_pairs_removed;
              if (trace_ != nullptr) {
                trace_->Add(TraceEvent::Kind::kSuppressSibling,
                            PairName(n1, sibling2), "");
              }
            }
          }
        }
        for (ClassId parent1 : s1_.ParentsOf(n1)) {
          for (ClassId sibling1 : s1_.ChildrenOf(parent1)) {
            if (sibling1 == n1) continue;
            if (enqueued_.Contains(sibling1, n2) &&
                suppressed_.Insert(sibling1, n2)) {
              ++ctx_.stats.sibling_pairs_removed;
              if (trace_ != nullptr) {
                trace_->Add(TraceEvent::Kind::kSuppressSibling,
                            PairName(sibling1, n2), "");
              }
            }
          }
        }
        // Line 6 schedules only child-with-child pairs, so N1's
        // descendants never meet N2 (nor N1 N2's descendants): their set
        // relationship follows from N1 ≡ N2. An explicit assertion on
        // such a pair — e.g. a derivation into a subclass of N1 — is not
        // implied by it, so that pair is scheduled directly.
        for (ClassId below : pairs_.PartnersOf(2, n2)) {
          if (below != n1 && s1_.IsSubclassOf(below, n1)) push(below, n2);
        }
        for (ClassId below : pairs_.PartnersOf(1, n1)) {
          if (below != n2 && s2_.IsSubclassOf(below, n2)) push(n1, below);
        }
        break;
      }
      case SetRel::kSubset: {
        // Lines 11-17: depth-first labelling of S2 above N2; N1 and its
        // descendants inherit the label (recording the derivations the
        // label then hides); (N1, N2j) pairs continue.
        const int label = PathLabelling(1, n1, 2, n2);
        if (trace_ != nullptr) {
          trace_->Add(TraceEvent::Kind::kInherit, s1_.class_def(n1).name(),
                      StrCat("l", label));
        }
        InheritLabel(1, n1, label);
        for (ClassId c2 : kids2) push(n1, c2);
        break;
      }
      case SetRel::kSuperset: {
        // Lines 18-24: symmetric.
        const int label = PathLabelling(2, n2, 1, n1);
        if (trace_ != nullptr) {
          trace_->Add(TraceEvent::Kind::kInherit, s2_.class_def(n2).name(),
                      StrCat("l", label));
        }
        InheritLabel(2, n2, label);
        for (ClassId c1 : kids1) push(c1, n2);
        break;
      }
      case SetRel::kDisjoint:
      case SetRel::kDerivation:
        // Lines 25-28 + observation 3: no descendant pairs need checks.
        ops_.Record(lookup, 1, n1, n2);
        break;
      case SetRel::kOverlap:
        // Lines 29-31: nothing can be inferred for the parts; both
        // mixed-pair families continue.
        ops_.Record(lookup, 1, n1, n2);
        for (ClassId c2 : kids2) push(n1, c2);
        for (ClassId c1 : kids1) push(c1, n2);
        break;
    }
  }
  return Status::OK();
}

}  // namespace ooint
