#include "integrate/consistency.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/string_util.h"
#include "integrate/class_pairs.h"

namespace ooint {

std::string ConsistencyFinding::ToString() const {
  const char* severity_name =
      severity == Severity::kError ? "error" : "warning";
  const char* kind_name = "";
  switch (kind) {
    case Kind::kHierarchyCycle:
      kind_name = "hierarchy-cycle";
      break;
    case Kind::kShadowedByObservation3:
      kind_name = "shadowed-by-observation-3";
      break;
    case Kind::kDisjointWithoutEquivalentParents:
      kind_name = "disjoint-without-equivalent-parents";
      break;
    case Kind::kBareDerivation:
      kind_name = "bare-derivation";
      break;
  }
  return StrCat(severity_name, " [", kind_name, "] ", detail, " — ",
                assertion);
}

namespace {

/// Node numbering across the two schemas: S1 classes first.
size_t NodeOf(const Schema& s1, const ClassRef& ref, const Schema& s2) {
  if (ref.schema == s1.name()) {
    return static_cast<size_t>(s1.FindClass(ref.class_name));
  }
  return s1.NumClasses() + static_cast<size_t>(s2.FindClass(ref.class_name));
}

/// Tarjan-free SCC computation (Kosaraju) over a small adjacency list.
std::vector<int> StronglyConnectedComponents(
    size_t n, const std::vector<std::vector<size_t>>& adjacency) {
  std::vector<std::vector<size_t>> reverse(n);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v : adjacency[u]) reverse[v].push_back(u);
  }
  std::vector<bool> seen(n, false);
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t start = 0; start < n; ++start) {
    if (seen[start]) continue;
    // Iterative post-order DFS.
    std::vector<std::pair<size_t, size_t>> stack = {{start, 0}};
    seen[start] = true;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < adjacency[node].size()) {
        const size_t child = adjacency[node][next++];
        if (!seen[child]) {
          seen[child] = true;
          stack.push_back({child, 0});
        }
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  std::vector<int> component(n, -1);
  int count = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (component[*it] != -1) continue;
    std::deque<size_t> frontier = {*it};
    component[*it] = count;
    while (!frontier.empty()) {
      const size_t node = frontier.front();
      frontier.pop_front();
      for (size_t next : reverse[node]) {
        if (component[next] == -1) {
          component[next] = count;
          frontier.push_back(next);
        }
      }
    }
    ++count;
  }
  return component;
}

/// True when `ancestor` is `ref` or a (transitive) superclass of it.
bool IsAncestorOrSelf(const Schema& schema, const std::string& ancestor,
                      const std::string& descendant) {
  const ClassId a = schema.FindClass(ancestor);
  const ClassId d = schema.FindClass(descendant);
  if (a == kInvalidClassId || d == kInvalidClassId) return false;
  return schema.IsSubclassOf(d, a);
}

}  // namespace

std::vector<ConsistencyFinding> CheckConsistency(
    const Schema& s1, const Schema& s2, const AssertionSet& assertions) {
  std::vector<ConsistencyFinding> findings;
  const ClassPairIndex pairs(s1, s2, assertions);

  // --- Hierarchy-cycle detection -------------------------------------
  // Build the "below-or-equal" graph: local is-a edges and cross-schema
  // ⊆ edges are strict (upward); ≡ edges go both ways. A strongly
  // connected component joined by a strict edge is a forced cycle.
  const size_t n = s1.NumClasses() + s2.NumClasses();
  std::vector<std::vector<size_t>> adjacency(n);
  struct StrictEdge {
    size_t from;
    size_t to;
    std::string description;
  };
  std::vector<StrictEdge> strict_edges;

  auto add_local = [&](const Schema& schema, size_t offset) {
    for (size_t i = 0; i < schema.NumClasses(); ++i) {
      for (ClassId parent : schema.ParentsOf(static_cast<ClassId>(i))) {
        adjacency[offset + i].push_back(offset +
                                        static_cast<size_t>(parent));
        strict_edges.push_back(
            {offset + i, offset + static_cast<size_t>(parent),
             StrCat("is_a(", schema.class_def(static_cast<ClassId>(i)).name(),
                    ", ", schema.class_def(parent).name(), ") in ",
                    schema.name())});
      }
    }
  };
  add_local(s1, 0);
  add_local(s2, s1.NumClasses());

  for (const Assertion& assertion : assertions.assertions()) {
    if (assertion.rel == SetRel::kDerivation) continue;
    const size_t a = NodeOf(s1, assertion.lhs.front(), s2);
    const size_t b = NodeOf(s1, assertion.rhs, s2);
    switch (assertion.rel) {
      case SetRel::kEquivalent:
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
        break;
      case SetRel::kSubset:
        adjacency[a].push_back(b);
        strict_edges.push_back(
            {a, b,
             StrCat(assertion.lhs.front().ToString(), " <= ",
                    assertion.rhs.ToString())});
        break;
      case SetRel::kSuperset:
        adjacency[b].push_back(a);
        strict_edges.push_back(
            {b, a,
             StrCat(assertion.rhs.ToString(), " <= ",
                    assertion.lhs.front().ToString())});
        break;
      default:
        break;
    }
  }
  const std::vector<int> component =
      StronglyConnectedComponents(n, adjacency);
  for (const StrictEdge& edge : strict_edges) {
    if (component[edge.from] == component[edge.to]) {
      findings.push_back(
          {ConsistencyFinding::Severity::kError,
           ConsistencyFinding::Kind::kHierarchyCycle, edge.description,
           "strict subclass edge inside an equivalence cycle: the "
           "integrated is-a hierarchy cannot be acyclic"});
    }
  }

  // --- Per-assertion checks ------------------------------------------
  for (const Assertion& assertion : assertions.assertions()) {
    const ClassRef& lhs = assertion.lhs.front();
    const ClassRef& rhs = assertion.rhs;

    // Observation 3: an assertion whose endpoints both lie below a
    // disjoint / derivation pair is silently ignored by the optimized
    // traversal; surface it for the user.
    for (const Assertion& blocker : assertions.assertions()) {
      if (&blocker == &assertion) continue;
      if (blocker.rel != SetRel::kDisjoint &&
          blocker.rel != SetRel::kDerivation) {
        continue;
      }
      // Orient the blocker's classes onto lhs/rhs sides. The optimized
      // traversal skips every pair at or below the blocker pair (one
      // endpoint may coincide with a blocker class — e.g. c ⊇ d under
      // c' ∅ d with c below c' is pruned as soon as the disjoint pair
      // is processed), so "covered" means below-or-equal; requiring at
      // least one strict descent keeps the blocker pair itself exempt.
      auto covers = [&](const ClassRef& above, const ClassRef& below,
                        bool allow_equal) {
        if (above.schema != below.schema) return false;
        const Schema& schema = (above.schema == s1.name()) ? s1 : s2;
        if (!allow_equal && above.class_name == below.class_name) {
          return false;
        }
        return IsAncestorOrSelf(schema, above.class_name, below.class_name);
      };
      bool lhs_covered = false;
      bool lhs_strict = false;
      for (const ClassRef& c : blocker.lhs) {
        if (covers(c, lhs, true) || covers(c, rhs, true)) lhs_covered = true;
        if (covers(c, lhs, false) || covers(c, rhs, false)) lhs_strict = true;
      }
      const bool rhs_covered = covers(blocker.rhs, rhs, true) ||
                               covers(blocker.rhs, lhs, true);
      const bool rhs_strict = covers(blocker.rhs, rhs, false) ||
                              covers(blocker.rhs, lhs, false);
      if (lhs_covered && rhs_covered && (lhs_strict || rhs_strict)) {
        findings.push_back(
            {ConsistencyFinding::Severity::kWarning,
             ConsistencyFinding::Kind::kShadowedByObservation3,
             StrCat(lhs.ToString(), " ", SetRelName(assertion.rel), " ",
                    rhs.ToString()),
             StrCat("its classes lie below the ", SetRelName(blocker.rel),
                    " pair ", blocker.lhs.front().ToString(), " / ",
                    blocker.rhs.ToString(),
                    "; the optimized traversal skips such pairs "
                    "(observation 3) — confirm the assertion is intended")});
        break;
      }
    }

    if (assertion.rel == SetRel::kDisjoint) {
      // Principle 4 precondition: equivalent ancestors must exist.
      bool has_equivalent_parents = false;
      const int lhs_side = lhs.schema == s1.name() ? 1 : 2;
      const int rhs_side = rhs.schema == s1.name() ? 1 : 2;
      const Schema& lhs_schema = lhs_side == 1 ? s1 : s2;
      const Schema& rhs_schema = rhs_side == 1 ? s1 : s2;
      const ClassId lhs_id = lhs_schema.FindClass(lhs.class_name);
      const ClassId rhs_id = rhs_schema.FindClass(rhs.class_name);
      if (lhs_side != rhs_side) {
        for (ClassId pa : lhs_schema.Ancestors(lhs_id)) {
          for (ClassId pb : rhs_schema.Ancestors(rhs_id)) {
            const ClassPairIndex::Lookup lookup =
                pairs.Find(lhs_side, pa, pb);
            if (lookup.found() && lookup.rel == SetRel::kEquivalent) {
              has_equivalent_parents = true;
            }
          }
        }
      }
      if (!has_equivalent_parents) {
        findings.push_back(
            {ConsistencyFinding::Severity::kWarning,
             ConsistencyFinding::Kind::kDisjointWithoutEquivalentParents,
             StrCat(lhs.ToString(), " ! ", rhs.ToString()),
             "no equivalent ancestor classes: Principle 4 generates no "
             "completion rules for this assertion"});
      }
    }

    if (assertion.rel == SetRel::kDerivation &&
        assertion.attr_corrs.empty() && assertion.value_corrs.empty()) {
      findings.push_back(
          {ConsistencyFinding::Severity::kWarning,
           ConsistencyFinding::Kind::kBareDerivation,
           StrCat(lhs.ToString(), " -> ", rhs.ToString()),
           "no attribute or value correspondences: the generated rule "
           "shares no variables and derives attribute-less objects"});
    }
  }
  return findings;
}

bool HasErrors(const std::vector<ConsistencyFinding>& findings) {
  return std::any_of(findings.begin(), findings.end(),
                     [](const ConsistencyFinding& f) {
                       return f.severity ==
                              ConsistencyFinding::Severity::kError;
                     });
}

}  // namespace ooint
