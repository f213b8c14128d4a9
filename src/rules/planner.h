#ifndef OOINT_RULES_PLANNER_H_
#define OOINT_RULES_PLANNER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "rules/rule.h"

namespace ooint {

/// How rule bodies are ordered for evaluation.
enum class PlannerMode {
  /// Selectivity-driven: the connectivity SIP (most-bound-first, the
  /// historical dynamic heuristic) is replayed from a precomputed plan,
  /// and overridden when cost estimates prove another literal cheaper
  /// by a clear margin (kCostMargin).
  kCostBased,
  /// Forced left-to-right, indexes still on — the conformance family
  /// 12 foil (planner-vs-fixed-SIP), and a debugging escape hatch.
  /// Sound for every body the naive oracle can evaluate, since the
  /// oracle is itself strictly left-to-right.
  kFixedSip,
};

/// A precomputed body evaluation order: order[d] is the body literal
/// consumed at recursion depth d. SolveBody replays it for every body
/// it solves, so no per-row work goes into choosing literals.
struct BodyPlan {
  std::vector<std::uint32_t> order;
  /// Existence components (DESIGN.md 4c), planned first: the k-th one
  /// is order[existence_ends[k-1], existence_ends[k]) (from depth 0 for
  /// k = 0). None shares a variable with the head or another component,
  /// so each is solved only to its first solution and the rest of
  /// `order` enumerates. Empty unless PlannerInput::split_existence.
  std::vector<std::uint32_t> existence_ends;
  /// True when cost estimates overrode the connectivity SIP for at
  /// least one pick — the Stats::plan_reorders event.
  bool reordered = false;
};

/// Everything the planner consumes. Costs are estimated cardinalities
/// of each body literal's concept extent at plan time (delta windows,
/// magic guards and incremental pivots discounted by the caller or via
/// the dedicated fields below); filters and negations carry no cost.
struct PlannerInput {
  const Rule* rule = nullptr;
  /// Body position restricted to a delta window, or -1. Its estimate is
  /// discounted: the window is typically far smaller than the extent.
  int delta_literal = -1;
  /// Incremental single-fact pivot position, or -1 (estimate 1).
  int pivot_literal = -1;
  /// Per-body-literal extent estimates (size rule->body.size()); values
  /// < 0 mean unknown. Only positive fact literals are read.
  std::vector<double> extent_cost;
  /// Variables bound before the body runs (seeded joins).
  std::set<std::string> initial_bound;
  /// Plan the body's existence components first (BodyPlan::
  /// existence_ends). Only for a caller that reads nothing of a body
  /// solution but the head's variables and de-duplicates what it
  /// derives; kCostBased only.
  bool split_existence = false;
};

/// Cost margin: the cost-based pick must beat the connectivity pick's
/// estimate by this factor before the SIP is overridden ("provably
/// worse", with estimate error headroom).
inline constexpr double kCostMargin = 4.0;

/// Computes the body evaluation order for `in` by symbolically
/// replaying SolveBody's binding propagation: a consumed positive
/// literal binds every variable it mentions (a successful match always
/// does), a one-side-bound equality binds its other side, filters and
/// negations bind nothing. At every step, decidable filters and fully
/// bound negations run first (cheapest: no candidates at all); then,
/// among positive fact literals, the connectivity SIP picks the
/// most-bound one (delta literal breaking ties) and — in kCostBased
/// mode — is overridden when another literal's estimated candidate
/// count is kCostMargin times smaller. The result replays the exact
/// historical dynamic pick whenever estimates never clear the margin.
/// With split_existence, each existence component is ordered the same
/// way on its own — components by their first body literal — and the
/// head's components after them.
BodyPlan PlanBody(const PlannerInput& in, PlannerMode mode);

}  // namespace ooint

#endif  // OOINT_RULES_PLANNER_H_
