#include "rules/planner.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "rules/term.h"

namespace ooint {

namespace {

/// Mirrors ResolveArg's bound-ness: constants resolve, variables
/// resolve iff bound, nested descriptors never resolve.
bool ArgResolved(const TermArg& arg, const std::set<std::string>& bound) {
  switch (arg.kind) {
    case TermArg::Kind::kConstant:
      return true;
    case TermArg::Kind::kVariable:
      return bound.count(arg.var) > 0;
    case TermArg::Kind::kNested:
      return false;
  }
  return false;
}

bool AllBound(const Literal& literal, const std::set<std::string>& bound) {
  std::vector<std::string> vars;
  CollectVariables(literal, &vars);
  for (const std::string& v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

/// Bound variable *occurrences*, duplicates included — the SIP score's
/// unit.
int BoundCount(const Literal& literal, const std::set<std::string>& bound) {
  std::vector<std::string> vars;
  CollectVariables(literal, &vars);
  int n = 0;
  for (const std::string& v : vars) {
    if (bound.count(v) > 0) ++n;
  }
  return n;
}

/// Appends to `plan` the cost-based order of every body literal `done`
/// does not mark, marking each as it is picked.
void OrderLiterals(const PlannerInput& in, std::vector<char>* done_flags,
                   BodyPlan* plan) {
  const std::vector<Literal>& body = in.rule->body;
  const size_t n = body.size();
  std::vector<char>& done = *done_flags;
  std::set<std::string> bound = in.initial_bound;
  auto estimate = [&in](size_t i, int bound_occurrences) -> double {
    if (static_cast<int>(i) == in.pivot_literal) return 1.0;
    double est = i < in.extent_cost.size() && in.extent_cost[i] >= 0
                     ? in.extent_cost[i]
                     : 1024.0;
    // Delta windows are typically a small slice of the extent.
    if (static_cast<int>(i) == in.delta_literal) est /= 4.0;
    // Every bound variable is a potential index probe; credit each a
    // fixed selectivity, capped — these are estimates, not counts.
    for (int b = 0; b < bound_occurrences && b < 2; ++b) est /= 8.0;
    return est < 1.0 ? 1.0 : est;
  };

  const size_t steps =
      static_cast<size_t>(std::count(done.begin(), done.end(), 0));
  for (size_t step = 0; step < steps; ++step) {
    size_t pick = n;
    // (1) Decidable filters and fully bound negations run first — they
    // enumerate no candidates at all (first match wins, as at runtime).
    for (size_t i = 0; i < n && pick == n; ++i) {
      if (done[i]) continue;
      const Literal& literal = body[i];
      if (literal.kind == Literal::Kind::kCompare) {
        const bool lhs = ArgResolved(literal.cmp_lhs, bound);
        const bool rhs = ArgResolved(literal.cmp_rhs, bound);
        if ((lhs && rhs) || (literal.cmp_op == CompareOp::kEq &&
                             !literal.negated && (lhs || rhs))) {
          pick = i;
        }
      } else if (literal.negated) {
        if (AllBound(literal, bound)) pick = i;
      }
    }
    // (2) Positive fact literals: the connectivity SIP (most bound
    // occurrences, delta literal breaking ties, position order last),
    // overridden when another literal is provably cheaper.
    if (pick == n) {
      int best_score = -1;
      size_t sip = n;
      size_t cheap = n;
      double cheap_est = 0;
      for (size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        const Literal& literal = body[i];
        if (literal.kind == Literal::Kind::kCompare || literal.negated) {
          continue;
        }
        const int bc = BoundCount(literal, bound);
        int score = 2 * bc;
        if (static_cast<int>(i) == in.delta_literal) ++score;
        if (score > best_score) {
          best_score = score;
          sip = i;
        }
        const double est = estimate(i, bc);
        if (cheap == n || est < cheap_est) {
          cheap = i;
          cheap_est = est;
        }
      }
      if (sip != n) {
        pick = sip;
        if (cheap != n && cheap != sip) {
          const double sip_est = estimate(sip, BoundCount(body[sip], bound));
          if (cheap_est * kCostMargin <= sip_est) {
            pick = cheap;
            plan->reordered = true;
          }
        }
      }
    }
    // (3) Whatever is left keeps the written order (mirrors the runtime
    // fallback; an undecidable comparison will fail there as it always
    // did).
    if (pick == n) {
      for (size_t i = 0; i < n; ++i) {
        if (!done[i]) {
          pick = i;
          break;
        }
      }
    }
    done[pick] = 1;
    plan->order.push_back(static_cast<std::uint32_t>(pick));

    // Binding propagation: a consumed positive literal binds all its
    // variables (a successful match always does); a one-side-bound
    // equality binds its variable side; filters and negations bind
    // nothing.
    const Literal& literal = body[pick];
    if (literal.kind == Literal::Kind::kCompare) {
      if (literal.cmp_op == CompareOp::kEq && !literal.negated) {
        const bool lhs = ArgResolved(literal.cmp_lhs, bound);
        const bool rhs = ArgResolved(literal.cmp_rhs, bound);
        if (lhs != rhs) {
          const TermArg& unbound = lhs ? literal.cmp_rhs : literal.cmp_lhs;
          if (unbound.is_variable()) bound.insert(unbound.var);
        }
      }
    } else if (!literal.negated) {
      std::vector<std::string> vars;
      CollectVariables(literal, &vars);
      bound.insert(vars.begin(), vars.end());
    }
  }
}

/// The body's existence components: maximal sets of literals connected
/// by shared variables (attribute-name and nested-descriptor variables
/// included) that share none with the head, each listed in body order,
/// the components ordered by their first literal.
std::vector<std::vector<size_t>> ExistenceComponents(const Rule& rule) {
  const std::vector<Literal>& body = rule.body;
  // Union-find over body positions, joined through each variable's
  // first occurrence.
  std::vector<size_t> parent(body.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::map<std::string, size_t> first_use;
  for (size_t i = 0; i < body.size(); ++i) {
    std::vector<std::string> vars;
    CollectVariables(body[i], &vars);
    for (const std::string& v : vars) {
      auto [it, inserted] = first_use.emplace(v, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  std::vector<std::string> head_vars;
  CollectVariables(rule.head.front(), &head_vars);
  std::set<size_t> holds_head;
  for (const std::string& v : head_vars) {
    auto it = first_use.find(v);
    if (it != first_use.end()) holds_head.insert(find(it->second));
  }
  std::vector<std::vector<size_t>> components;
  std::map<size_t, size_t> index_of;  // root -> position in components
  for (size_t i = 0; i < body.size(); ++i) {
    const size_t root = find(i);
    if (holds_head.count(root) != 0) continue;
    auto [it, inserted] = index_of.emplace(root, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(i);
  }
  return components;
}

}  // namespace

BodyPlan PlanBody(const PlannerInput& in, PlannerMode mode) {
  const size_t n = in.rule->body.size();
  BodyPlan plan;
  plan.order.reserve(n);
  if (mode == PlannerMode::kFixedSip) {
    for (size_t i = 0; i < n; ++i) {
      plan.order.push_back(static_cast<std::uint32_t>(i));
    }
    return plan;
  }
  std::vector<char> done(n, 0);
  if (in.split_existence) {
    for (const std::vector<size_t>& component : ExistenceComponents(*in.rule)) {
      // Ordered on its own: every literal outside it counts as done.
      std::vector<char> outside(n, 1);
      for (size_t i : component) outside[i] = 0;
      OrderLiterals(in, &outside, &plan);
      for (size_t i : component) done[i] = 1;
      plan.existence_ends.push_back(
          static_cast<std::uint32_t>(plan.order.size()));
    }
  }
  OrderLiterals(in, &done, &plan);
  return plan;
}

}  // namespace ooint
