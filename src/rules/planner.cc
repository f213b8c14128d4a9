#include "rules/planner.h"

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

}  // namespace

BodyPlan PlanBody(const PlannerInput& in, PlannerMode mode) {
  const std::vector<Literal>& body = in.rule->body;
  const size_t n = body.size();
  BodyPlan plan;
  plan.order.reserve(n);
  if (mode == PlannerMode::kFixedSip) {
    for (size_t i = 0; i < n; ++i) {
      plan.order.push_back(static_cast<std::uint32_t>(i));
    }
    return plan;
  }

  std::set<std::string> bound = in.initial_bound;
  std::vector<char> done(n, 0);
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

  for (size_t step = 0; step < n; ++step) {
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
            plan.reordered = true;
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
    plan.order.push_back(static_cast<std::uint32_t>(pick));

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
  return plan;
}

}  // namespace ooint
