#include "rules/rule.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace ooint {

std::string Rule::ToString() const {
  std::vector<std::string> head_parts;
  head_parts.reserve(head.size());
  for (const Literal& l : head) head_parts.push_back(l.ToString());
  std::vector<std::string> body_parts;
  body_parts.reserve(body.size());
  for (const Literal& l : body) body_parts.push_back(l.ToString());
  return StrCat(Join(head_parts, disjunctive_head ? " | " : " & "), " <= ",
                Join(body_parts, ", "));
}

namespace {

void AppendConceptName(const Literal& literal, std::vector<std::string>* out) {
  if (literal.kind != Literal::Kind::kCompare) {
    out->push_back(literal.concept_name());
  }
}

}  // namespace

std::vector<std::string> Rule::HeadConceptNames() const {
  std::vector<std::string> out;
  for (const Literal& l : head) AppendConceptName(l, &out);
  return out;
}

std::vector<std::string> Rule::BodyConceptNames(bool positive_only) const {
  std::vector<std::string> out;
  for (const Literal& l : body) {
    if (positive_only && l.negated) continue;
    AppendConceptName(l, &out);
  }
  return out;
}

Status CheckRuleSafety(const Rule& rule) {
  std::set<std::string> bound;
  for (const Literal& l : rule.body) {
    if (l.negated || l.kind == Literal::Kind::kCompare) continue;
    std::vector<std::string> vars;
    CollectVariables(l, &vars);
    bound.insert(vars.begin(), vars.end());
  }
  // Equality comparisons propagate bindings across; iterate to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : rule.body) {
      if (l.kind != Literal::Kind::kCompare || l.cmp_op != CompareOp::kEq) {
        continue;
      }
      std::vector<std::string> lhs_vars;
      std::vector<std::string> rhs_vars;
      CollectVariables(l.cmp_lhs, &lhs_vars);
      CollectVariables(l.cmp_rhs, &rhs_vars);
      const bool lhs_bound = std::all_of(
          lhs_vars.begin(), lhs_vars.end(),
          [&](const std::string& v) { return bound.count(v) != 0; });
      const bool rhs_bound = std::all_of(
          rhs_vars.begin(), rhs_vars.end(),
          [&](const std::string& v) { return bound.count(v) != 0; });
      if (lhs_bound || rhs_bound) {
        for (const std::string& v : lhs_vars) {
          changed |= bound.insert(v).second;
        }
        for (const std::string& v : rhs_vars) {
          changed |= bound.insert(v).second;
        }
      }
    }
  }
  auto check = [&](const Literal& l, const char* where) -> Status {
    std::vector<std::string> vars;
    CollectVariables(l, &vars);
    for (const std::string& v : vars) {
      // Variables prefixed with '_' are existential: they name newly
      // derived objects (head object positions of Principle-5 rules) and
      // are skolemized by the evaluator.
      if (!v.empty() && v[0] == '_') continue;
      if (bound.count(v) == 0) {
        return Status::FailedPrecondition(
            StrCat("unsafe rule: variable '", v, "' in ", where,
                   " literal is not bound by a positive body literal: ",
                   rule.ToString()));
      }
    }
    return Status::OK();
  };
  for (const Literal& l : rule.head) {
    OOINT_RETURN_IF_ERROR(check(l, "head"));
  }
  for (const Literal& l : rule.body) {
    if (l.negated) {
      OOINT_RETURN_IF_ERROR(check(l, "negated body"));
    } else if (l.kind == Literal::Kind::kCompare) {
      OOINT_RETURN_IF_ERROR(check(l, "comparison"));
    }
  }
  return Status::OK();
}

}  // namespace ooint
