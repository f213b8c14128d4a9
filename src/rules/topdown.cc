#include "rules/topdown.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "rules/matcher.h"
#include "rules/planner.h"

namespace ooint {

void TopDownEvaluator::AddSource(const std::string& schema_name,
                                 const InstanceStore* store) {
  sources_.push_back({schema_name, store});
}

Status TopDownEvaluator::BindConcept(const std::string& concept_name,
                                     const std::string& schema_name,
                                     const std::string& class_name) {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].schema_name != schema_name) continue;
    if (sources_[i].store->schema().FindClass(class_name) ==
        kInvalidClassId) {
      return Status::NotFound(StrCat("class '", class_name,
                                     "' not in source schema '", schema_name,
                                     "'"));
    }
    bindings_decl_[concept_name].push_back({i, class_name});
    return Status::OK();
  }
  return Status::NotFound(
      StrCat("no source registered for schema '", schema_name, "'"));
}

Status TopDownEvaluator::AddRule(Rule rule) {
  if (rule.documentation_only) {
    return Status::Unsupported(
        StrCat("rule is documentation-only: ", rule.ToString()));
  }
  if (rule.disjunctive_head || rule.head.size() != 1 ||
      rule.head.front().kind == Literal::Kind::kCompare) {
    return Status::Unsupported(
        StrCat("top-down evaluation handles definite rules only: ",
               rule.ToString()));
  }
  for (const Literal& literal : rule.body) {
    if (literal.negated) {
      return Status::Unsupported(
          StrCat("top-down evaluation (Appendix B) handles positive rules "
                 "only: ",
                 rule.ToString()));
    }
  }
  OOINT_RETURN_IF_ERROR(CheckRuleSafety(rule));
  const std::vector<std::string> heads = rule.HeadConceptNames();
  rules_by_head_[heads.front()].push_back(rules_.size());
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Result<TopDownEvaluator::Extent> TopDownEvaluator::BaseFacts(
    const std::string& concept_name) {
  Extent out;
  auto it = bindings_decl_.find(concept_name);
  if (it == bindings_decl_.end()) return out;
  for (const ConceptBinding& binding : it->second) {
    ++stats_.base_lookups;
    const Source& source = sources_[binding.source_index];
    Result<std::vector<Oid>> extent =
        source.store->Extent(binding.class_name);
    if (!extent.ok()) return extent.status();
    for (const Oid& oid : extent.value()) {
      const Object* object = source.store->Find(oid);
      if (object == nullptr) continue;
      Fact fact = Fact::FromObject(concept_name, *object);
      const FactId id = universe_.InsertOrFind(fact);
      out.Add(std::move(fact), id);
    }
  }
  return out;
}

Result<TopDownEvaluator::Extent> TopDownEvaluator::ApplyRule(
    const Rule& rule, const std::map<std::string, Value>& seed) {
  ++stats_.rule_invocations;

  // evaluation(p_i, R_i) for every body O-term; then join left-to-right.
  // The join is performed by accumulating binding sets, which is
  // equivalent to temp_1 ⋈ ... ⋈ temp_n on the shared variables.
  FactMatcher matcher(
      [this](const Oid& oid) { return universe_.ViewByOid(oid); }, nullptr);

  // Pre-evaluate each body concept_name (the recursive calls of Appendix B).
  std::map<std::string, const Extent*> body_facts;
  for (const Literal& literal : rule.body) {
    if (literal.kind != Literal::Kind::kOTerm) continue;
    const std::string& concept_name = literal.oterm.class_name;
    if (body_facts.count(concept_name) != 0) continue;
    Result<const Extent*> facts = Solve(concept_name);
    if (!facts.ok()) return facts.status();
    body_facts.emplace(concept_name, facts.value());
  }

  // Cost-based body order: extent estimates are the sizes of the
  // pre-fetched temp relations; the seed's variables are bound up
  // front. Bodies here are negation-free (AddRule enforces it), so
  // reordering O-terms is always safe, and comparisons keep their
  // decidability constraints via the planner's binding replay.
  PlannerInput pin;
  pin.rule = &rule;
  pin.extent_cost.assign(rule.body.size(), -1.0);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& l = rule.body[i];
    if (l.kind != Literal::Kind::kOTerm) continue;
    pin.extent_cost[i] =
        static_cast<double>(body_facts[l.oterm.class_name]->ids.size());
  }
  for (const auto& [var, value] : seed) pin.initial_bound.insert(var);
  const BodyPlan plan = PlanBody(pin, PlannerMode::kCostBased);
  if (plan.reordered) ++stats_.plan_reorders;

  std::vector<Bindings> solutions = {Bindings(seed.begin(), seed.end())};
  for (const std::uint32_t pick : plan.order) {
    const Literal& literal = rule.body[pick];
    std::vector<Bindings> next;
    if (literal.kind == Literal::Kind::kOTerm) {
      ++stats_.joins;
      // The body concept's facts, read as the records they were
      // inserted as.
      const std::vector<FactId>& ids =
          body_facts[literal.oterm.class_name]->ids;
      const CompiledOTerm pattern(literal.oterm);
      MatchFrame frame;
      for (const Bindings& bindings : solutions) {
        frame.Reset(&pattern, &bindings);
        for (const FactId id : ids) {
          matcher.Match(universe_.ViewById(id), &frame,
                        [&](const MatchFrame& match) {
                          next.push_back(match.ToBindings());
                        });
        }
      }
    } else if (literal.kind == Literal::Kind::kCompare) {
      for (const Bindings& bindings : solutions) {
        Value lhs;
        Value rhs;
        const bool lhs_ok = ResolveArg(literal.cmp_lhs, bindings, &lhs);
        const bool rhs_ok = ResolveArg(literal.cmp_rhs, bindings, &rhs);
        if (literal.cmp_op == CompareOp::kEq && lhs_ok != rhs_ok) {
          const TermArg& unbound =
              lhs_ok ? literal.cmp_rhs : literal.cmp_lhs;
          if (!unbound.is_variable()) continue;
          Bindings b = bindings;
          b[unbound.var] = lhs_ok ? lhs : rhs;
          next.push_back(std::move(b));
          continue;
        }
        if (!lhs_ok || !rhs_ok) {
          return Status::FailedPrecondition(StrCat(
              "comparison over unbound variables: ", literal.ToString()));
        }
        Result<bool> cmp = Compare(lhs, literal.cmp_op, rhs);
        if (!cmp.ok()) return cmp.status();
        if (cmp.value()) next.push_back(bindings);
      }
    } else {
      return Status::Unsupported(
          "ordinary predicates are not supported top-down");
    }
    solutions = std::move(next);
    if (solutions.empty()) break;
  }

  // Instantiate the head for each solution.
  const OTerm& head = rule.head.front().oterm;
  Extent out;
  // The universe's de-duplication on (concept, oid, attrs) decides which
  // head facts are one; skolem OIDs are content-addressed, so pre-skolem
  // duplicates collapse there too.
  std::unordered_set<FactId> seen;
  for (const Bindings& bindings : solutions) {
    Fact fact;
    fact.concept_name = head.class_name;
    bool ok = true;
    auto flatten = [&](auto&& self, const std::vector<AttrDescriptor>& ds,
                       const std::string& prefix) -> void {
      for (const AttrDescriptor& d : ds) {
        if (!ok) return;
        const std::string full =
            prefix.empty() ? d.attribute : StrCat(prefix, ".", d.attribute);
        if (d.value.is_nested()) {
          self(self, d.value.nested, full);
          continue;
        }
        if (d.value.is_constant()) {
          fact.attrs[full] = d.value.constant;
          continue;
        }
        auto it = bindings.find(d.value.var);
        if (it == bindings.end()) {
          if (!d.value.var.empty() && d.value.var[0] == '_') continue;
          ok = false;
          return;
        }
        fact.attrs[full] = it->second;
      }
    };
    flatten(flatten, head.attrs, "");
    if (!ok) continue;

    bool skolem = true;
    if (head.object.is_variable()) {
      auto it = bindings.find(head.object.var);
      if (it != bindings.end() && it->second.kind() == ValueKind::kOid) {
        fact.oid = it->second.AsOid();
        skolem = false;
      }
    } else if (head.object.is_constant() &&
               head.object.constant.kind() == ValueKind::kOid) {
      fact.oid = head.object.constant.AsOid();
      skolem = false;
    }
    if (skolem) {
      fact.oid = Oid("derived", "ooint", "global", fact.concept_name,
                     HashFactAttrs(fact));
    }
    const FactId id = universe_.InsertOrFind(fact);
    if (!seen.insert(id).second) continue;
    out.Add(std::move(fact), id);
  }
  return out;
}

Result<std::vector<Fact>> TopDownEvaluator::EvaluateFiltered(
    const std::string& concept_name,
    const std::map<std::string, Value>& filter) {
  if (filter.empty()) return Evaluate(concept_name);

  auto matches_filter = [&](const Fact& fact) {
    for (const auto& [attr, value] : filter) {
      auto it = fact.attrs.find(attr);
      if (it == fact.attrs.end()) return false;
      if (it->second.kind() == ValueKind::kSet) {
        if (!it->second.SetContains(value)) return false;
      } else if (it->second != value) {
        return false;
      }
    }
    return true;
  };

  // temp: filtered base extents.
  Result<Extent> base = BaseFacts(concept_name);
  if (!base.ok()) return base.status();
  std::vector<Fact> result;
  for (Fact& fact : base.value().facts) {
    if (matches_filter(fact)) result.push_back(std::move(fact));
  }

  // temp': rules with the filter's constants propagated into the head's
  // variables before the body join.
  auto rules = rules_by_head_.find(concept_name);
  if (rules != rules_by_head_.end()) {
    for (size_t index : rules->second) {
      const Rule& rule = rules_[index];
      const OTerm& head = rule.head.front().oterm;
      std::map<std::string, Value> seed;
      bool contradiction = false;
      for (const AttrDescriptor& d : head.attrs) {
        if (d.attr_is_variable || d.value.is_nested()) continue;
        auto it = filter.find(d.attribute);
        if (it == filter.end()) continue;
        if (d.value.is_constant()) {
          if (d.value.constant != it->second) contradiction = true;
          continue;
        }
        seed.emplace(d.value.var, it->second);
      }
      if (contradiction) continue;
      Result<Extent> derived = ApplyRule(rule, seed);
      if (!derived.ok()) return derived.status();
      for (Fact& fact : derived.value().facts) {
        if (matches_filter(fact)) result.push_back(std::move(fact));
      }
    }
  }
  return result;
}

Result<std::vector<Fact>> TopDownEvaluator::Evaluate(
    const std::string& concept_name) {
  Result<const Extent*> extent = Solve(concept_name);
  if (!extent.ok()) return extent.status();
  return extent.value()->facts;
}

Result<const TopDownEvaluator::Extent*> TopDownEvaluator::Solve(
    const std::string& concept_name) {
  auto memo = memo_.find(concept_name);
  if (memo != memo_.end()) {
    ++stats_.memo_hits;
    return &memo->second;
  }
  if (in_progress_.count(concept_name) != 0) {
    return Status::Unsupported(
        StrCat("recursive concept_name '", concept_name,
               "' is not supported by the top-down evaluator"));
  }
  in_progress_.insert(concept_name);

  // temp := ∪_{s ∈ S} results of evaluating q against s.
  Result<Extent> base = BaseFacts(concept_name);
  if (!base.ok()) {
    in_progress_.erase(concept_name);
    return base.status();
  }
  Extent result = std::move(base).value();
  // result := temp ∪ temp' for every rule defining q, a derived fact
  // once unless the universe already holds it as one of result's.
  std::unordered_set<FactId> held(result.ids.begin(), result.ids.end());
  auto rules = rules_by_head_.find(concept_name);
  if (rules != rules_by_head_.end()) {
    for (size_t index : rules->second) {
      Result<Extent> derived = ApplyRule(rules_[index], {});
      if (!derived.ok()) {
        in_progress_.erase(concept_name);
        return derived.status();
      }
      Extent& facts = derived.value();
      for (size_t i = 0; i < facts.ids.size(); ++i) {
        if (!held.insert(facts.ids[i]).second) continue;
        result.Add(std::move(facts.facts[i]), facts.ids[i]);
      }
    }
  }
  in_progress_.erase(concept_name);
  return &memo_.emplace(concept_name, std::move(result)).first->second;
}

}  // namespace ooint
