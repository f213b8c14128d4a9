#include "rules/magic.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace ooint {
namespace {

constexpr std::string_view kMagicPrefix = "__magic[";

std::string MagicName(const std::string& concept_name, const Adornment& a) {
  return StrCat(kMagicPrefix, concept_name, "|", a.ToString(), "]");
}

bool HasNestedArg(const TermArg& arg) { return arg.is_nested(); }

bool HasNestedDescriptor(const std::vector<AttrDescriptor>& attrs) {
  for (const AttrDescriptor& d : attrs) {
    if (HasNestedArg(d.value)) return true;
  }
  return false;
}

bool LiteralHasNested(const Literal& literal) {
  switch (literal.kind) {
    case Literal::Kind::kOTerm:
      return HasNestedArg(literal.oterm.object) ||
             HasNestedDescriptor(literal.oterm.attrs);
    case Literal::Kind::kPredicate:
      for (const TermArg& arg : literal.args) {
        if (HasNestedArg(arg)) return true;
      }
      return false;
    case Literal::Kind::kCompare:
      return HasNestedArg(literal.cmp_lhs) || HasNestedArg(literal.cmp_rhs);
  }
  return false;
}

bool LiteralHasSchematicAttr(const Literal& literal) {
  if (literal.kind != Literal::Kind::kOTerm) return false;
  for (const AttrDescriptor& d : literal.oterm.attrs) {
    if (d.attr_is_variable) return true;
  }
  return false;
}

/// True for a positive literal that binds its variables (O-terms and
/// ordinary predicates; comparisons only test).
bool IsPositiveFactLiteral(const Literal& literal) {
  return !literal.negated && literal.kind != Literal::Kind::kCompare;
}

void InsertVariables(const Literal& literal, std::set<std::string>* out) {
  std::vector<std::string> vars;
  CollectVariables(literal, &vars);
  out->insert(vars.begin(), vars.end());
}

void InsertVariables(const TermArg& arg, std::set<std::string>* out) {
  std::vector<std::string> vars;
  CollectVariables(arg, &vars);
  out->insert(vars.begin(), vars.end());
}

/// Finds the head descriptor for attribute `attr` (nullptr when the rule
/// head carries no explicit, non-schematic descriptor for it).
const AttrDescriptor* FindHeadDescriptor(const OTerm& head,
                                         const std::string& attr) {
  for (const AttrDescriptor& d : head.attrs) {
    if (!d.attr_is_variable && d.attribute == attr) return &d;
  }
  return nullptr;
}

struct Demand {
  std::string concept_name;
  Adornment adornment;
};

}  // namespace

std::string Adornment::ToString() const {
  std::string out;
  if (object_bound) out = "o";
  if (!attrs.empty()) {
    if (object_bound) out += "|";
    out += Join(attrs, ",");
  }
  return out;
}

Adornment GoalBinding::ToAdornment() const {
  Adornment a;
  a.object_bound = object_bound;
  for (const auto& [name, value] : attrs) a.attrs.push_back(name);
  return a;
}

GoalBinding ExtractGoalBinding(const OTerm& pattern) {
  GoalBinding goal;
  goal.concept_name = pattern.class_name;
  if (pattern.object.is_constant()) {
    goal.object_bound = true;
    goal.object = pattern.object.constant;
  } else if (pattern.object.is_nested()) {
    goal.has_nested = true;
  }
  for (const AttrDescriptor& d : pattern.attrs) {
    if (d.value.is_nested()) {
      goal.has_nested = true;
      continue;
    }
    if (d.attr_is_variable) continue;  // schematic: nothing concrete bound
    if (d.value.is_constant()) goal.attrs[d.attribute] = d.value.constant;
  }
  return goal;
}

// Also consulted by the cost planner (Evaluator::ComputePlan): magic
// extents hold only demanded bindings, so their estimates get a 4x
// selectivity discount — a magic guard should open a planned body
// ahead of a similarly-sized base extent.
bool IsMagicConceptName(const std::string& name) {
  return name.rfind(kMagicPrefix, 0) == 0;
}

namespace {

/// Implements the rewrite over the program's dependency graph.
class Rewriter {
 public:
  Rewriter(const RuleGraph& graph, const GoalBinding& goal)
      : graph_(graph), goal_(goal) {}

  MagicProgram Run() {
    std::vector<std::string> reachable = graph_.Closure(goal_.concept_name);
    std::sort(reachable.begin(), reachable.end());
    out_.reachable_concepts = std::move(reachable);
    CheckAdornability();
    if (!out_.fallback_reason.empty()) return std::move(out_);

    Adornment a0 = Supported(goal_.concept_name, goal_.ToAdornment());
    out_.goal_adornment = a0.ToString();
    if (a0.empty()) {
      out_.fallback_reason = goal_.ToAdornment().empty()
                                 ? "goal has no bound positions"
                                 : "no bound goal position survives "
                                   "head-support analysis";
      return std::move(out_);
    }

    DemandConcept(goal_.concept_name, a0);
    while (!work_.empty()) {
      Demand d = work_.front();
      work_.pop_front();
      RewriteConcept(d);
    }
    // An EDB goal has no rules to guard: the rewrite degenerates to pure
    // relevance pruning, which is exactly right.
    if (IsIdb(goal_.concept_name)) SeedGoal(a0);
    out_.applied = true;
    return std::move(out_);
  }

 private:
  bool IsIdb(const std::string& concept_name) const {
    return !graph_.Defining(concept_name).empty();
  }

  /// Scans every reachable rule for constructs the rewrite cannot adorn
  /// soundly; records the first blocking reason. Nested descriptors also
  /// defeat the relevance analysis (the matcher navigates stored OIDs
  /// into concepts reachability does not see).
  void CheckAdornability() {
    if (goal_.has_nested) {
      out_.relevance_safe = false;
      out_.fallback_reason = "goal pattern uses nested descriptors";
    }
    for (const std::string& head : out_.reachable_concepts) {
      for (size_t index : graph_.Defining(head)) {
        const Rule* rule = &graph_.rule(index);
        if (rule->head.size() != 1 && out_.fallback_reason.empty()) {
          out_.fallback_reason =
              StrCat("multi-literal head in rule for '", head, "'");
        }
        std::vector<Literal> literals = rule->head;
        literals.insert(literals.end(), rule->body.begin(), rule->body.end());
        for (const Literal& literal : literals) {
          if (LiteralHasNested(literal)) {
            out_.relevance_safe = false;
            if (out_.fallback_reason.empty()) {
              out_.fallback_reason =
                  StrCat("nested descriptors in rule for '", head, "'");
            }
          }
          if (out_.fallback_reason.empty() &&
              LiteralHasSchematicAttr(literal)) {
            out_.fallback_reason = StrCat(
                "schematic attribute variable in rule for '", head, "'");
          }
          if (out_.fallback_reason.empty() && literal.negated &&
              IsIdb(literal.concept_name())) {
            out_.fallback_reason =
                StrCat("negated derived concept '", literal.concept_name(),
                       "' in rule for '", head, "'");
          }
        }
      }
    }
  }

  /// Intersects `a` with what every defining rule of `concept_name` can
  /// support: a bound position is kept only when each rule's head has an
  /// explicit argument there whose value is a constant or a variable the
  /// positive body binds (the evaluator's attribute-merge path may attach
  /// further attributes after derivation, and existential head variables
  /// are chosen by the evaluator — binding either through a magic literal
  /// would lose answers).
  Adornment Supported(const std::string& concept_name, Adornment a) const {
    // An EDB concept has no defining rule: every position is stored.
    for (size_t index : graph_.Defining(concept_name)) {
      if (a.empty()) break;
      const Rule& rule = graph_.rule(index);
      const Literal& head = rule.head.front();
      std::set<std::string> body_vars;
      for (const Literal& literal : rule.body) {
        if (IsPositiveFactLiteral(literal)) InsertVariables(literal, &body_vars);
      }
      auto supported_arg = [&](const TermArg& arg) {
        if (arg.is_constant()) return true;
        if (!arg.is_variable()) return false;
        return !arg.var.empty() && arg.var[0] != '_' &&
               body_vars.count(arg.var) > 0;
      };
      if (a.object_bound) {
        a.object_bound = head.kind == Literal::Kind::kOTerm &&
                         supported_arg(head.oterm.object);
      }
      std::vector<std::string> kept;
      for (const std::string& attr : a.attrs) {
        const TermArg* arg = nullptr;
        if (head.kind == Literal::Kind::kOTerm) {
          const AttrDescriptor* d = FindHeadDescriptor(head.oterm, attr);
          if (d != nullptr) arg = &d->value;
        } else if (head.kind == Literal::Kind::kPredicate) {
          size_t index = 0;
          for (char c : attr) {
            if (c < '0' || c > '9') { index = head.args.size(); break; }
            index = index * 10 + static_cast<size_t>(c - '0');
          }
          if (index < head.args.size()) arg = &head.args[index];
        }
        if (arg != nullptr && supported_arg(*arg)) kept.push_back(attr);
      }
      a.attrs = std::move(kept);
    }
    return a;
  }

  /// Registers demand for an IDB concept under `a`. An *empty* adornment
  /// is a pure reachability demand: the guard predicate is 0-ary and the
  /// concept's rules fire fully once any demand tuple exists — without
  /// it the concept's defining rules would be absent from the rewritten
  /// program and answers feeding the demanding rule would be lost.
  void DemandConcept(const std::string& concept_name, const Adornment& a) {
    if (!IsIdb(concept_name)) return;  // EDB extents are fetched, not derived
    if (demanded_.insert(MagicName(concept_name, a)).second) {
      work_.push_back({concept_name, a});
    }
  }

  /// The magic-literal arguments for a head or body literal under `a`:
  /// object position first (when bound), then the adorned attributes in
  /// sorted order. Every position is guaranteed present — Supported()
  /// only keeps positions with an explicit argument, and body adornments
  /// are built from the literal's own descriptors.
  std::vector<TermArg> MagicArgs(const Literal& literal,
                                 const Adornment& a) const {
    std::vector<TermArg> args;
    if (literal.kind == Literal::Kind::kOTerm) {
      if (a.object_bound) args.push_back(literal.oterm.object);
      for (const std::string& attr : a.attrs) {
        const AttrDescriptor* d = FindHeadDescriptor(literal.oterm, attr);
        args.push_back(d != nullptr ? d->value : TermArg::Variable("_"));
      }
    } else {
      for (const std::string& attr : a.attrs) {
        size_t index = 0;
        for (char c : attr) index = index * 10 + static_cast<size_t>(c - '0');
        args.push_back(index < literal.args.size()
                           ? literal.args[index]
                           : TermArg::Variable("_"));
      }
    }
    return args;
  }

  /// The adornment a body literal receives from the variables bound so
  /// far (constants always count).
  Adornment AdornFromLiteral(const Literal& literal,
                             const std::set<std::string>& bound) const {
    auto arg_bound = [&](const TermArg& arg) {
      if (arg.is_constant()) return true;
      return arg.is_variable() && bound.count(arg.var) > 0;
    };
    Adornment a;
    if (literal.kind == Literal::Kind::kOTerm) {
      a.object_bound = arg_bound(literal.oterm.object);
      for (const AttrDescriptor& d : literal.oterm.attrs) {
        if (d.attr_is_variable || d.value.is_nested()) continue;
        if (arg_bound(d.value)) a.attrs.push_back(d.attribute);
      }
      std::sort(a.attrs.begin(), a.attrs.end());
      a.attrs.erase(std::unique(a.attrs.begin(), a.attrs.end()),
                    a.attrs.end());
    } else {
      for (size_t i = 0; i < literal.args.size(); ++i) {
        if (arg_bound(literal.args[i])) a.attrs.push_back(StrCat(i));
      }
    }
    return a;
  }

  /// Emits the guarded rule copies and magic rules for one demanded
  /// (concept, adornment).
  void RewriteConcept(const Demand& d) {
    const std::string magic_name = MagicName(d.concept_name, d.adornment);
    for (size_t index : graph_.Defining(d.concept_name)) {
      const Rule* rule = &graph_.rule(index);
      // Guarded copy: the magic literal is *prepended* so the join
      // planner's bound-first pick starts from the demand tuple.
      Rule guarded = *rule;
      Literal guard = Literal::OfPredicate(
          magic_name, MagicArgs(rule->head.front(), d.adornment));
      guarded.body.insert(guarded.body.begin(), guard);
      guarded.provenance = StrCat("magic-guarded(", rule->provenance, ")");
      out_.rules.push_back(std::move(guarded));
      ++out_.guarded_rules;

      // Connected sideways information passing, left-to-right over the
      // written body order: the bound set starts from the magic
      // arguments and grows only through positive fact literals that
      // *join* with it (share a bound variable). Unconnected literals
      // are left out of the demand chain — including them would make
      // every magic rule enumerate their full extent (a cross product)
      // for bindings the goal never supplied; leaving them out merely
      // over-approximates demand, which is sound. Comparisons and
      // negations are dropped for the same reason: they only test.
      std::set<std::string> bound;
      for (const TermArg& arg : guard.args) InsertVariables(arg, &bound);
      std::vector<Literal> prefix = {guard};
      for (const Literal& literal : rule->body) {
        if (!IsPositiveFactLiteral(literal)) continue;
        std::set<std::string> literal_vars;
        InsertVariables(literal, &literal_vars);
        bool connected = false;
        for (const std::string& var : literal_vars) {
          if (bound.count(var)) { connected = true; break; }
        }
        const std::string& dep = literal.concept_name();
        if (IsIdb(dep)) {
          Adornment a2 = Supported(
              dep, AdornFromLiteral(literal, connected ? bound
                                                       : std::set<std::string>()));
          Rule magic;
          magic.head.push_back(Literal::OfPredicate(
              MagicName(dep, a2), MagicArgs(literal, a2)));
          magic.body = prefix;
          magic.provenance = StrCat("magic(", dep, "|", a2.ToString(), ")");
          out_.rules.push_back(std::move(magic));
          ++out_.magic_rules;
          DemandConcept(dep, a2);
        }
        if (connected) {
          bound.insert(literal_vars.begin(), literal_vars.end());
          prefix.push_back(literal);
        }
      }
    }
  }

  /// The goal's demand tuple: one magic fact carrying the bound values,
  /// positionally matching MagicArgs (object first, then sorted attrs).
  void SeedGoal(const Adornment& a0) {
    Fact seed;
    seed.concept_name = MagicName(goal_.concept_name, a0);
    size_t position = 0;
    if (a0.object_bound) seed.attrs[StrCat(position++)] = goal_.object;
    for (const std::string& attr : a0.attrs) {
      seed.attrs[StrCat(position++)] = goal_.attrs.at(attr);
    }
    out_.seeds.push_back(std::move(seed));
  }

  const RuleGraph& graph_;
  const GoalBinding& goal_;
  MagicProgram out_;
  std::set<std::string> demanded_;
  std::deque<Demand> work_;
};

}  // namespace

MagicProgram MagicRewrite(const std::vector<Rule>& rules,
                          const GoalBinding& goal) {
  return MagicRewrite(RuleGraph(rules), goal);
}

MagicProgram MagicRewrite(const RuleGraph& graph, const GoalBinding& goal) {
  return Rewriter(graph, goal).Run();
}

}  // namespace ooint
