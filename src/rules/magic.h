#ifndef OOINT_RULES_MAGIC_H_
#define OOINT_RULES_MAGIC_H_

#include <map>
#include <string>
#include <vector>

#include "model/value.h"
#include "rules/fact.h"
#include "rules/rule.h"
#include "rules/rule_graph.h"
#include "rules/term.h"

namespace ooint {

/// Which argument positions of a demanded concept arrive bound: the
/// object position and/or a set of attribute names (predicate concepts
/// use their positional names "0", "1", ...). Attribute names are kept
/// sorted and deduplicated so an adornment has one canonical spelling.
struct Adornment {
  bool object_bound = false;
  std::vector<std::string> attrs;

  bool empty() const { return !object_bound && attrs.empty(); }
  /// Canonical key, e.g. "o|Ussn#" or "niece_nephew" or "" (unbound).
  std::string ToString() const;
};

/// The goal's concrete bound values, extracted from a query pattern:
/// constants in the pattern become bound positions; variables and
/// nested descriptors do not bind.
struct GoalBinding {
  std::string concept_name;
  bool object_bound = false;
  Value object;
  std::map<std::string, Value> attrs;
  /// True when the pattern carries a nested attribute descriptor —
  /// matching it navigates stored OIDs to other concepts, so the
  /// relevance analysis below would under-approximate.
  bool has_nested = false;

  Adornment ToAdornment() const;
};

GoalBinding ExtractGoalBinding(const OTerm& pattern);

/// Result of the demand transformation for one goal.
///
/// When `applied`, `rules` is the rewritten program: one guarded copy
/// of each defining rule per demanded (concept, adornment), with a
/// magic-predicate literal prepended, plus the magic rules that derive
/// demand sideways left-to-right; `seeds` holds the goal's magic seed
/// fact(s). When the program cannot be adorned soundly, `applied` is
/// false and `fallback_reason` records why — the caller evaluates the
/// original (relevance-restricted) rules instead.
///
/// `reachable_concepts` is always valid: the goal's RuleGraph::Closure
/// (negated literals included — a negated concept's full extent is
/// still needed for soundness). It drives relevance-pruned extent
/// fetching unless `relevance_safe` is false (nested descriptors can
/// navigate OIDs into unlisted concepts).
struct MagicProgram {
  bool applied = false;
  std::string fallback_reason;
  std::string goal_adornment;

  std::vector<Rule> rules;
  std::vector<Fact> seeds;

  std::vector<std::string> reachable_concepts;  // sorted, deduplicated
  bool relevance_safe = true;

  size_t magic_rules = 0;
  size_t guarded_rules = 0;
};

/// True for the internal magic-predicate names ("__magic[...]") so the
/// federation layer can filter them from user-facing reports.
bool IsMagicConceptName(const std::string& name);

/// Rewrites `rules` for goal-directed evaluation of `goal` (magic sets
/// with left-to-right sideways information passing). Sound fallbacks —
/// see MagicProgram. Binding positions that some defining rule cannot
/// support (no explicit head descriptor, or a head value the positive
/// body does not bind — the evaluator's attribute-merge path may still
/// attach such attributes) are dropped from the adornment rather than
/// risking lost answers.
MagicProgram MagicRewrite(const std::vector<Rule>& rules,
                          const GoalBinding& goal);
/// The same rewrite over an already built graph of the program.
MagicProgram MagicRewrite(const RuleGraph& graph, const GoalBinding& goal);

}  // namespace ooint

#endif  // OOINT_RULES_MAGIC_H_
