#ifndef OOINT_RULES_TOPDOWN_H_
#define OOINT_RULES_TOPDOWN_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/instance_store.h"
#include "rules/fact.h"
#include "rules/fact_store.h"
#include "rules/rule.h"

namespace ooint {

/// The top-down, labelled rule evaluator of Appendix B.
///
/// Each head predicate q is associated with the set of schemas S that
/// contain q as a base concept_name, and each body predicate with the set of
/// rules R defining it. Algorithm evaluation(q, Q):
///
///   for each rule q^{S} <= p_1^{R_1}, ..., p_n^{R_n} in Q:
///     temp   := ∪_{s ∈ S} results of evaluating q against s
///     temp_i := evaluation(p_i, R_i)          (recursive call)
///     temp'  := temp_1 ⋈ ... ⋈ temp_n         (join on shared variables)
///     result := temp ∪ temp'
///
/// This evaluator mirrors that algorithm literally (with memoization so
/// shared subqueries are evaluated once). It handles the positive,
/// non-recursive programs Appendix B describes; negation and recursion
/// are the bottom-up Evaluator's job. Results are facts of the queried
/// concept_name; the bottom-up and top-down evaluators agree on such programs
/// (a property the test suite checks).
class TopDownEvaluator {
 public:
  TopDownEvaluator() = default;

  /// Registers a component database (schema name + store).
  void AddSource(const std::string& schema_name, const InstanceStore* store);

  /// Declares that local class `class_name` of `schema_name` populates
  /// concept_name `concept_name` — the paper's q^{S} schema labels.
  Status BindConcept(const std::string& concept_name,
                     const std::string& schema_name,
                     const std::string& class_name);

  /// Adds a definite positive rule.
  Status AddRule(Rule rule);

  /// evaluation(q, Q): all facts derivable for `concept_name`.
  Result<std::vector<Fact>> Evaluate(const std::string& concept_name);

  /// Constant propagation (Appendix B: "the constants appearing in the
  /// query ... can be used to optimize the evaluation process"): facts
  /// of `concept_name` whose attributes match every (attribute, value)
  /// pair of `filter`. Base extents are filtered before materializing,
  /// and rule head variables bound by the filter are pre-bound before
  /// the body join. Results are NOT memoized (they are query-specific);
  /// sub-concepts still memoize their unfiltered evaluations.
  Result<std::vector<Fact>> EvaluateFiltered(
      const std::string& concept_name,
      const std::map<std::string, Value>& filter);

  struct Stats {
    size_t base_lookups = 0;
    size_t rule_invocations = 0;
    size_t joins = 0;
    size_t memo_hits = 0;
    /// Rule applications where the cost-based planner overrode the
    /// written body order (temp-relation sizes proved another literal
    /// cheaper by the kCostMargin factor).
    size_t plan_reorders = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Source {
    std::string schema_name;
    const InstanceStore* store;
  };
  struct ConceptBinding {
    size_t source_index;
    std::string class_name;
  };

  /// Facts of one concept, and the universe_ record each was inserted
  /// as, in the same order. Rule bodies match the records; the facts
  /// are what Evaluate returns.
  struct Extent {
    std::vector<Fact> facts;
    std::vector<FactId> ids;

    void Add(Fact fact, FactId id) {
      facts.push_back(std::move(fact));
      ids.push_back(id);
    }
  };

  /// evaluation(q, Q), memoized: the extent of `concept_name`, which
  /// stays valid for the evaluator's life.
  Result<const Extent*> Solve(const std::string& concept_name);

  /// Base extents: evaluating q directly against every schema s ∈ S.
  Result<Extent> BaseFacts(const std::string& concept_name);

  /// Evaluates one rule body by joining the recursively evaluated body
  /// concepts; returns the instantiated head facts, each once. `seed`
  /// pre-binds variables (constant propagation); empty for plain
  /// evaluation.
  Result<Extent> ApplyRule(const Rule& rule,
                           const std::map<std::string, Value>& seed);

  std::vector<Source> sources_;
  std::map<std::string, std::vector<ConceptBinding>> bindings_decl_;
  std::vector<Rule> rules_;
  std::map<std::string, std::vector<size_t>> rules_by_head_;

  std::map<std::string, Extent> memo_;
  std::set<std::string> in_progress_;
  /// Every fact seen so far (base and derived), indexed by OID for
  /// nested-descriptor navigation — the same indexed store the
  /// bottom-up evaluator uses. Its de-duplication decides which facts
  /// are one, and rule bodies match its records.
  FactStore universe_;
  Stats stats_;
};

}  // namespace ooint

#endif  // OOINT_RULES_TOPDOWN_H_
