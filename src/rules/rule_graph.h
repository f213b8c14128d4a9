#ifndef OOINT_RULES_RULE_GRAPH_H_
#define OOINT_RULES_RULE_GRAPH_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "rules/rule.h"

namespace ooint {

/// The dependency graph of a rule program (an edge from each body
/// concept of a rule to each of its heads, marked when negated): the
/// one answer the evaluator, the incremental engine, the magic rewrite
/// and Explain read for defining rules, strata, recursion, a goal's
/// closure and what an incomplete extent reaches. Documentation-only
/// and disjunctive-head rules are never evaluated, so the graph leaves
/// them out, as Evaluator::AddRule does. Rule indices refer to `rules`,
/// which must outlive the graph unchanged.
class RuleGraph {
 public:
  explicit RuleGraph(const std::vector<Rule>& rules);

  const Rule& rule(size_t index) const { return (*rules_)[index]; }
  /// The rules with `concept_name` among their heads, in program order.
  const std::vector<size_t>& Defining(const std::string& concept_name) const;

  /// kFailedPrecondition when negation runs through recursion.
  const Status& stratified() const { return stratified_; }
  /// The least numbering that puts each head at or above its positive
  /// body concepts and above its negated ones; 0 for unnamed concepts.
  int StratumOf(const std::string& concept_name) const;
  int max_stratum() const { return max_stratum_; }
  /// The rules whose head sits in `stratum`, in program order.
  std::vector<size_t> RulesInStratum(int stratum) const;
  /// The heads, in program order, of the rules in `stratum` or above.
  std::vector<std::string> HeadsFrom(int stratum) const;
  /// True when a path of positive edges leads from the concept back.
  bool IsRecursive(const std::string& concept_name) const;

  /// `goal` and every concept its defining rules read, transitively and
  /// through negated literals too, breadth-first from the goal.
  std::vector<std::string> Closure(const std::string& goal) const;
  /// The forward closure of `direct` (concept -> tainted), tainted once
  /// a path crosses a negated literal: a missing fact there can add head
  /// facts, not only lose them. Sorted by name.
  std::map<std::string, bool> Downstream(
      const std::map<std::string, bool>& direct) const;

 private:
  struct Node;
  struct Edge {
    Node* head;
    bool negated;
  };
  struct Node {
    const std::string* name = nullptr;
    std::vector<size_t> defining;
    std::vector<Edge> out;  // to the heads of the rules reading it
    int stratum = 0;
    bool recursive = false;
    const Node* seen_from = nullptr;  // the last search that reached it
  };

  const Node* Find(const std::string& concept_name) const;
  void Stratify();

  const std::vector<Rule>* rules_;
  std::vector<size_t> evaluable_;  // rule indices, program order
  std::map<std::string, Node> nodes_;
  int max_stratum_ = 0;
  Status stratified_;
};

}  // namespace ooint

#endif  // OOINT_RULES_RULE_GRAPH_H_
