#include "rules/rule_graph.h"

#include <algorithm>
#include <set>

namespace ooint {

RuleGraph::RuleGraph(const std::vector<Rule>& rules) : rules_(&rules) {
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].documentation_only || rules[i].disjunctive_head) continue;
    evaluable_.push_back(i);
    std::vector<Node*> heads;
    for (const std::string& name : rules[i].HeadConceptNames()) {
      heads.push_back(&nodes_[name]);
      std::vector<size_t>& defining = heads.back()->defining;
      if (defining.empty() || defining.back() != i) defining.push_back(i);
    }
    for (const Literal& literal : rules[i].body) {
      if (literal.kind == Literal::Kind::kCompare) continue;
      Node& body = nodes_[literal.concept_name()];
      for (Node* head : heads) body.out.push_back({head, literal.negated});
    }
  }
  for (auto& [name, node] : nodes_) node.name = &name;
  Stratify();
}

const RuleGraph::Node* RuleGraph::Find(const std::string& concept_name) const {
  auto it = nodes_.find(concept_name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const std::vector<size_t>& RuleGraph::Defining(
    const std::string& concept_name) const {
  static const std::vector<size_t> kNone;
  const Node* node = Find(concept_name);
  return node == nullptr ? kNone : node->defining;
}

int RuleGraph::StratumOf(const std::string& concept_name) const {
  const Node* node = Find(concept_name);
  return node == nullptr ? 0 : node->stratum;
}

bool RuleGraph::IsRecursive(const std::string& concept_name) const {
  const Node* node = Find(concept_name);
  return node != nullptr && node->recursive;
}

void RuleGraph::Stratify() {
  // A concept is recursive when a path of positive edges leads back.
  std::vector<Node*> work;
  for (auto& [name, node] : nodes_) {
    for (work = {&node}; !work.empty() && !node.recursive;) {
      const Node* from = work.back();
      work.pop_back();
      for (const Edge& edge : from->out) {
        if (edge.negated || edge.head->seen_from == &node) continue;
        edge.head->seen_from = &node;
        node.recursive = node.recursive || edge.head == &node;
        work.push_back(edge.head);
      }
    }
  }
  // Round-robin relaxation to the least numbering: it settles within
  // one round per concept unless a negation runs through recursion.
  for (size_t round = 0, changed = 1; changed; ++round) {
    if (round > nodes_.size() + 1) {
      stratified_ = Status::FailedPrecondition(
          "rule set is not stratified (negation through recursion)");
      return;
    }
    changed = 0;
    for (const auto& [name, node] : nodes_) {
      for (const Edge& edge : node.out) {
        const int need = node.stratum + (edge.negated ? 1 : 0);
        if (edge.head->stratum < need) {
          edge.head->stratum = need;
          changed = 1;
        }
      }
    }
  }
  for (const auto& [name, node] : nodes_) {
    max_stratum_ = std::max(max_stratum_, node.stratum);
  }
}

std::vector<size_t> RuleGraph::RulesInStratum(int stratum) const {
  std::vector<size_t> out;
  for (size_t i : evaluable_) {
    if (StratumOf(rule(i).head.front().concept_name()) == stratum) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::string> RuleGraph::HeadsFrom(int stratum) const {
  std::vector<std::string> heads;
  for (size_t i : evaluable_) {
    for (const std::string& head : rule(i).HeadConceptNames()) {
      if (StratumOf(head) >= stratum) heads.push_back(head);
    }
  }
  return heads;
}

std::vector<std::string> RuleGraph::Closure(const std::string& goal) const {
  std::vector<std::string> order = {goal};
  std::set<std::string> seen = {goal};
  for (size_t next = 0; next < order.size(); ++next) {
    for (size_t i : Defining(order[next])) {
      for (const std::string& dep : rule(i).BodyConceptNames(false)) {
        if (seen.insert(dep).second) order.push_back(dep);
      }
    }
  }
  return order;
}

std::map<std::string, bool> RuleGraph::Downstream(
    const std::map<std::string, bool>& direct) const {
  std::map<std::string, bool> reached = direct;
  std::vector<std::string> work;
  for (const auto& [name, tainted] : direct) work.push_back(name);
  while (!work.empty()) {
    const Node* node = Find(work.back());
    const bool tainted = reached.at(work.back());
    work.pop_back();
    if (node == nullptr) continue;
    for (const Edge& edge : node->out) {
      const bool taint = tainted || edge.negated;
      auto [it, inserted] = reached.emplace(*edge.head->name, taint);
      if (inserted || (taint && !it->second)) {
        it->second = it->second || taint;
        work.push_back(it->first);
      }
    }
  }
  return reached;
}

}  // namespace ooint
