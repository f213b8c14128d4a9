// RuleGraph against straightforward fixpoint references: strata (the
// least numbering by round-robin relaxation), positive recursion (the
// transitive body->head closure) and the incompleteness closure agree
// on seeded random programs, and the structural queries skip the rules
// the evaluator never runs.

#include "rules/rule_graph.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ooint {
namespace {

Literal Atom(const std::string& name, bool negated = false) {
  return Literal::OfPredicate(name, {TermArg::Variable("x")}, negated);
}

Rule MakeRule(const std::string& head, std::vector<Literal> body) {
  Rule rule;
  rule.head.push_back(Atom(head));
  rule.body = std::move(body);
  return rule;
}

// A program over concepts c0..c{n-1}: each rule reads one to three
// concepts, each body literal negated with probability `negation`.
std::vector<Rule> RandomProgram(std::mt19937* rng, int concepts, int rules,
                                double negation) {
  std::uniform_int_distribution<int> pick(0, concepts - 1);
  std::uniform_int_distribution<int> width(1, 3);
  std::bernoulli_distribution negated(negation);
  std::vector<Rule> program;
  for (int r = 0; r < rules; ++r) {
    std::vector<Literal> body;
    const int n = width(*rng);
    for (int b = 0; b < n; ++b) {
      body.push_back(Atom("c" + std::to_string(pick(*rng)), negated(*rng)));
    }
    program.push_back(MakeRule("c" + std::to_string(pick(*rng)), body));
  }
  return program;
}

// Round-robin relaxation to the least stratum assignment; false when it
// does not settle (negation through recursion).
bool ReferenceStrata(const std::vector<Rule>& rules,
                     std::map<std::string, int>* strata) {
  std::set<std::string> concepts;
  for (const Rule& rule : rules) {
    for (const std::string& c : rule.HeadConceptNames()) concepts.insert(c);
    for (const std::string& c : rule.BodyConceptNames(false)) {
      concepts.insert(c);
    }
  }
  for (const std::string& c : concepts) (*strata)[c] = 0;
  for (size_t round = 0; round <= concepts.size() + 1; ++round) {
    bool changed = false;
    for (const Rule& rule : rules) {
      int& head = (*strata)[rule.head.front().concept_name()];
      for (const Literal& literal : rule.body) {
        const int need =
            (*strata)[literal.concept_name()] + (literal.negated ? 1 : 0);
        if (head < need) {
          head = need;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

// c is recursive when some head derived from a positive occurrence of c
// derives c back.
std::set<std::string> ReferenceRecursion(const std::vector<Rule>& rules) {
  std::map<std::string, std::set<std::string>> reach;
  for (const Rule& rule : rules) {
    for (const std::string& body : rule.BodyConceptNames(true)) {
      reach[body].insert(rule.head.front().concept_name());
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [c, heads] : reach) {
      const size_t before = heads.size();
      for (const std::string& h : std::vector<std::string>(heads.begin(),
                                                           heads.end())) {
        auto it = reach.find(h);
        if (it != reach.end()) {
          heads.insert(it->second.begin(), it->second.end());
        }
      }
      changed = changed || heads.size() != before;
    }
  }
  std::set<std::string> recursive;
  for (const auto& [c, heads] : reach) {
    if (heads.count(c) > 0) recursive.insert(c);
  }
  return recursive;
}

// Fixpoint over the rules: a head inherits reach from any body concept
// and taint from a tainted one or a negated edge.
std::map<std::string, bool> ReferenceDownstream(
    const std::vector<Rule>& rules, std::map<std::string, bool> reached) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules) {
      for (const Literal& literal : rule.body) {
        auto hit = reached.find(literal.concept_name());
        if (hit == reached.end()) continue;
        const bool tainted = hit->second || literal.negated;
        auto [it, inserted] =
            reached.emplace(rule.head.front().concept_name(), tainted);
        if (inserted || (tainted && !it->second)) {
          it->second = it->second || tainted;
          changed = true;
        }
      }
    }
  }
  return reached;
}

TEST(RuleGraphTest, StrataMatchTheLeastRelaxation) {
  std::mt19937 rng(20261017);
  int stratified = 0;
  int unstratified = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<Rule> program =
        RandomProgram(&rng, 2 + trial % 12, 1 + trial % 20, 0.2);
    const RuleGraph graph(program);
    std::map<std::string, int> expected;
    const bool settles = ReferenceStrata(program, &expected);
    ASSERT_EQ(graph.stratified().ok(), settles) << "trial " << trial;
    if (!settles) {
      EXPECT_EQ(graph.stratified().code(), StatusCode::kFailedPrecondition);
      ++unstratified;
      continue;
    }
    ++stratified;
    int max_stratum = 0;
    for (const auto& [name, stratum] : expected) {
      EXPECT_EQ(graph.StratumOf(name), stratum) << name << " trial " << trial;
      max_stratum = std::max(max_stratum, stratum);
    }
    EXPECT_EQ(graph.max_stratum(), max_stratum) << "trial " << trial;
    EXPECT_EQ(ReferenceRecursion(program),
              [&] {
                std::set<std::string> recursive;
                for (const auto& [name, stratum] : expected) {
                  if (graph.IsRecursive(name)) recursive.insert(name);
                }
                return recursive;
              }())
        << "trial " << trial;
    for (int s = 0; s <= max_stratum; ++s) {
      for (size_t index : graph.RulesInStratum(s)) {
        EXPECT_EQ(expected[program[index].head.front().concept_name()], s);
      }
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(stratified, 100);
  EXPECT_GT(unstratified, 10);
}

TEST(RuleGraphTest, DownstreamMatchesTheRuleFixpoint) {
  std::mt19937 rng(7);
  std::bernoulli_distribution coin(0.5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Rule> program =
        RandomProgram(&rng, 3 + trial % 10, 1 + trial % 15, 0.3);
    std::map<std::string, bool> direct;
    for (int c = 0; c < 3; ++c) {
      if (coin(rng)) direct["c" + std::to_string(c)] = false;
    }
    EXPECT_EQ(RuleGraph(program).Downstream(direct),
              ReferenceDownstream(program, direct))
        << "trial " << trial;
  }
}

TEST(RuleGraphTest, UnevaluatedRulesAreLeftOut) {
  // Principle 4's converse completion rule is documentation-only: with
  // it the pair of rules would negate each other.
  std::vector<Rule> program;
  program.push_back(MakeRule("woman", {Atom("person"), Atom("man", true)}));
  program.push_back(MakeRule("man", {Atom("person"), Atom("woman", true)}));
  program.back().documentation_only = true;
  Rule disjunctive;
  disjunctive.head = {Atom("man"), Atom("woman")};
  disjunctive.disjunctive_head = true;
  disjunctive.body = {Atom("person")};
  program.push_back(disjunctive);

  const RuleGraph graph(program);
  EXPECT_TRUE(graph.stratified().ok());
  EXPECT_EQ(graph.Defining("woman"), std::vector<size_t>{0});
  EXPECT_TRUE(graph.Defining("man").empty());
  EXPECT_EQ(graph.StratumOf("woman"), 1);
  EXPECT_EQ(graph.max_stratum(), 1);
  EXPECT_EQ(graph.Closure("man"), std::vector<std::string>{"man"});
  EXPECT_EQ(graph.HeadsFrom(0), std::vector<std::string>{"woman"});
}

TEST(RuleGraphTest, ClosureIsBreadthFirstThroughNegation) {
  std::vector<Rule> program;
  program.push_back(MakeRule("uncle", {Atom("parent"), Atom("brother")}));
  program.push_back(
      MakeRule("brother", {Atom("sibling"), Atom("sister", true)}));
  program.push_back(MakeRule("parent", {Atom("parent")}));
  const RuleGraph graph(program);
  EXPECT_EQ(graph.Closure("uncle"),
            (std::vector<std::string>{"uncle", "parent", "brother", "sibling",
                                      "sister"}));
  EXPECT_TRUE(graph.IsRecursive("parent"));
  EXPECT_FALSE(graph.IsRecursive("uncle"));
  EXPECT_EQ(graph.StratumOf("brother"), 1);
  EXPECT_EQ(graph.StratumOf("uncle"), 1);
  EXPECT_EQ(graph.StratumOf("ghost"), 0);
  EXPECT_EQ(graph.RulesInStratum(1), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(graph.HeadsFrom(1), (std::vector<std::string>{"uncle", "brother"}));
}

}  // namespace
}  // namespace ooint
