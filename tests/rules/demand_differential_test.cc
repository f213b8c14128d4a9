// Differential oracle: three independent evaluation strategies answer
// every selective genealogy query identically on positive definite
// programs —
//   1. full bottom-up fixpoint, then pattern match (the baseline),
//   2. magic-set rewritten bottom-up demand evaluation (the tentpole),
//   3. top-down memoized evaluation with constant propagation
//      (TopDownEvaluator::EvaluateFiltered, Appendix B's optimization).
// Any divergence is a bug in one of the three; agreement is strong
// evidence for all of them.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "assertions/parser.h"
#include "rules/evaluator.h"
#include "rules/rule_generator.h"
#include "rules/topdown.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr char kUncle[] = "IS(S2.uncle)";
const char* const kUncleAttrs[] = {"Ussn#", "name", "niece_nephew"};

class DemandDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    s1_ = std::make_unique<InstanceStore>(&fixture_.s1);
    s1_->SetOidContext("agent1", "ooint", "S1db");
    s2_ = std::make_unique<InstanceStore>(&fixture_.s2);
    s2_->SetOidContext("agent2", "ooint", "S2db");
    ASSERT_OK(PopulateGenealogy(s1_.get(), s2_.get(), /*num_families=*/20));

    const Assertion assertion =
        ValueOrDie(AssertionParser::ParseOne(fixture_.assertion_text));
    RuleGenerator generator;
    rules_ = ValueOrDie(generator.Generate(assertion));
  }

  std::unique_ptr<Evaluator> MakeBottomUp() {
    auto evaluator = std::make_unique<Evaluator>();
    evaluator->AddSource("S1", s1_.get());
    evaluator->AddSource("S2", s2_.get());
    EXPECT_OK(evaluator->BindConcept("IS(S1.parent)", "S1", "parent"));
    EXPECT_OK(evaluator->BindConcept("IS(S1.brother)", "S1", "brother"));
    EXPECT_OK(evaluator->BindConcept(kUncle, "S2", "uncle"));
    for (const Rule& rule : rules_) EXPECT_OK(evaluator->AddRule(rule));
    return evaluator;
  }

  TopDownEvaluator MakeTopDown() {
    TopDownEvaluator evaluator;
    evaluator.AddSource("S1", s1_.get());
    evaluator.AddSource("S2", s2_.get());
    EXPECT_OK(evaluator.BindConcept("IS(S1.parent)", "S1", "parent"));
    EXPECT_OK(evaluator.BindConcept("IS(S1.brother)", "S1", "brother"));
    EXPECT_OK(evaluator.BindConcept(kUncle, "S2", "uncle"));
    for (const Rule& rule : rules_) EXPECT_OK(evaluator.AddRule(rule));
    return evaluator;
  }

  /// The query pattern for `filter`: constants where filtered,
  /// projection variables (named after the attribute) elsewhere.
  static OTerm MakePattern(const std::map<std::string, Value>& filter) {
    OTerm pattern;
    pattern.object = TermArg::Variable("_self");
    pattern.class_name = kUncle;
    for (const char* attr : kUncleAttrs) {
      auto it = filter.find(attr);
      pattern.attrs.push_back(
          {attr, false,
           it != filter.end() ? TermArg::Constant(it->second)
                              : TermArg::Variable(attr)});
    }
    return pattern;
  }

  /// Rows as comparable keys (projected attributes only).
  static std::multiset<std::string> RowKeys(
      const std::vector<Bindings>& rows,
      const std::map<std::string, Value>& filter) {
    std::multiset<std::string> keys;
    for (const Bindings& row : rows) {
      std::string key;
      for (const char* attr : kUncleAttrs) {
        if (filter.count(attr)) continue;
        key += std::string(attr) + "=" + row.at(attr).ToString() + "|";
      }
      keys.insert(key);
    }
    return keys;
  }

  /// Facts projected the same way.
  static std::multiset<std::string> FactKeys(
      const std::vector<Fact>& facts,
      const std::map<std::string, Value>& filter) {
    std::multiset<std::string> keys;
    for (const Fact& fact : facts) {
      std::string key;
      for (const char* attr : kUncleAttrs) {
        if (filter.count(attr)) continue;
        auto it = fact.attrs.find(attr);
        key += std::string(attr) + "=" +
               (it == fact.attrs.end() ? "<absent>" : it->second.ToString()) +
               "|";
      }
      keys.insert(key);
    }
    return keys;
  }

  Fixture fixture_;
  std::unique_ptr<InstanceStore> s1_;
  std::unique_ptr<InstanceStore> s2_;
  std::vector<Rule> rules_;
};

TEST_F(DemandDifferentialTest, ThreeStrategiesAgreeOnSelectiveQueries) {
  const std::vector<std::map<std::string, Value>> filters = {
      {{"niece_nephew", Value::String("C7a")}},
      {{"Ussn#", Value::String("U3")}},
      {{"Ussn#", Value::String("U5")}, {"niece_nephew", Value::String("C5b")}},
      // Inconsistent bindings: all three must agree the answer is empty.
      {{"Ussn#", Value::String("U6")}, {"niece_nephew", Value::String("C5b")}},
      // No bindings: demand falls back to (relevance-pruned) full
      // evaluation, top-down to plain memoized evaluation.
      {},
  };

  std::unique_ptr<Evaluator> full = MakeBottomUp();
  ASSERT_OK(full->Evaluate());
  TopDownEvaluator top_down = MakeTopDown();

  for (const auto& filter : filters) {
    std::string trace = "filter:";
    for (const auto& [attr, value] : filter) {
      trace += " " + attr + "=" + value.ToString();
    }
    SCOPED_TRACE(trace);
    const OTerm pattern = MakePattern(filter);

    const std::multiset<std::string> baseline =
        RowKeys(ValueOrDie(full->Query(pattern)), filter);

    std::unique_ptr<Evaluator> demand_eval = MakeBottomUp();
    const Evaluator::DemandOutcome outcome =
        ValueOrDie(demand_eval->EvaluateDemand(pattern));
    const MagicProgram program = demand_eval->PlanDemand(pattern).program;
    EXPECT_EQ(program.applied, !filter.empty()) << program.fallback_reason;
    EXPECT_EQ(RowKeys(outcome.rows, filter), baseline);

    const std::multiset<std::string> top_down_keys =
        FactKeys(ValueOrDie(top_down.EvaluateFiltered(kUncle, filter)), filter);
    EXPECT_EQ(top_down_keys, baseline);
  }
}

TEST_F(DemandDifferentialTest, BoundQueriesDeriveStrictlyLessThanFull) {
  std::unique_ptr<Evaluator> full = MakeBottomUp();
  ASSERT_OK(full->Evaluate());

  const std::map<std::string, Value> filter = {
      {"niece_nephew", Value::String("C7a")}};
  std::unique_ptr<Evaluator> demand_eval = MakeBottomUp();
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(MakePattern(filter)));
  const MagicProgram program =
      demand_eval->PlanDemand(MakePattern(filter)).program;
  ASSERT_TRUE(program.applied) << program.fallback_reason;
  ASSERT_FALSE(outcome.rows.empty());
  EXPECT_LT(outcome.stats.derived_facts, full->stats().derived_facts);
}

}  // namespace
}  // namespace ooint
