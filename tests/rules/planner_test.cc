// Cost-based literal planner suite (DESIGN.md §4l): the plan must
// replay the historical dynamic pick (filters first when decidable,
// then most-bound-first with the delta literal breaking ties) except
// where extent estimates clear the kCostMargin override, and an
// evaluator running under any planner mode must derive identical fact
// sets.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/evaluator.h"
#include "rules/planner.h"
#include "test_util.h"

namespace ooint {
namespace {

Rule PredFact(const std::string& name, std::vector<Value> row) {
  Rule r;
  std::vector<TermArg> args;
  args.reserve(row.size());
  for (Value& v : row) args.push_back(TermArg::Constant(std::move(v)));
  r.head.push_back(Literal::OfPredicate(name, std::move(args)));
  return r;
}

std::set<std::string> CanonicalKeys(const std::vector<const Fact*>& facts) {
  std::set<std::string> out;
  for (const Fact* f : facts) out.insert(f->CanonicalKey());
  return out;
}

/// r(x, z) <= p(x, y), q(y, z).
Rule TwoJoinRule() {
  Rule rule;
  rule.head.push_back(Literal::OfPredicate(
      "r", {TermArg::Variable("x"), TermArg::Variable("z")}));
  rule.body.push_back(Literal::OfPredicate(
      "p", {TermArg::Variable("x"), TermArg::Variable("y")}));
  rule.body.push_back(Literal::OfPredicate(
      "q", {TermArg::Variable("y"), TermArg::Variable("z")}));
  return rule;
}

TEST(PlanBodyTest, FixedSipIsTheWrittenOrder) {
  Rule rule = TwoJoinRule();
  rule.body.push_back(Literal::OfCompare(TermArg::Variable("x"), CompareOp::kNe,
                                         TermArg::Variable("z")));
  PlannerInput in;
  in.rule = &rule;
  const BodyPlan plan = PlanBody(in, PlannerMode::kFixedSip);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(plan.reordered);
}

TEST(PlanBodyTest, ReplaysTheDynamicPickWhenCostsAreComparable) {
  // Equal costs: the connectivity SIP alone decides. After p binds
  // {x, y}, q is the only fact literal left; the undecidable compare
  // waits until both sides are bound.
  Rule rule = TwoJoinRule();
  rule.body.insert(rule.body.begin(),
                   Literal::OfCompare(TermArg::Variable("x"), CompareOp::kNe,
                                      TermArg::Variable("z")));
  PlannerInput in;
  in.rule = &rule;
  in.extent_cost = {-1.0, 100.0, 100.0};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{1, 2, 0}));
  EXPECT_FALSE(plan.reordered);
}

TEST(PlanBodyTest, DecidableEqualityFilterRunsFirst) {
  // x == "const" is decidable up front (one side constant) and binds x,
  // making p the more selective opening join.
  Rule rule = TwoJoinRule();
  rule.body.push_back(Literal::OfCompare(
      TermArg::Variable("x"), CompareOp::kEq,
      TermArg::Constant(Value::String("const"))));
  PlannerInput in;
  in.rule = &rule;
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order.front(), 2u);
}

TEST(PlanBodyTest, CostOverrideBeatsTheSipAndSetsReordered) {
  // Both body literals start unbound (SIP score 0 each, first wins),
  // but q's extent is tiny: the planner opens with q instead.
  const Rule rule = TwoJoinRule();
  PlannerInput in;
  in.rule = &rule;
  in.extent_cost = {10000.0, 4.0};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{1, 0}));
  EXPECT_TRUE(plan.reordered);
}

TEST(PlanBodyTest, OverrideRequiresTheFullCostMargin) {
  // Within kCostMargin the SIP's pick stands — estimates are noisy.
  const Rule rule = TwoJoinRule();
  PlannerInput in;
  in.rule = &rule;
  in.extent_cost = {100.0, 50.0};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(plan.reordered);
}

TEST(PlanBodyTest, DeltaLiteralBreaksBoundnessTies) {
  const Rule rule = TwoJoinRule();
  PlannerInput in;
  in.rule = &rule;
  in.delta_literal = 1;
  in.extent_cost = {100.0, 100.0};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{1, 0}));
}

TEST(PlanBodyTest, PivotLiteralAnchorsTheJoin) {
  // An incremental pivot position is a single fact (estimate 1): the
  // plan opens there however big its concept extent is.
  const Rule rule = TwoJoinRule();
  PlannerInput in;
  in.rule = &rule;
  in.delta_literal = 1;
  in.pivot_literal = 1;
  in.extent_cost = {2.0, 100000.0};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order.front(), 1u);
}

TEST(PlanBodyTest, SeededBindingsCountAsBound) {
  // With z pre-bound (a seeded join), q has one bound occurrence and
  // wins the SIP even though p is written first.
  const Rule rule = TwoJoinRule();
  PlannerInput in;
  in.rule = &rule;
  in.initial_bound = {"z"};
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{1, 0}));
}

TEST(PlanBodyTest, FullyBoundNegationHoistsAboveRemainingJoins) {
  // ¬s(x, y) becomes decidable as soon as p binds {x, y}; it must run
  // before q (cheapest: no candidate enumeration at all).
  Rule rule = TwoJoinRule();
  rule.body.push_back(Literal::OfPredicate(
      "s", {TermArg::Variable("x"), TermArg::Variable("y")},
      /*negated=*/true));
  PlannerInput in;
  in.rule = &rule;
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{0, 2, 1}));
}

/// A small chain program whose rules profit from reordering: p is big,
/// q is tiny.
class PlannerEvaluatorTest : public ::testing::Test {
 protected:
  Evaluator MakeEvaluator() {
    Evaluator evaluator;
    for (int i = 0; i < 60; ++i) {
      EXPECT_OK(evaluator.AddRule(PredFact(
          "p", {Value::Integer(i), Value::Integer(i + 1)})));
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_OK(evaluator.AddRule(PredFact(
          "q", {Value::Integer(i + 1), Value::Integer(100 + i)})));
    }
    EXPECT_OK(evaluator.AddRule(TwoJoinRule()));
    return evaluator;
  }
};

TEST_F(PlannerEvaluatorTest, AllPlannerModesDeriveIdenticalFacts) {
  Evaluator cost = MakeEvaluator();
  ASSERT_OK(cost.Evaluate());
  const std::set<std::string> expected = CanonicalKeys(cost.FactsOf("r"));
  ASSERT_EQ(expected.size(), 3u);

  Evaluator sip = MakeEvaluator();
  sip.set_planner_mode(PlannerMode::kFixedSip);
  ASSERT_OK(sip.Evaluate());
  EXPECT_EQ(CanonicalKeys(sip.FactsOf("r")), expected);

  Evaluator naive = MakeEvaluator();
  naive.set_strategy(EvalStrategy::kNaive);
  ASSERT_OK(naive.Evaluate());
  EXPECT_EQ(CanonicalKeys(naive.FactsOf("r")), expected);
}

TEST_F(PlannerEvaluatorTest, CostBasedPlannerReordersAndCountsIt) {
  Evaluator cost = MakeEvaluator();
  ASSERT_OK(cost.Evaluate());
  // The first (unrestricted) round should open with tiny q, not big p.
  EXPECT_GT(cost.stats().plan_reorders, 0u);

  Evaluator sip = MakeEvaluator();
  sip.set_planner_mode(PlannerMode::kFixedSip);
  ASSERT_OK(sip.Evaluate());
  EXPECT_EQ(sip.stats().plan_reorders, 0u);
}

TEST_F(PlannerEvaluatorTest, KernelCountersTick) {
  Evaluator cost = MakeEvaluator();
  ASSERT_OK(cost.Evaluate());
  EXPECT_GT(cost.stats().index_probes, 0u);
  EXPECT_GT(cost.stats().cursor_steps, 0u);

  // The naive oracle never touches indexes or kernels.
  Evaluator naive = MakeEvaluator();
  naive.set_strategy(EvalStrategy::kNaive);
  ASSERT_OK(naive.Evaluate());
  EXPECT_EQ(naive.stats().cursor_steps, 0u);
  EXPECT_EQ(naive.stats().merge_steps, 0u);
  EXPECT_EQ(naive.stats().plan_reorders, 0u);
}

}  // namespace
}  // namespace ooint
