// Existence components (DESIGN.md §4c): a body part that shares no
// variable with a predicate or skolem head is solved once, to its first
// solution, instead of multiplying the head's solutions. Every test
// compares the semi-naive fixpoint's facts with the kNaive oracle, which
// keeps the full enumeration.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/evaluator.h"
#include "rules/planner.h"
#include "test_util.h"

namespace ooint {
namespace {

std::set<std::string> CanonicalKeys(const std::vector<const Fact*>& facts) {
  std::set<std::string> out;
  for (const Fact* f : facts) out.insert(f->CanonicalKey());
  return out;
}

Fact PredicateFact(const std::string& name, std::int64_t value) {
  Fact fact;
  fact.concept_name = name;
  fact.attrs["0"] = Value::Integer(value);
  return fact;
}

Fact ObjectFact(const std::string& class_name, std::uint64_t number,
                std::map<std::string, Value> attrs) {
  Fact fact;
  fact.concept_name = class_name;
  fact.oid = Oid("test", "mem", "db", "obj", number);
  fact.attrs = std::move(attrs);
  return fact;
}

Literal Pred(const std::string& name, const std::string& var) {
  return Literal::OfPredicate(name, {TermArg::Variable(var)});
}

/// p(x) <= a(x), existence(y).
Rule DisconnectedRule(const std::string& existence) {
  Rule rule;
  rule.head.push_back(Pred("p", "x"));
  rule.body.push_back(Pred("a", "x"));
  rule.body.push_back(Pred(existence, "y"));
  return rule;
}

/// `count` facts a(0..count-1) and `b_count` facts b(0..b_count-1).
Evaluator MakeEvaluator(EvalStrategy strategy, int count, int b_count) {
  Evaluator evaluator;
  evaluator.set_strategy(strategy);
  for (int i = 0; i < count; ++i) evaluator.AddFact(PredicateFact("a", i));
  for (int i = 0; i < b_count; ++i) {
    evaluator.AddFact(PredicateFact("b", 100 + i));
  }
  return evaluator;
}

TEST(ExistenceComponentTest, DisconnectedLiteralIsScannedOnce) {
  // p(x) <= a(x), b(y): the full enumeration scans b once per a fact
  // (51 scans); the split scans b once for a witness and a once.
  Evaluator semi = MakeEvaluator(EvalStrategy::kSemiNaive, 50, 50);
  Evaluator naive = MakeEvaluator(EvalStrategy::kNaive, 50, 50);
  for (Evaluator* ev : {&semi, &naive}) {
    ASSERT_OK(ev->AddRule(DisconnectedRule("b")));
    ASSERT_OK(ev->Evaluate());
  }
  EXPECT_EQ(CanonicalKeys(semi.FactsOf("p")),
            CanonicalKeys(naive.FactsOf("p")));
  EXPECT_EQ(semi.FactsOf("p").size(), 50u);
  EXPECT_EQ(semi.stats().index_scans, 2u);
  EXPECT_EQ(semi.stats().derived_facts, naive.stats().derived_facts);
}

TEST(ExistenceComponentTest, EmptyExistenceExtentSkipsTheHeadComponent) {
  // b is empty: the existence check fails first, so a is never scanned.
  Evaluator semi = MakeEvaluator(EvalStrategy::kSemiNaive, 50, 0);
  Evaluator naive = MakeEvaluator(EvalStrategy::kNaive, 50, 0);
  for (Evaluator* ev : {&semi, &naive}) {
    ASSERT_OK(ev->AddRule(DisconnectedRule("b")));
    ASSERT_OK(ev->Evaluate());
  }
  EXPECT_TRUE(semi.FactsOf("p").empty());
  EXPECT_TRUE(naive.FactsOf("p").empty());
  EXPECT_EQ(semi.stats().index_scans, 0u);
}

TEST(ExistenceComponentTest, DeltaInExistenceComponentDerivesInRoundTwo) {
  // p(x) <= a(x), q(y) runs before q(y) <= c(y) in the same stratum:
  // round 1 finds q empty, round 2 sees q's delta window inside the
  // existence component and enumerates a over its full extent.
  auto run = [](EvalStrategy strategy) {
    Evaluator evaluator;
    evaluator.set_strategy(strategy);
    for (int i = 0; i < 5; ++i) evaluator.AddFact(PredicateFact("a", i));
    for (int i = 0; i < 3; ++i) evaluator.AddFact(PredicateFact("c", 10 + i));
    EXPECT_OK(evaluator.AddRule(DisconnectedRule("q")));
    Rule q;
    q.head.push_back(Pred("q", "y"));
    q.body.push_back(Pred("c", "y"));
    EXPECT_OK(evaluator.AddRule(std::move(q)));
    EXPECT_OK(evaluator.Evaluate());
    return evaluator;
  };
  const Evaluator semi = run(EvalStrategy::kSemiNaive);
  const Evaluator naive = run(EvalStrategy::kNaive);
  EXPECT_EQ(CanonicalKeys(semi.FactsOf("p")),
            CanonicalKeys(naive.FactsOf("p")));
  EXPECT_EQ(semi.FactsOf("p").size(), 5u);
  // Seed (5 a + 3 c), round 1 adds the 3 q facts, round 2 the 5 p facts.
  EXPECT_EQ(semi.stats().delta_sizes, (std::vector<size_t>{8, 3, 5, 0}));
}

TEST(ExistenceComponentTest, BoundOidHeadKeepsFullEnumeration) {
  // <x: A> <= <x: B>, <y: C>: the head merges the attributes of every
  // matched fact carrying x's OID, and one C object shares B's first
  // OID, so which C fact a solution matched changes the derived fact.
  auto run = [](EvalStrategy strategy) {
    Evaluator evaluator;
    evaluator.set_strategy(strategy);
    evaluator.AddFact(ObjectFact("B", 1, {{"name", Value::String("one")}}));
    evaluator.AddFact(ObjectFact("B", 2, {{"name", Value::String("two")}}));
    evaluator.AddFact(ObjectFact("C", 9, {{"size", Value::Integer(3)}}));
    evaluator.AddFact(ObjectFact("C", 1, {{"extra", Value::String("bonus")}}));
    Rule rule;
    OTerm head;
    head.object = TermArg::Variable("x");
    head.class_name = "A";
    rule.head.push_back(Literal::OfOTerm(head));
    OTerm b;
    b.object = TermArg::Variable("x");
    b.class_name = "B";
    rule.body.push_back(Literal::OfOTerm(b));
    OTerm c;
    c.object = TermArg::Variable("y");
    c.class_name = "C";
    rule.body.push_back(Literal::OfOTerm(c));
    EXPECT_OK(evaluator.AddRule(std::move(rule)));
    EXPECT_OK(evaluator.Evaluate());
    return evaluator;
  };
  const Evaluator semi = run(EvalStrategy::kSemiNaive);
  const Evaluator naive = run(EvalStrategy::kNaive);
  EXPECT_EQ(CanonicalKeys(semi.FactsOf("A")),
            CanonicalKeys(naive.FactsOf("A")));
  bool merged = false;
  for (const Fact* fact : semi.FactsOf("A")) {
    merged |= fact->attrs.count("extra") > 0 && fact->attrs.count("name") > 0;
  }
  EXPECT_TRUE(merged) << "the C fact sharing x's OID was never matched";
}

TEST(ExistenceComponentTest, PlannerGroupsLiteralsByVariable) {
  // p(x) <= a(x), b(y), y != 3, <z: C | n: w>, ¬d(w), e(1): the
  // comparison joins b's component, the negation joins C's, and the
  // ground e(1) is a component of its own. a holds the head variable.
  Rule rule;
  rule.head.push_back(Pred("p", "x"));
  rule.body.push_back(Pred("a", "x"));
  rule.body.push_back(Pred("b", "y"));
  rule.body.push_back(Literal::OfCompare(TermArg::Variable("y"), CompareOp::kNe,
                                         TermArg::Constant(Value::Integer(3))));
  OTerm c;
  c.object = TermArg::Variable("z");
  c.class_name = "C";
  c.attrs.push_back({"n", false, TermArg::Variable("w")});
  rule.body.push_back(Literal::OfOTerm(c));
  rule.body.push_back(Literal::OfPredicate("d", {TermArg::Variable("w")},
                                           /*negated=*/true));
  rule.body.push_back(Literal::OfPredicate(
      "e", {TermArg::Constant(Value::Integer(1))}));
  PlannerInput in;
  in.rule = &rule;
  in.split_existence = true;
  const BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(plan.order, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 0}));
  EXPECT_EQ(plan.existence_ends, (std::vector<std::uint32_t>{2, 4, 5}));

  // An attribute-name variable in the head ties its component to it.
  OTerm head;
  head.object = TermArg::Variable("_o");
  head.class_name = "H";
  head.attrs.push_back({"k", false, TermArg::Variable("x")});
  head.attrs.push_back({"attr", true, TermArg::Variable("v")});
  rule.head = {Literal::OfOTerm(head)};
  OTerm schematic;
  schematic.object = TermArg::Variable("s");
  schematic.class_name = "S";
  schematic.attrs.push_back({"attr", true, TermArg::Variable("w")});
  rule.body = {Pred("a", "x"), Literal::OfOTerm(schematic), Pred("b", "y")};
  const BodyPlan schematic_plan = PlanBody(in, PlannerMode::kCostBased);
  EXPECT_EQ(schematic_plan.order, (std::vector<std::uint32_t>{2, 0, 1}));
  EXPECT_EQ(schematic_plan.existence_ends, (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace ooint
