#include "rules/magic.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "assertions/parser.h"
#include "common/string_util.h"
#include "model/instance_parser.h"
#include "model/schema_parser.h"
#include "rules/evaluator.h"
#include "rules/rule_generator.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

/// Serializes answer rows for order-insensitive comparison.
std::multiset<std::string> RowKeys(const std::vector<Bindings>& rows) {
  std::multiset<std::string> keys;
  for (const Bindings& row : rows) {
    std::string key;
    for (const auto& [var, value] : row) {
      key += StrCat(var, "=", value.ToString(), ";");
    }
    keys.insert(key);
  }
  return keys;
}

OTerm Pattern(const std::string& concept_name) {
  OTerm t;
  t.object = TermArg::Variable("_self");
  t.class_name = concept_name;
  return t;
}

void Where(OTerm* pattern, const std::string& attr, Value value) {
  pattern->attrs.push_back({attr, false, TermArg::Constant(std::move(value))});
}

void Select(OTerm* pattern, const std::string& attr, const std::string& var) {
  pattern->attrs.push_back({attr, false, TermArg::Variable(var)});
}

Literal EdgeLiteral(const std::string& src_var, const std::string& dst_var) {
  OTerm t;
  t.object = TermArg::Variable("e");
  t.class_name = "edge";
  t.attrs.push_back({"src", false, TermArg::Variable(src_var)});
  t.attrs.push_back({"dst", false, TermArg::Variable(dst_var)});
  return Literal::OfOTerm(std::move(t));
}

Rule PathBaseRule() {
  Rule rule;
  rule.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("x"), TermArg::Variable("y")}));
  rule.body.push_back(EdgeLiteral("x", "y"));
  rule.provenance = "test(path-base)";
  return rule;
}

Rule PathStepRule() {
  Rule rule;
  rule.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("x"), TermArg::Variable("z")}));
  rule.body.push_back(EdgeLiteral("x", "y"));
  rule.body.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("y"), TermArg::Variable("z")}));
  rule.provenance = "test(path-step)";
  return rule;
}

/// Two sources: S1 holds two *disjoint* chain graphs n0->..->n(k-1) and
/// m0->..->m(k-1) (plus an unrelated class) so a selective path query
/// provably cannot touch half the graph; S2 is entirely irrelevant.
class ChainFixture {
 public:
  explicit ChainFixture(int nodes)
      : s1_schema_(ValueOrDie(SchemaParser::Parse(R"(
schema S1 {
  class edge { src: string; dst: string; }
  class noise { n: string; }
}
)"))),
        s2_schema_(ValueOrDie(SchemaParser::Parse(R"(
schema S2 {
  class island { m: string; }
}
)"))) {
    s1_store_ = std::make_unique<InstanceStore>(&s1_schema_);
    s1_store_->SetOidContext("agent1", "ooint", "S1db");
    s2_store_ = std::make_unique<InstanceStore>(&s2_schema_);
    s2_store_->SetOidContext("agent2", "ooint", "S2db");
    std::string text;
    for (int i = 0; i + 1 < nodes; ++i) {
      text += StrCat("insert edge { src: \"n", i, "\"; dst: \"n", i + 1,
                     "\"; }\n");
      text += StrCat("insert edge { src: \"m", i, "\"; dst: \"m", i + 1,
                     "\"; }\n");
    }
    text += "insert noise { n: \"x\"; }\n";
    EXPECT_OK(InstanceParser::Load(text, s1_store_.get()).status());
    EXPECT_OK(
        InstanceParser::Load("insert island { m: \"i\"; }\n", s2_store_.get())
            .status());
  }

  /// A fresh evaluator over both sources with the path program.
  std::unique_ptr<Evaluator> MakeEvaluator() {
    auto evaluator = std::make_unique<Evaluator>();
    evaluator->AddSource("S1", s1_store_.get());
    evaluator->AddSource("S2", s2_store_.get());
    EXPECT_OK(evaluator->BindConcept("edge", "S1", "edge"));
    EXPECT_OK(evaluator->BindConcept("noise", "S1", "noise"));
    EXPECT_OK(evaluator->BindConcept("island", "S2", "island"));
    EXPECT_OK(evaluator->AddRule(PathBaseRule()));
    EXPECT_OK(evaluator->AddRule(PathStepRule()));
    return evaluator;
  }

 private:
  Schema s1_schema_;
  Schema s2_schema_;
  std::unique_ptr<InstanceStore> s1_store_;
  std::unique_ptr<InstanceStore> s2_store_;
};

TEST(MagicRewriteTest, ExtractsGoalBindingFromPattern) {
  OTerm pattern = Pattern("path");
  Where(&pattern, "0", Value::String("n0"));
  Select(&pattern, "1", "y");
  const GoalBinding goal = ExtractGoalBinding(pattern);
  EXPECT_EQ(goal.concept_name, "path");
  EXPECT_FALSE(goal.object_bound);
  ASSERT_EQ(goal.attrs.size(), 1u);
  EXPECT_EQ(goal.attrs.at("0"), Value::String("n0"));
  EXPECT_EQ(goal.ToAdornment().ToString(), "0");
}

TEST(MagicRewriteTest, ProducesGuardedAndMagicRulesWithSeed) {
  std::vector<Rule> rules = {PathBaseRule(), PathStepRule()};
  GoalBinding goal;
  goal.concept_name = "path";
  goal.attrs["0"] = Value::String("n0");
  const MagicProgram program = MagicRewrite(rules, goal);
  ASSERT_TRUE(program.applied) << program.fallback_reason;
  EXPECT_EQ(program.goal_adornment, "0");
  // Both defining rules get a guarded copy; the recursive body literal
  // yields one magic rule re-demanding path with its first arg bound.
  EXPECT_EQ(program.guarded_rules, 2u);
  EXPECT_EQ(program.magic_rules, 1u);
  ASSERT_EQ(program.seeds.size(), 1u);
  EXPECT_TRUE(IsMagicConceptName(program.seeds.front().concept_name));
  EXPECT_EQ(program.seeds.front().attrs.at("0"), Value::String("n0"));
  // Reachability covers the goal and its rule bodies, not the noise.
  const std::set<std::string> reachable(program.reachable_concepts.begin(),
                                        program.reachable_concepts.end());
  EXPECT_TRUE(reachable.count("path"));
  EXPECT_TRUE(reachable.count("edge"));
  EXPECT_FALSE(reachable.count("noise"));
  EXPECT_TRUE(program.relevance_safe);
  // Guards are prepended: every rewritten rule starts with a magic
  // literal or heads a magic predicate.
  for (const Rule& rule : program.rules) {
    const bool magic_head =
        IsMagicConceptName(rule.head.front().kind == Literal::Kind::kPredicate
                               ? rule.head.front().pred_name
                               : rule.head.front().oterm.class_name);
    const Literal& first = rule.body.front();
    const bool magic_guard = first.kind == Literal::Kind::kPredicate &&
                             IsMagicConceptName(first.pred_name);
    EXPECT_TRUE(magic_head || magic_guard) << rule.ToString();
  }
}

TEST(MagicRewriteTest, DemandMatchesFullEvaluationOnChain) {
  ChainFixture fixture(/*nodes=*/12);
  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  ASSERT_OK(full->Evaluate());

  OTerm pattern = Pattern("path");
  Where(&pattern, "0", Value::String("n0"));
  Select(&pattern, "1", "y");
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));
  ASSERT_EQ(expected.size(), 11u);  // n0 reaches every later node

  std::unique_ptr<Evaluator> demand_eval = fixture.MakeEvaluator();
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  const MagicProgram program = demand_eval->PlanDemand(pattern).program;
  EXPECT_TRUE(program.applied) << program.fallback_reason;
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
  // Full evaluation derives every path pair; the demanded fixpoint only
  // derives paths starting at n0 (plus magic facts).
  EXPECT_LT(outcome.stats.derived_facts, full->stats().derived_facts);
}

TEST(MagicRewriteTest, SelectiveDemandDerivesFarFewerFacts) {
  ChainFixture fixture(/*nodes=*/40);
  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  ASSERT_OK(full->Evaluate());

  // Paths *into* n39: binds position 1, the recursive call stays bound.
  OTerm pattern = Pattern("path");
  Select(&pattern, "0", "x");
  Where(&pattern, "1", Value::String("n1"));
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));
  ASSERT_EQ(expected.size(), 1u);

  std::unique_ptr<Evaluator> demand_eval = fixture.MakeEvaluator();
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  const MagicProgram program = demand_eval->PlanDemand(pattern).program;
  EXPECT_TRUE(program.applied) << program.fallback_reason;
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
  // 39*40/2 = 780 full path facts vs. a handful of demanded ones.
  EXPECT_GT(full->stats().derived_facts, 700u);
  EXPECT_LT(outcome.stats.derived_facts, 20u);
}

TEST(MagicRewriteTest, RelevancePrunesUnreachableSources) {
  ChainFixture fixture(/*nodes=*/6);
  std::unique_ptr<Evaluator> evaluator = fixture.MakeEvaluator();

  OTerm pattern = Pattern("path");
  Where(&pattern, "0", Value::String("n0"));
  Select(&pattern, "1", "y");
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(evaluator->EvaluateDemand(pattern));
  // Only the edge extent is fetched: noise (same agent) is skipped and
  // S2 — no reachable concept at all — is never contacted.
  EXPECT_EQ(outcome.stats.extents_fetched, 1u);
  EXPECT_EQ(evaluator->PlanDemand(pattern).pruned_agents,
            std::vector<std::string>{"S2"});
  EXPECT_EQ(outcome.degraded.pruned_agents,
            std::vector<std::string>{"S2"});
  EXPECT_FALSE(outcome.degraded.degraded());  // pruning is not degradation

  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  ASSERT_OK(full->Evaluate());
  EXPECT_EQ(full->stats().extents_fetched, 3u);
}

TEST(MagicRewriteTest, UnboundGoalFallsBackToRelevanceOnly) {
  ChainFixture fixture(/*nodes=*/6);
  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  ASSERT_OK(full->Evaluate());

  OTerm pattern = Pattern("path");
  Select(&pattern, "0", "x");
  Select(&pattern, "1", "y");
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));

  std::unique_ptr<Evaluator> demand_eval = fixture.MakeEvaluator();
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  const MagicProgram program = demand_eval->PlanDemand(pattern).program;
  EXPECT_FALSE(program.applied);
  EXPECT_EQ(program.fallback_reason, "goal has no bound positions");
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
  // Relevance pruning still applies on the fallback path.
  EXPECT_EQ(outcome.stats.extents_fetched, 1u);
  EXPECT_EQ(outcome.degraded.pruned_agents, std::vector<std::string>{"S2"});
}

TEST(MagicRewriteTest, NegatedDerivedConceptFallsBack) {
  ChainFixture fixture(/*nodes=*/5);
  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  // dead_end(y) <= edge(x, y), not path(y, _z) — needs *all* of path,
  // so restricting path's derivation to demand would be unsound.
  Rule dead_end;
  dead_end.head.push_back(
      Literal::OfPredicate("dead_end", {TermArg::Variable("y")}));
  dead_end.body.push_back(EdgeLiteral("x", "y"));
  dead_end.body.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("y"), TermArg::Variable("y")},
      /*negated=*/true));
  dead_end.provenance = "test(dead-end)";
  ASSERT_OK(full->AddRule(dead_end));
  ASSERT_OK(full->Evaluate());

  OTerm pattern = Pattern("dead_end");
  Where(&pattern, "0", Value::String("n4"));
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));
  ASSERT_EQ(expected.size(), 1u);  // the chain's last node has no exit

  std::unique_ptr<Evaluator> demand_eval = fixture.MakeEvaluator();
  ASSERT_OK(demand_eval->AddRule(dead_end));
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  const MagicProgram program = demand_eval->PlanDemand(pattern).program;
  EXPECT_FALSE(program.applied);
  EXPECT_NE(program.fallback_reason.find("negated derived concept"),
            std::string::npos)
      << program.fallback_reason;
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
}

TEST(MagicRewriteTest, MergedAttributeBindingsAreDroppedFromAdornment) {
  ChainFixture fixture(/*nodes=*/4);
  std::unique_ptr<Evaluator> full = fixture.MakeEvaluator();
  // <x : loud> <= <x : noise>: the head has no explicit descriptor for
  // "n" — the evaluator's attribute-merge path attaches it after
  // derivation, so binding it through a magic literal would lose the
  // answer. The rewriter must refuse to adorn.
  Rule membership;
  OTerm head = Pattern("loud");
  head.object = TermArg::Variable("x");
  membership.head.push_back(Literal::OfOTerm(head));
  OTerm body = Pattern("noise");
  body.object = TermArg::Variable("x");
  membership.body.push_back(Literal::OfOTerm(body));
  membership.provenance = "test(loud)";
  ASSERT_OK(full->AddRule(membership));
  ASSERT_OK(full->Evaluate());

  OTerm pattern = Pattern("loud");
  Where(&pattern, "n", Value::String("x"));
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));
  ASSERT_EQ(expected.size(), 1u);  // the merged attribute is queryable

  std::unique_ptr<Evaluator> demand_eval = fixture.MakeEvaluator();
  ASSERT_OK(demand_eval->AddRule(membership));
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  const MagicProgram program = demand_eval->PlanDemand(pattern).program;
  EXPECT_FALSE(program.applied);
  EXPECT_EQ(program.fallback_reason,
            "no bound goal position survives head-support analysis");
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
}

TEST(MagicRewriteTest, DemandDoesNotDisturbTheParentEvaluator) {
  ChainFixture fixture(/*nodes=*/5);
  std::unique_ptr<Evaluator> evaluator = fixture.MakeEvaluator();
  OTerm pattern = Pattern("path");
  Where(&pattern, "0", Value::String("n0"));
  Select(&pattern, "1", "y");
  ASSERT_OK(evaluator->EvaluateDemand(pattern).status());
  // The parent has not evaluated anything yet...
  EXPECT_FALSE(evaluator->Query(pattern).ok());
  // ...and a subsequent full evaluation works normally.
  ASSERT_OK(evaluator->Evaluate());
  EXPECT_EQ(ValueOrDie(evaluator->Query(pattern)).size(), 4u);
}

TEST(MagicDemandGenealogyTest, AnswersTheUncleQueryLikeFullEvaluation) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  auto s1_store = std::make_unique<InstanceStore>(&fixture.s1);
  s1_store->SetOidContext("agent1", "ooint", "S1db");
  auto s2_store = std::make_unique<InstanceStore>(&fixture.s2);
  s2_store->SetOidContext("agent2", "ooint", "S2db");
  ASSERT_OK(PopulateGenealogy(s1_store.get(), s2_store.get(),
                              /*num_families=*/8));

  auto make = [&]() {
    auto evaluator = std::make_unique<Evaluator>();
    evaluator->AddSource("S1", s1_store.get());
    evaluator->AddSource("S2", s2_store.get());
    EXPECT_OK(evaluator->BindConcept("IS(S1.parent)", "S1", "parent"));
    EXPECT_OK(evaluator->BindConcept("IS(S1.brother)", "S1", "brother"));
    EXPECT_OK(evaluator->BindConcept("IS(S2.uncle)", "S2", "uncle"));
    const Assertion assertion = ValueOrDie(
        AssertionParser::ParseOne(fixture.assertion_text));
    RuleGenerator generator;
    for (Rule& rule : ValueOrDie(generator.Generate(assertion))) {
      EXPECT_OK(evaluator->AddRule(std::move(rule)));
    }
    return evaluator;
  };

  std::unique_ptr<Evaluator> full = make();
  ASSERT_OK(full->Evaluate());
  OTerm pattern = Pattern("IS(S2.uncle)");
  Where(&pattern, "niece_nephew", Value::String("C3a"));
  Select(&pattern, "Ussn#", "who");
  const std::vector<Bindings> expected = ValueOrDie(full->Query(pattern));

  std::unique_ptr<Evaluator> demand_eval = make();
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(demand_eval->EvaluateDemand(pattern));
  EXPECT_EQ(RowKeys(outcome.rows), RowKeys(expected));
  ASSERT_FALSE(outcome.rows.empty());
  // The selective query derives only the demanded family's uncles.
  if (demand_eval->PlanDemand(pattern).program.applied) {
    EXPECT_LT(outcome.stats.derived_facts, full->stats().derived_facts);
  }
}

}  // namespace
}  // namespace ooint
