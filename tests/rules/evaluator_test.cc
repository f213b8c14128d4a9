#include "rules/evaluator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assertions/parser.h"
#include "rules/rule_generator.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

OTerm Membership(const std::string& class_name, const std::string& var) {
  OTerm t;
  t.object = TermArg::Variable(var);
  t.class_name = class_name;
  return t;
}

class GenealogyEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    s1_store_ = std::make_unique<InstanceStore>(&fixture_.s1);
    s1_store_->SetOidContext("agent1", "ooint", "S1db");
    s2_store_ = std::make_unique<InstanceStore>(&fixture_.s2);
    s2_store_->SetOidContext("agent2", "ooint", "S2db");
    ASSERT_OK(PopulateGenealogy(s1_store_.get(), s2_store_.get(),
                                /*num_families=*/3));

    evaluator_.AddSource("S1", s1_store_.get());
    evaluator_.AddSource("S2", s2_store_.get());
    ASSERT_OK(evaluator_.BindConcept("IS(S1.parent)", "S1", "parent"));
    ASSERT_OK(evaluator_.BindConcept("IS(S1.brother)", "S1", "brother"));
    ASSERT_OK(evaluator_.BindConcept("IS(S2.uncle)", "S2", "uncle"));

    const Assertion assertion = ValueOrDie(AssertionParser::ParseOne(
        ValueOrDie(MakeGenealogyFixture()).assertion_text));
    RuleGenerator generator;
    for (Rule& rule : ValueOrDie(generator.Generate(assertion))) {
      ASSERT_OK(evaluator_.AddRule(std::move(rule)));
    }
  }

  Fixture fixture_;
  std::unique_ptr<InstanceStore> s1_store_;
  std::unique_ptr<InstanceStore> s2_store_;
  Evaluator evaluator_;
};

TEST_F(GenealogyEvaluatorTest, DerivesUnclesFromParentsAndBrothers) {
  ASSERT_OK(evaluator_.Evaluate());
  // 3 families, one uncle each, two nieces/nephews per family. Derived
  // facts are element-level (one fact per set element, the flattening
  // convention of the matcher), so 3 x 2 facts appear.
  const std::vector<const Fact*> uncles =
      evaluator_.FactsOf("IS(S2.uncle)");
  ASSERT_EQ(uncles.size(), 6u);
  for (const Fact* uncle : uncles) {
    EXPECT_EQ(uncle->oid.agent(), "derived");
  }
  EXPECT_EQ(evaluator_.stats().base_facts, 6u);
  EXPECT_GE(evaluator_.stats().derived_facts, 3u);
}

TEST_F(GenealogyEvaluatorTest, QueryAnswersTheUncleQuestion) {
  // ?-uncle(child "C1a", who?): Appendix B's motivating query shape.
  ASSERT_OK(evaluator_.Evaluate());
  OTerm query = Membership("IS(S2.uncle)", "u");
  query.attrs.push_back(
      {"niece_nephew", false, TermArg::Constant(Value::String("C1a"))});
  query.attrs.push_back({"Ussn#", false, TermArg::Variable("who")});
  const std::vector<Bindings> answers =
      ValueOrDie(evaluator_.Query(query));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers.front().at("who"), Value::String("U1"));
}

TEST_F(GenealogyEvaluatorTest, QueryBindsAllNiecesOfAnUncle) {
  ASSERT_OK(evaluator_.Evaluate());
  OTerm query = Membership("IS(S2.uncle)", "u");
  query.attrs.push_back(
      {"Ussn#", false, TermArg::Constant(Value::String("U0"))});
  query.attrs.push_back({"niece_nephew", false, TermArg::Variable("kid")});
  const std::vector<Bindings> answers =
      ValueOrDie(evaluator_.Query(query));
  // Set-valued head attribute: one row per element.
  ASSERT_EQ(answers.size(), 2u);
}

TEST_F(GenealogyEvaluatorTest, DerivedFactsAreDeduplicated) {
  ASSERT_OK(evaluator_.Evaluate());
  const size_t first = evaluator_.FactsOf("IS(S2.uncle)").size();
  evaluator_.Reset();
  ASSERT_OK(evaluator_.Evaluate());
  EXPECT_EQ(evaluator_.FactsOf("IS(S2.uncle)").size(), first);
}

TEST(EvaluatorTest, MembershipRuleCopiesEntityAttributes) {
  // <x: IS_AB> <= <x: A>, <y: B>, y = x with a data-mapping identity:
  // the derived IS_AB fact carries the attributes of both constituents.
  Schema s1("S1");
  ClassDef faculty("faculty");
  faculty.AddAttribute("fssn#", ValueKind::kString)
      .AddAttribute("income", ValueKind::kInteger);
  ASSERT_OK(s1.AddClass(std::move(faculty)).status());
  ASSERT_OK(s1.Finalize());
  Schema s2("S2");
  ClassDef student("student");
  student.AddAttribute("ssn#", ValueKind::kString)
      .AddAttribute("study_support", ValueKind::kInteger);
  ASSERT_OK(s2.AddClass(std::move(student)).status());
  ASSERT_OK(s2.Finalize());

  InstanceStore store1(&s1);
  store1.SetOidContext("a1", "ooint", "db1");
  InstanceStore store2(&s2);
  store2.SetOidContext("a2", "ooint", "db2");
  Object* f = ValueOrDie(store1.NewObject("faculty"));
  f->Set("fssn#", Value::String("123")).Set("income", Value::Integer(5000));
  Object* st = ValueOrDie(store2.NewObject("student"));
  st->Set("ssn#", Value::String("123"))
      .Set("study_support", Value::Integer(400));
  Object* other = ValueOrDie(store2.NewObject("student"));
  other->Set("ssn#", Value::String("999"));

  DataMappingRegistry mappings;
  mappings.DeclareSameObject(f->oid(), st->oid());

  Evaluator evaluator;
  evaluator.AddSource("S1", &store1);
  evaluator.AddSource("S2", &store2);
  evaluator.SetDataMappings(&mappings);
  ASSERT_OK(evaluator.BindConcept("ISF", "S1", "faculty"));
  ASSERT_OK(evaluator.BindConcept("ISS", "S2", "student"));

  Rule rule;
  rule.head.push_back(Literal::OfOTerm(Membership("IS_both", "x")));
  rule.body.push_back(Literal::OfOTerm(Membership("ISF", "x")));
  rule.body.push_back(Literal::OfOTerm(Membership("ISS", "y")));
  rule.body.push_back(Literal::OfCompare(
      TermArg::Variable("y"), CompareOp::kEq, TermArg::Variable("x")));
  ASSERT_OK(evaluator.AddRule(std::move(rule)));
  ASSERT_OK(evaluator.Evaluate());

  const std::vector<const Fact*> both = evaluator.FactsOf("IS_both");
  ASSERT_EQ(both.size(), 1u);
  // Attributes of both constituents are merged into the entity.
  EXPECT_EQ(both.front()->attrs.at("income"), Value::Integer(5000));
  EXPECT_EQ(both.front()->attrs.at("study_support"), Value::Integer(400));
}

TEST(EvaluatorTest, StratifiedNegationComputesDifferences) {
  // The IS_A− pattern of Principle 3.
  Schema s1("S1");
  ClassDef a("a");
  a.AddAttribute("k", ValueKind::kInteger);
  ASSERT_OK(s1.AddClass(std::move(a)).status());
  ClassDef b("b");
  b.AddAttribute("k", ValueKind::kInteger);
  ASSERT_OK(s1.AddClass(std::move(b)).status());
  ASSERT_OK(s1.Finalize());
  InstanceStore store(&s1);
  for (int i = 0; i < 4; ++i) {
    ValueOrDie(store.NewObject("a"))->Set("k", Value::Integer(i));
  }

  Evaluator evaluator;
  evaluator.AddSource("S1", &store);
  ASSERT_OK(evaluator.BindConcept("A", "S1", "a"));

  // small(x) <= <x: A | k < 2>; rest <= A and not small.
  Rule small;
  OTerm small_head = Membership("small", "x");
  small.head.push_back(Literal::OfOTerm(small_head));
  OTerm small_body = Membership("A", "x");
  small_body.attrs.push_back({"k", false, TermArg::Variable("k")});
  small.body.push_back(Literal::OfOTerm(small_body));
  small.body.push_back(Literal::OfCompare(
      TermArg::Variable("k"), CompareOp::kLt,
      TermArg::Constant(Value::Integer(2))));
  ASSERT_OK(evaluator.AddRule(std::move(small)));

  Rule rest;
  rest.head.push_back(Literal::OfOTerm(Membership("rest", "x")));
  rest.body.push_back(Literal::OfOTerm(Membership("A", "x")));
  rest.body.push_back(
      Literal::OfOTerm(Membership("small", "x"), /*negated=*/true));
  ASSERT_OK(evaluator.AddRule(std::move(rest)));

  ASSERT_OK(evaluator.Evaluate());
  EXPECT_EQ(evaluator.FactsOf("small").size(), 2u);
  EXPECT_EQ(evaluator.FactsOf("rest").size(), 2u);
  EXPECT_EQ(evaluator.stats().strata, 2u);
}

TEST(EvaluatorTest, RejectsNegationThroughRecursion) {
  Evaluator evaluator;
  Rule r1;
  r1.head.push_back(Literal::OfOTerm(Membership("p", "x")));
  r1.body.push_back(Literal::OfOTerm(Membership("q", "x")));
  r1.body.push_back(Literal::OfOTerm(Membership("p", "x"), true));
  // Safety: x is bound by q.
  ASSERT_OK(evaluator.AddRule(std::move(r1)));
  EXPECT_EQ(evaluator.Evaluate().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluatorTest, RejectsDisjunctiveHeads) {
  Evaluator evaluator;
  Rule rule;
  rule.head.push_back(Literal::OfOTerm(Membership("a", "x")));
  rule.head.push_back(Literal::OfOTerm(Membership("b", "x")));
  rule.disjunctive_head = true;
  rule.body.push_back(Literal::OfOTerm(Membership("c", "x")));
  EXPECT_EQ(evaluator.AddRule(std::move(rule)).code(),
            StatusCode::kUnsupported);
}

TEST(EvaluatorTest, OrdinaryPredicatesJoin) {
  // The §2 department-manager rule flavor, with plain predicates.
  Evaluator evaluator;
  // edge(1,2), edge(2,3) as rules with constant heads over no body.
  auto edge_fact = [](int from, int to) {
    Rule r;
    r.head.push_back(Literal::OfPredicate(
        "edge", {TermArg::Constant(Value::Integer(from)),
                 TermArg::Constant(Value::Integer(to))}));
    return r;
  };
  ASSERT_OK(evaluator.AddRule(edge_fact(1, 2)));
  ASSERT_OK(evaluator.AddRule(edge_fact(2, 3)));
  Rule hop;
  hop.head.push_back(Literal::OfPredicate(
      "hop", {TermArg::Variable("a"), TermArg::Variable("c")}));
  hop.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("a"), TermArg::Variable("b")}));
  hop.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("b"), TermArg::Variable("c")}));
  ASSERT_OK(evaluator.AddRule(std::move(hop)));
  ASSERT_OK(evaluator.Evaluate());
  ASSERT_EQ(evaluator.FactsOf("hop").size(), 1u);
  EXPECT_EQ(evaluator.FactsOf("hop").front()->attrs.at("0"),
            Value::Integer(1));
  EXPECT_EQ(evaluator.FactsOf("hop").front()->attrs.at("1"),
            Value::Integer(3));
}

TEST(EvaluatorTest, RecursivePositiveRulesReachFixpoint) {
  Evaluator evaluator;
  auto edge_fact = [](int from, int to) {
    Rule r;
    r.head.push_back(Literal::OfPredicate(
        "edge", {TermArg::Constant(Value::Integer(from)),
                 TermArg::Constant(Value::Integer(to))}));
    return r;
  };
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(evaluator.AddRule(edge_fact(i, i + 1)));
  }
  Rule base;
  base.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("a"), TermArg::Variable("b")}));
  base.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("a"), TermArg::Variable("b")}));
  ASSERT_OK(evaluator.AddRule(std::move(base)));
  Rule step;
  step.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("a"), TermArg::Variable("c")}));
  step.body.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("a"), TermArg::Variable("b")}));
  step.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("b"), TermArg::Variable("c")}));
  ASSERT_OK(evaluator.AddRule(std::move(step)));
  ASSERT_OK(evaluator.Evaluate());
  // Transitive closure of a 6-node chain: 5+4+3+2+1 = 15 pairs.
  EXPECT_EQ(evaluator.FactsOf("path").size(), 15u);
  EXPECT_GT(evaluator.stats().iterations, 2u);
}

TEST(EvaluatorTest, SchematicAttributeNameVariables) {
  // A rule with a variable attribute name (Section 2's schematic
  // discrepancy support): derive name(attr, value) pairs from any
  // attribute of class A.
  Schema s1("S1");
  ClassDef a("a");
  a.AddAttribute("p", ValueKind::kInteger);
  a.AddAttribute("q", ValueKind::kInteger);
  ASSERT_OK(s1.AddClass(std::move(a)).status());
  ASSERT_OK(s1.Finalize());
  InstanceStore store(&s1);
  Object* obj = ValueOrDie(store.NewObject("a"));
  obj->Set("p", Value::Integer(1)).Set("q", Value::Integer(2));

  Evaluator evaluator;
  evaluator.AddSource("S1", &store);
  ASSERT_OK(evaluator.BindConcept("A", "S1", "a"));
  Rule rule;
  rule.head.push_back(Literal::OfPredicate(
      "cell", {TermArg::Variable("n"), TermArg::Variable("v")}));
  OTerm body = Membership("A", "x");
  body.attrs.push_back({"n", true, TermArg::Variable("v")});
  rule.body.push_back(Literal::OfOTerm(body));
  ASSERT_OK(evaluator.AddRule(std::move(rule)));
  ASSERT_OK(evaluator.Evaluate());
  EXPECT_EQ(evaluator.FactsOf("cell").size(), 2u);
}

TEST(EvaluatorTest, QueryReturnsEqualRowsOnceInFirstOccurrenceOrder) {
  // Two facts of one concept share an OID and the matched attribute;
  // the later one carries an extra attribute. Both bind the pattern
  // identically, so the raw stream repeats a row that Query() keeps once,
  // where it first occurred.
  auto fact = [](std::uint64_t number, std::int64_t a,
                 std::map<std::string, Value> extra) {
    Fact f;
    f.concept_name = "C";
    f.oid = Oid("agent", "ooint", "db", "c", number);
    f.attrs = std::move(extra);
    f.attrs["a"] = Value::Integer(a);
    return f;
  };
  Evaluator evaluator;
  evaluator.AddFact(fact(1, 10, {}));
  evaluator.AddFact(fact(2, 20, {}));
  evaluator.AddFact(fact(1, 10, {{"b", Value::Integer(9)}}));
  evaluator.AddFact(fact(3, 10, {}));
  ASSERT_OK(evaluator.Evaluate());
  ASSERT_EQ(evaluator.FactsOf("C").size(), 4u);

  const auto drain = [&](const OTerm& pattern) {
    std::unique_ptr<RowSource> stream =
        ValueOrDie(evaluator.OpenQueryStream(pattern));
    std::vector<Bindings> rows;
    Bindings row;
    while (stream->NextBindings(&row)) rows.push_back(row);
    return rows;
  };
  const Value oid1 = Value::OfOid(Oid("agent", "ooint", "db", "c", 1));
  const Value oid2 = Value::OfOid(Oid("agent", "ooint", "db", "c", 2));
  const Value oid3 = Value::OfOid(Oid("agent", "ooint", "db", "c", 3));

  // Scan: every fact of C is a candidate.
  OTerm scan = Membership("C", "x");
  scan.attrs.push_back({"a", false, TermArg::Variable("v")});
  const std::vector<Bindings> streamed = drain(scan);
  ASSERT_EQ(streamed.size(), 4u);
  EXPECT_EQ(streamed[0], streamed[2]);
  const std::vector<Bindings> scanned = ValueOrDie(evaluator.Query(scan));
  const std::vector<Bindings> want_scan = {
      {{"x", oid1}, {"v", Value::Integer(10)}},
      {{"x", oid2}, {"v", Value::Integer(20)}},
      {{"x", oid3}, {"v", Value::Integer(10)}}};
  EXPECT_EQ(scanned, want_scan);

  // Probe: the constant descriptor picks the candidates off the index.
  OTerm probe = Membership("C", "x");
  probe.attrs.push_back({"a", false, TermArg::Constant(Value::Integer(10))});
  EXPECT_EQ(drain(probe).size(), 3u);
  const std::vector<Bindings> want_probe = {{{"x", oid1}}, {{"x", oid3}}};
  EXPECT_EQ(ValueOrDie(evaluator.Query(probe)), want_probe);
}

TEST(EvaluatorTest, QueryBeforeEvaluateFails) {
  Evaluator evaluator;
  EXPECT_EQ(evaluator.Query(Membership("x", "v")).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ooint
