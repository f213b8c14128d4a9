#include "federation/fsm.h"

#include <gtest/gtest.h>

#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

std::unique_ptr<FsmAgent> AgentFor(const Schema& schema,
                                   const std::string& agent_name) {
  return ValueOrDie(FsmAgent::Create(agent_name, "ooint",
                                     schema.name() + "db", schema));
}

TEST(FsmAgentTest, CreateWrapsSchemaAndStore) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  std::unique_ptr<FsmAgent> agent = AgentFor(fixture.s1, "agent1");
  EXPECT_EQ(agent->name(), "agent1");
  EXPECT_EQ(agent->schema().name(), "S1");
  Object* object = ValueOrDie(agent->store().NewObject("parent"));
  // OIDs carry the agent context (Section 3).
  EXPECT_EQ(object->oid().agent(), "agent1");
  EXPECT_EQ(object->oid().database(), "S1db");
}

TEST(FsmAgentTest, FromRelationalTransformsFirst) {
  RelationalSchema rel("PatientDB");
  ASSERT_OK(rel.AddRelation(
      {"patient", {{"pid", ValueKind::kInteger, true, "", ""},
                   {"name", ValueKind::kString, false, "", ""}}}));
  std::unique_ptr<FsmAgent> agent =
      ValueOrDie(FsmAgent::FromRelational("agent9", "informix", rel));
  EXPECT_EQ(agent->schema().name(), "PatientDB");
  EXPECT_NE(agent->schema().FindClass("patient"), kInvalidClassId);
  EXPECT_EQ(agent->dbms(), "informix");
}

TEST(FsmTest, RegisterRejectsDuplicateSchemas) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(AgentFor(fixture.s1, "a1")));
  EXPECT_EQ(fsm.RegisterAgent(AgentFor(fixture.s1, "a2")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_NE(fsm.FindAgent("S1"), nullptr);
  EXPECT_EQ(fsm.FindAgent("S9"), nullptr);
}

TEST(FsmTest, IntegrateAllRequiresAgents) {
  Fsm fsm;
  EXPECT_EQ(fsm.IntegrateAll().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FsmTest, SingleAgentGlobalSchemaIsIdentity) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(AgentFor(fixture.s1, "a1")));
  const GlobalSchema global = ValueOrDie(fsm.IntegrateAll());
  EXPECT_EQ(global.schema.NumClasses(), fixture.s1.NumClasses());
  EXPECT_EQ(global.rounds, 0u);
  EXPECT_EQ(global.ground_sources.at("parent").front().schema, "S1");
}

TEST(FsmTest, TwoSchemasIntegrateWithDeclaredAssertions) {
  Fixture fixture = ValueOrDie(MakeUniversityFixture());
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(AgentFor(fixture.s1, "a1")));
  ASSERT_OK(fsm.RegisterAgent(AgentFor(fixture.s2, "a2")));
  ASSERT_OK(fsm.DeclareAssertions(fixture.assertion_text));
  const GlobalSchema global = ValueOrDie(fsm.IntegrateAll());
  EXPECT_EQ(global.rounds, 1u);
  // person/human are one global class with both ground sources.
  const std::string merged = "IS(S1.person,S2.human)";
  ASSERT_NE(global.schema.FindClass(merged), kInvalidClassId);
  ASSERT_EQ(global.ground_sources.at(merged).size(), 2u);
  // The intersection rules survive into the global rule set.
  EXPECT_GE(global.rules.size(), 3u);
}

TEST(FsmTest, DeclareAssertionsRejectsGarbage) {
  Fsm fsm;
  EXPECT_FALSE(fsm.DeclareAssertions("assert nonsense").ok());
}

/// An Fsm over the genealogy fixture's two schemas, nothing declared.
class FsmDeclarationTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpAgents(&fsm_); }

  static void SetUpAgents(Fsm* fsm) {
    const Fixture fixture = ValueOrDie(MakeGenealogyFixture());
    ASSERT_OK(fsm->RegisterAgent(AgentFor(fixture.s1, "a1")));
    ASSERT_OK(fsm->RegisterAgent(AgentFor(fixture.s2, "a2")));
  }

  Fsm fsm_;
};

TEST_F(FsmDeclarationTest, ConflictingDeclarationIsRejected) {
  ASSERT_OK(fsm_.DeclareAssertions("assert S1.parent == S2.uncle { }"));
  const Status conflict =
      fsm_.DeclareAssertions("assert S1.parent ! S2.uncle { }");
  EXPECT_EQ(conflict.code(), StatusCode::kAlreadyExists)
      << conflict.ToString();
  ASSERT_EQ(fsm_.assertions().size(), 1u);
  EXPECT_EQ(fsm_.assertions().front().rel, SetRel::kEquivalent);
  // The same two lines in one text fail the same way.
  Fsm fresh;
  SetUpAgents(&fresh);
  EXPECT_EQ(fresh
                .DeclareAssertions("assert S1.parent == S2.uncle { }\n"
                                   "assert S1.parent ! S2.uncle { }")
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(FsmDeclarationTest, EmptyLhsIsRejected) {
  Assertion empty;
  empty.rel = SetRel::kEquivalent;
  empty.rhs = {"S2", "uncle"};
  EXPECT_EQ(fsm_.AddAssertion(std::move(empty)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(fsm_.assertions().empty());
  EXPECT_TRUE(ValueOrDie(fsm_.CheckAllConsistency()).empty());
}

TEST_F(FsmDeclarationTest, ConsistencyCheckRejectsAnUnknownClass) {
  // Misspelled on either side: the check numbers classes by id, so it
  // validates the pair's assertions first.
  for (const std::string text : {"assert S1.parnet == S2.uncle { }",
                                 "assert S1.parent == S2.uncel { }"}) {
    Fsm fsm;
    SetUpAgents(&fsm);
    ASSERT_OK(fsm.DeclareAssertions(text));
    EXPECT_EQ(fsm.CheckAllConsistency().status().code(),
              StatusCode::kNotFound)
        << text;
  }
}

TEST_F(FsmDeclarationTest, MultiLhsEquivalenceIsRejected) {
  Assertion multi;
  multi.lhs = {{"S1", "parent"}, {"S1", "brother"}};
  multi.rel = SetRel::kEquivalent;
  multi.rhs = {"S2", "uncle"};
  EXPECT_EQ(fsm_.AddAssertion(std::move(multi)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(fsm_.assertions().empty());
}

TEST_F(FsmDeclarationTest, TextConflictingWithADeclaredPairAddsNothing) {
  ASSERT_OK(fsm_.DeclareAssertions("assert S1.parent == S2.uncle { }"));
  const std::string before = fsm_.assertions().front().ToString();
  // The first assertion of the text is fine; the second relates the
  // declared pair again, so neither is declared.
  EXPECT_EQ(fsm_.DeclareAssertions("assert S1.brother <= S2.uncle { }\n"
                                   "assert S2.uncle ! S1.parent { }")
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_EQ(fsm_.assertions().size(), 1u);
  EXPECT_EQ(fsm_.assertions().front().ToString(), before);
}

class ThreeSchemaFsmTest : public ::testing::Test {
 protected:
  // Three genealogy-flavoured schemas: S1 {person_a}, S2 {person_b},
  // S3 {person_c}, all equivalent.
  void SetUp() override {
    for (int i = 1; i <= 3; ++i) {
      Schema s("S" + std::to_string(i));
      ClassDef c("person_" + std::string(1, char('a' + i - 1)));
      c.AddAttribute("ssn", ValueKind::kString);
      c.AddAttribute("extra_" + std::to_string(i), ValueKind::kInteger);
      ASSERT_OK(s.AddClass(std::move(c)).status());
      ASSERT_OK(s.Finalize());
      ASSERT_OK(fsm_.RegisterAgent(
          AgentFor(s, "agent" + std::to_string(i))));
    }
    ASSERT_OK(fsm_.DeclareAssertions(R"(
assert S1.person_a == S2.person_b {
  attr: S1.person_a.ssn == S2.person_b.ssn;
}
assert S2.person_b == S3.person_c {
  attr: S2.person_b.ssn == S3.person_c.ssn;
}
assert S1.person_a == S3.person_c {
  attr: S1.person_a.ssn == S3.person_c.ssn;
}
)"));
  }

  Fsm fsm_;
};

TEST_F(ThreeSchemaFsmTest, CheckAllConsistencyCleanSetup) {
  EXPECT_TRUE(ValueOrDie(fsm_.CheckAllConsistency()).empty());
}

TEST(FsmConsistencyTest, SweepFindsHierarchyInversionAcrossPairs) {
  // Two chain schemas whose equivalences invert the hierarchy.
  auto make_chain = [](const std::string& name, const std::string& prefix) {
    Schema s(name);
    EXPECT_OK(s.AddClass(ClassDef(prefix + "0")).status());
    EXPECT_OK(s.AddClass(ClassDef(prefix + "1")).status());
    EXPECT_OK(s.AddIsA(prefix + "1", prefix + "0"));
    EXPECT_OK(s.Finalize());
    return s;
  };
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(ValueOrDie(
      FsmAgent::Create("a1", "ooint", "db1", make_chain("S1", "a")))));
  ASSERT_OK(fsm.RegisterAgent(ValueOrDie(
      FsmAgent::Create("a2", "ooint", "db2", make_chain("S2", "b")))));
  ASSERT_OK(fsm.DeclareAssertions(R"(
assert S1.a0 == S2.b1;
assert S1.a1 == S2.b0;
)"));
  const std::vector<ConsistencyFinding> findings =
      ValueOrDie(fsm.CheckAllConsistency());
  EXPECT_TRUE(HasErrors(findings));
}

TEST_F(ThreeSchemaFsmTest, AccumulationMergesAllThree) {
  const GlobalSchema global =
      ValueOrDie(fsm_.IntegrateAll(Fsm::Strategy::kAccumulation));
  EXPECT_EQ(global.rounds, 2u);
  EXPECT_EQ(global.schema.NumClasses(), 1u);
  const std::string name = global.schema.classes().front().name();
  ASSERT_EQ(global.ground_sources.at(name).size(), 3u);
  // All three extras accumulated.
  const ClassDef& merged = global.schema.classes().front();
  EXPECT_NE(merged.FindAttribute("extra_1"), nullptr);
  EXPECT_NE(merged.FindAttribute("extra_2"), nullptr);
  EXPECT_NE(merged.FindAttribute("extra_3"), nullptr);
}

TEST(FsmClientGuardTest, RunAndExtentBeforeConnectFailCleanly) {
  Fsm fsm;  // deliberately empty: Connect() cannot succeed either
  FsmClient client(&fsm);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.Run(Query("IS(ghost)")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Extent("IS(ghost)").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(client.degraded().degraded());
  EXPECT_TRUE(client.ConnectionHealth().empty());

  // A failed Connect leaves the client disconnected, not half-built.
  EXPECT_FALSE(client.Connect().ok());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.Run(Query("IS(ghost)")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ThreeSchemaFsmTest, BalancedStrategyAgreesOnGroundSources) {
  const GlobalSchema accumulated =
      ValueOrDie(fsm_.IntegrateAll(Fsm::Strategy::kAccumulation));
  const GlobalSchema balanced =
      ValueOrDie(fsm_.IntegrateAll(Fsm::Strategy::kBalanced));
  ASSERT_EQ(balanced.schema.NumClasses(), accumulated.schema.NumClasses());
  // Both strategies integrate all three person classes into one.
  ASSERT_EQ(balanced.ground_sources.size(), 1u);
  EXPECT_EQ(balanced.ground_sources.begin()->second.size(), 3u);
}

// With two or more agents, an assertion that no integration round applies
// fails IntegrateAll (and so Connect) with kInvalidArgument naming it,
// instead of being dropped without a word.
class UnappliedAssertionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    ASSERT_OK(fsm_.RegisterAgent(AgentFor(fixture_.s1, "a1")));
    ASSERT_OK(fsm_.RegisterAgent(AgentFor(fixture_.s2, "a2")));
  }

  /// The genealogy derivation with every "S2.uncle" replaced.
  std::string UncleAssertionAs(const std::string& replacement) const {
    std::string text = fixture_.assertion_text;
    const std::string uncle = "S2.uncle";
    for (size_t at = text.find(uncle); at != std::string::npos;
         at = text.find(uncle, at + replacement.size())) {
      text.replace(at, uncle.size(), replacement);
    }
    return text;
  }

  /// Expects IntegrateAll and Connect to fail with kInvalidArgument, the
  /// message naming each of `heads`.
  void ExpectRejected(const std::vector<std::string>& heads) {
    const Status integrated = fsm_.IntegrateAll().status();
    EXPECT_EQ(integrated.code(), StatusCode::kInvalidArgument)
        << integrated.ToString();
    for (const std::string& head : heads) {
      EXPECT_NE(integrated.message().find(head), std::string::npos)
          << integrated.ToString();
    }
    FsmClient client(&fsm_);
    EXPECT_EQ(client.Connect().code(), StatusCode::kInvalidArgument);
  }

  Fixture fixture_;
  Fsm fsm_;
};

TEST_F(UnappliedAssertionTest, MisspelledClassIsRejected) {
  ASSERT_OK(fsm_.DeclareAssertions(UncleAssertionAs("S2.uncel")));
  ExpectRejected({"(S1.parent, S1.brother) -> S2.uncel"});
}

TEST_F(UnappliedAssertionTest, UnregisteredSchemaIsRejected) {
  ASSERT_OK(fsm_.DeclareAssertions(UncleAssertionAs("S3.uncle")));
  ExpectRejected({"(S1.parent, S1.brother) -> S3.uncle"});
}

TEST_F(UnappliedAssertionTest, DerivationLhsSpanningAgentsIsRejected) {
  // The parser keeps a derivation's lhs in one schema; AddAssertion does
  // not, and with two agents no round has S1 and S2 on one side.
  Assertion spanning;
  spanning.lhs = {{"S1", "parent"}, {"S2", "uncle"}};
  spanning.rel = SetRel::kDerivation;
  spanning.rhs = {"S1", "brother"};
  ASSERT_OK(fsm_.AddAssertion(std::move(spanning)));
  ExpectRejected({"(S1.parent, S2.uncle) -> S1.brother"});
}

TEST_F(UnappliedAssertionTest, BothSidesInOneAgentAreRejected) {
  ASSERT_OK(fsm_.DeclareAssertions(fixture_.assertion_text));
  ASSERT_OK(fsm_.DeclareAssertions("assert S1.parent == S1.brother;"));
  ExpectRejected({"S1.parent == S1.brother"});
}

TEST_F(UnappliedAssertionTest, EveryUnappliedAssertionIsNamed) {
  ASSERT_OK(fsm_.DeclareAssertions(fixture_.assertion_text));
  ASSERT_OK(fsm_.DeclareAssertions(UncleAssertionAs("S2.uncel")));
  ASSERT_OK(fsm_.DeclareAssertions("assert S1.parent == S1.brother;"));
  ExpectRejected({"-> S2.uncel", "S1.parent == S1.brother"});
}

TEST(FsmTest, SingleAgentIgnoresAssertions) {
  // One agent integrates nothing, so its assertions are not checked.
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(AgentFor(fixture.s1, "a1")));
  ASSERT_OK(fsm.DeclareAssertions(fixture.assertion_text));
  EXPECT_OK(fsm.IntegrateAll());
}

}  // namespace
}  // namespace ooint
