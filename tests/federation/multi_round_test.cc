// Multi-round federation: three component databases where a derivation
// assertion links S1 and S2, and S3 joins by equivalence — the rules
// generated in round 1 must be rewritten to the final class names and
// still answer queries after round 2 (the accumulation strategy of
// Fig. 2(a) and the balanced strategy of Fig. 2(b)).

#include <gtest/gtest.h>

#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

class MultiRoundFederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Fixture fixture = ValueOrDie(MakeGenealogyFixture());
    std::unique_ptr<FsmAgent> family = ValueOrDie(
        FsmAgent::Create("agent1", "ooint", "db1", fixture.s1));
    std::unique_ptr<FsmAgent> relatives = ValueOrDie(
        FsmAgent::Create("agent2", "ooint", "db2", fixture.s2));
    ASSERT_OK(PopulateGenealogy(&family->store(), &relatives->store(), 3));

    // S3: another uncles database, equivalent concept, own data.
    Schema s3("S3");
    ClassDef avuncular("avuncular");
    avuncular.AddAttribute("Ussn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("niece_nephew", ValueKind::kString);
    ASSERT_OK(s3.AddClass(std::move(avuncular)).status());
    ASSERT_OK(s3.Finalize());
    std::unique_ptr<FsmAgent> third =
        ValueOrDie(FsmAgent::Create("agent3", "ooint", "db3", s3));
    Object* stored = ValueOrDie(third->store().NewObject("avuncular"));
    stored->Set("Ussn#", Value::String("U-third"))
        .Set("name", Value::String("Ted"))
        .Set("niece_nephew", Value::Set({Value::String("C-third")}));

    ASSERT_OK(fsm_.RegisterAgent(std::move(family)));
    ASSERT_OK(fsm_.RegisterAgent(std::move(relatives)));
    ASSERT_OK(fsm_.RegisterAgent(std::move(third)));
    ASSERT_OK(fsm_.DeclareAssertions(fixture.assertion_text));
    ASSERT_OK(fsm_.DeclareAssertions(R"(
assert S2.uncle == S3.avuncular {
  attr: S2.uncle.Ussn# == S3.avuncular.Ussn#;
  attr: S2.uncle.name == S3.avuncular.name;
  attr: S2.uncle.niece_nephew == S3.avuncular.niece_nephew;
}
)"));
  }

  void CheckStrategy(Fsm::Strategy strategy) {
    FsmClient client(&fsm_);
    ASSERT_OK(client.Connect(strategy));
    ASSERT_EQ(client.global().rounds, 2u);

    // The uncle concept now unifies S2.uncle and S3.avuncular; the
    // round-1 derivation rule must have been rewritten to it.
    const std::string uncle = ValueOrDie(client.GlobalNameOf("S2", "uncle"));
    EXPECT_EQ(uncle, ValueOrDie(client.GlobalNameOf("S3", "avuncular")));

    // Derived uncle from the S1 derivation rule.
    {
      Query query(uncle);
      query.Where("niece_nephew", Value::String("C1a"))
          .Select("Ussn#", "who");
      const std::vector<Bindings> answers = ValueOrDie(client.Run(query));
      ASSERT_EQ(answers.size(), 1u);
      EXPECT_EQ(answers.front().at("who"), Value::String("U1"));
    }
    // Stored avuncular from S3, visible through the same concept.
    {
      Query query(uncle);
      query.Where("niece_nephew", Value::String("C-third"))
          .Select("name", "name");
      const std::vector<Bindings> answers = ValueOrDie(client.Run(query));
      ASSERT_EQ(answers.size(), 1u);
      EXPECT_EQ(answers.front().at("name"), Value::String("Ted"));
    }
  }

  Fsm fsm_;
};

TEST_F(MultiRoundFederationTest, AccumulationRewritesRulesAcrossRounds) {
  CheckStrategy(Fsm::Strategy::kAccumulation);
}

TEST_F(MultiRoundFederationTest, BalancedRewritesRulesAcrossRounds) {
  CheckStrategy(Fsm::Strategy::kBalanced);
}

TEST_F(MultiRoundFederationTest, GroundSourcesSpanAllRounds) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const std::string uncle = ValueOrDie(client.GlobalNameOf("S2", "uncle"));
  const auto& sources = client.global().ground_sources.at(uncle);
  ASSERT_EQ(sources.size(), 2u);  // S2.uncle and S3.avuncular
}

// Attribute renames across rounds: round 1 merges S1.a.x == S2.b.y into
// x_y, and a later round's S2.b.y == S3.c.z must reach x_y through the
// composed attribute map (and, with four agents under the balanced
// strategy, z_w on the other intermediate side).
class RenameAcrossRoundsTest : public ::testing::Test {
 protected:
  void Connect(size_t num_schemas, Fsm::Strategy strategy) {
    const FederationFixture fixture =
        ValueOrDie(MakeRenameFederation(num_schemas));
    for (size_t i = 0; i < fixture.schemas.size(); ++i) {
      const Schema& schema = fixture.schemas[i];
      std::unique_ptr<FsmAgent> agent = ValueOrDie(FsmAgent::Create(
          "agent" + std::to_string(i + 1), "ooint", schema.name() + "db",
          schema));
      // One object per agent: its two attributes hold "<attr>-<k>".
      const ClassDef& class_def = schema.class_def(0);
      Object* object =
          ValueOrDie(agent->store().NewObject(class_def.name()));
      for (const Attribute& attr : class_def.attributes()) {
        object->Set(attr.name,
                    Value::String(attr.name + "-" + std::to_string(i + 1)));
      }
      ASSERT_OK(fsm_.RegisterAgent(std::move(agent)));
    }
    ASSERT_OK(fsm_.DeclareAssertions(fixture.assertion_text));
    client_ = std::make_unique<FsmClient>(&fsm_);
    ASSERT_OK(client_->Connect(strategy));
  }

  /// The global class every agent's class merged into, after checking
  /// that the agents agree on it.
  std::string MergedClass(size_t num_schemas) {
    const std::string merged = ValueOrDie(client_->GlobalNameOf("S1", "a"));
    const char* classes[] = {"a", "b", "c", "d"};
    for (size_t k = 1; k < num_schemas; ++k) {
      EXPECT_EQ(ValueOrDie(client_->GlobalNameOf("S" + std::to_string(k + 1),
                                                 classes[k])),
                merged);
    }
    return merged;
  }

  /// Checks the global attribute `name` exists, that the last round
  /// built it from `sources`, and that the merged concept answers a
  /// query for S3's object.
  void CheckRenamed(const std::string& merged, const std::string& name,
                    const std::vector<std::string>& sources) {
    const GlobalSchema& global = client_->global();
    const ClassId id = global.schema.FindClass(merged);
    ASSERT_NE(id, kInvalidClassId);
    EXPECT_NE(global.schema.class_def(id).FindAttribute(name), nullptr);
    const IntegratedClass* integrated = global.last_round.FindClass(merged);
    ASSERT_NE(integrated, nullptr);
    const IntegratedAttribute* attribute = integrated->FindAttribute(name);
    ASSERT_NE(attribute, nullptr);
    EXPECT_EQ(attribute->op, ValueSetOp::kUnion);
    std::vector<std::string> rendered;
    for (const Path& source : attribute->sources) {
      rendered.push_back(source.ToString());
    }
    EXPECT_EQ(rendered, sources);

    Query query(merged);
    query.Where("z", Value::String("z-3")).Select("r", "r");
    const std::vector<Bindings> answers = ValueOrDie(client_->Run(query));
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers.front().at("r"), Value::String("r-3"));
  }

  Fsm fsm_;
  std::unique_ptr<FsmClient> client_;
};

TEST_F(RenameAcrossRoundsTest, ThreeAgentsAccumulation) {
  Connect(3, Fsm::Strategy::kAccumulation);
  CheckRenamed(MergedClass(3), "x_y_z",
               {"IS(S1,S2).IS(S1.a,S2.b).x_y", "S3.c.z"});
}

TEST_F(RenameAcrossRoundsTest, ThreeAgentsBalanced) {
  Connect(3, Fsm::Strategy::kBalanced);
  CheckRenamed(MergedClass(3), "x_y_z",
               {"IS(S1,S2).IS(S1.a,S2.b).x_y", "S3.c.z"});
}

TEST_F(RenameAcrossRoundsTest, FourAgentsAccumulation) {
  Connect(4, Fsm::Strategy::kAccumulation);
  CheckRenamed(MergedClass(4), "x_y_z_w",
               {"IS(IS(S1,S2),S3).IS(IS(S1,S2).IS(S1.a,S2.b),S3.c).x_y_z",
                "S4.d.w"});
}

TEST_F(RenameAcrossRoundsTest, FourAgentsBalancedRenamesBothSides) {
  Connect(4, Fsm::Strategy::kBalanced);
  CheckRenamed(MergedClass(4), "x_y_z_w",
               {"IS(S1,S2).IS(S1.a,S2.b).x_y", "IS(S3,S4).IS(S3.c,S4.d).z_w"});
}

}  // namespace
}  // namespace ooint
