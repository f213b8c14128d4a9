// The class-pair index both integrators look assertions up in must
// answer exactly as AssertionSet::Find and AssertionSet::PartnersOf do,
// in both orientations; and formatting trace text only for a trace must
// leave an untraced integration's result unchanged.

#include "integrate/class_pairs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "assertions/parser.h"
#include "integrate/integrator.h"
#include "integrate/trace.h"
#include "model/schema_parser.h"
#include "test_util.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

/// The schemas and assertions of e2ebench's `connect` workload: a
/// 32-class random DAG, its counterpart, and 40% equivalence / 20%
/// inclusion / 40% derivation assertions, drawn from world seed 8 the
/// way e2ebench/e2e_bench.cc draws them (splitmix64 sub-seeds).
struct ConnectWorld {
  Schema s1{"S1"};
  Schema s2{"S2"};
  AssertionSet assertions;
};

std::uint64_t ConnectSubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x100000001b3ULL + stream + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result<ConnectWorld> MakeConnectWorld() {
  constexpr std::uint64_t kWorldSeed = 8;
  SchemaGenOptions schema_options;
  schema_options.name = "S1";
  schema_options.class_prefix = "c";
  schema_options.num_classes = 32;
  schema_options.shape = IsAShape::kRandomDag;
  schema_options.max_parents = 2;
  schema_options.attrs_per_class = 2;
  schema_options.seed = ConnectSubSeed(kWorldSeed, 1);
  ConnectWorld world;
  OOINT_ASSIGN_OR_RETURN(world.s1, GenerateSchema(schema_options));
  OOINT_ASSIGN_OR_RETURN(world.s2,
                         GenerateCounterpartSchema(world.s1, "S2", "d"));
  AssertionGenOptions assertion_options;
  assertion_options.equivalence_fraction = 0.4;
  assertion_options.inclusion_fraction = 0.2;
  assertion_options.derivation_fraction = 0.4;
  assertion_options.seed = ConnectSubSeed(kWorldSeed, 2);
  OOINT_ASSIGN_OR_RETURN(
      world.assertions,
      GenerateAssertions(world.s1, world.s2, "c", "d", assertion_options));
  return world;
}

ClassRef RefOf(const Schema& schema, ClassId id) {
  return {schema.name(), schema.class_def(id).name()};
}

/// The ids in `other` of `ref`'s PartnersOf, in PartnersOf order.
std::vector<ClassId> ExpectedPartners(const AssertionSet& assertions,
                                      const ClassRef& ref,
                                      const Schema& other) {
  std::vector<ClassId> out;
  for (const ClassRef& partner : assertions.PartnersOf(ref)) {
    if (partner.schema == other.name()) {
      out.push_back(other.FindClass(partner.class_name));
    }
  }
  return out;
}

void ExpectSameLookup(const AssertionSet::Lookup& got,
                      const AssertionSet::Lookup& want,
                      const std::string& pair) {
  EXPECT_EQ(got.assertion, want.assertion) << pair;
  if (!want.found()) return;
  EXPECT_EQ(got.rel, want.rel) << pair;
  EXPECT_EQ(got.reversed, want.reversed) << pair;
}

/// Every ordered pair, in both orientations, and every partner list.
void ExpectIndexMatchesAssertionSet(const Schema& s1, const Schema& s2,
                                    const AssertionSet& assertions) {
  const ClassPairIndex index(s1, s2, assertions);
  size_t found = 0;
  for (ClassId i = 0; i < static_cast<ClassId>(s1.NumClasses()); ++i) {
    for (ClassId j = 0; j < static_cast<ClassId>(s2.NumClasses()); ++j) {
      const ClassRef a = RefOf(s1, i);
      const ClassRef b = RefOf(s2, j);
      const std::string pair = a.ToString() + " / " + b.ToString();
      ExpectSameLookup(index.Find(1, i, j), assertions.Find(a, b), pair);
      ExpectSameLookup(index.Find(2, j, i), assertions.Find(b, a), pair);
      if (assertions.Find(a, b).found()) ++found;
    }
    EXPECT_EQ(index.PartnersOf(1, i),
              ExpectedPartners(assertions, RefOf(s1, i), s2));
  }
  for (ClassId j = 0; j < static_cast<ClassId>(s2.NumClasses()); ++j) {
    EXPECT_EQ(index.PartnersOf(2, j),
              ExpectedPartners(assertions, RefOf(s2, j), s1));
  }
  EXPECT_GT(found, 0u);
}

TEST(ClassPairIndexTest, MatchesAssertionSetOnTheConnectWorld) {
  const ConnectWorld world = ValueOrDie(MakeConnectWorld());
  ExpectIndexMatchesAssertionSet(world.s1, world.s2, world.assertions);
}

TEST(ClassPairIndexTest, MatchesAssertionSetWithMultiLhsDerivations) {
  // Random partners on two differently shaped DAGs, derivations in both
  // directions, each with two lhs classes.
  SchemaGenOptions options;
  options.shape = IsAShape::kRandomDag;
  options.num_classes = 40;
  options.seed = 3;
  const Schema s1 = ValueOrDie(GenerateSchema(options));
  options.name = "S2";
  options.class_prefix = "d";
  options.num_classes = 29;
  options.seed = 4;
  const Schema s2 = ValueOrDie(GenerateSchema(options));
  RandomAssertionGenOptions mix;
  mix.equivalence_fraction = 0.1;
  mix.inclusion_fraction = 0.2;
  mix.overlap_fraction = 0.1;
  mix.disjoint_fraction = 0.1;
  mix.derivation_fraction = 0.5;
  const AssertionSet assertions =
      ValueOrDie(GenerateRandomAssertions(s1, s2, mix));
  size_t multi_lhs = 0;
  for (const Assertion& assertion : assertions.assertions()) {
    if (assertion.lhs.size() > 1) ++multi_lhs;
  }
  ASSERT_GT(multi_lhs, 0u);
  ExpectIndexMatchesAssertionSet(s1, s2, assertions);
}

TEST(ClassPairIndexTest, SetRelationWinsOverDerivationsOnOnePair) {
  // (a, x) carries an equivalence and derivations both ways; (b, x)
  // only a derivation; y ⊆ a is stored with its lhs in S2.
  const Schema s1 = ValueOrDie(SchemaParser::Parse(R"(
    schema S1 {
      class a { key: string; }
      class b { key: string; }
      class c { key: string; }
      is_a(c, a);
    }
  )"));
  const Schema s2 = ValueOrDie(SchemaParser::Parse(R"(
    schema S2 {
      class x { key: string; }
      class y { key: string; }
    }
  )"));
  const AssertionSet assertions = ValueOrDie(AssertionParser::Parse(R"(
    assert S1(a, b) -> S2.x { }
    assert S1.a == S2.x { }
    assert S2(x) -> S1.a { }
    assert S2.y <= S1.a { }
    assert S1.c ~ S2.y { }
  )"));
  ASSERT_OK(assertions.Validate(s1, s2));
  const ClassPairIndex index(s1, s2, assertions);
  const AssertionSet::Lookup ax = index.Find(1, s1.FindClass("a"),
                                             s2.FindClass("x"));
  ASSERT_TRUE(ax.found());
  EXPECT_EQ(ax.rel, SetRel::kEquivalent);
  const AssertionSet::Lookup ya = index.Find(2, s2.FindClass("y"),
                                             s1.FindClass("a"));
  ASSERT_TRUE(ya.found());
  EXPECT_EQ(ya.rel, SetRel::kSubset);
  EXPECT_FALSE(ya.reversed);
  ExpectIndexMatchesAssertionSet(s1, s2, assertions);
}

std::string Render(const IntegrationOutcome& outcome) {
  return outcome.stats.ToString() + "\n" + outcome.schema.ToString();
}

/// Integrating with and without a trace attached gives equal stats and
/// an equal integrated schema, and the traced run records events.
void ExpectTraceChangesNothing(const Schema& s1, const Schema& s2,
                               const AssertionSet& assertions) {
  const IntegrationOutcome untraced =
      ValueOrDie(Integrator::Integrate(s1, s2, assertions));
  IntegrationTrace trace;
  const IntegrationOutcome traced =
      ValueOrDie(Integrator::Integrate(s1, s2, assertions, nullptr, &trace));
  EXPECT_EQ(Render(untraced), Render(traced));
  EXPECT_FALSE(trace.empty());
}

TEST(UntracedIntegrationTest, MatchesTracedRunOnEveryFixture) {
  for (Result<Fixture> (*make)() :
       {&MakeUniversityFixture, &MakeGenealogyFixture,
        &MakeBibliographyFixture, &MakeStockFixture, &MakeEmplDeptFixture,
        &MakeShowcaseFixture}) {
    const Fixture fixture = ValueOrDie(make());
    const AssertionSet assertions =
        ValueOrDie(AssertionParser::Parse(fixture.assertion_text));
    SCOPED_TRACE(fixture.s1.name() + "/" + fixture.s2.name() + ": " +
                 fixture.assertion_text.substr(0, 40));
    ExpectTraceChangesNothing(fixture.s1, fixture.s2, assertions);
  }
}

TEST(UntracedIntegrationTest, MatchesTracedRunOnTheConnectWorld) {
  const ConnectWorld world = ValueOrDie(MakeConnectWorld());
  ExpectTraceChangesNothing(world.s1, world.s2, world.assertions);
  // The connect workload's exact pair count (e2ebench's
  // integrate.pairs_checked).
  EXPECT_EQ(ValueOrDie(Integrator::Integrate(world.s1, world.s2,
                                             world.assertions))
                .stats.pairs_checked,
            937u);
}

}  // namespace
}  // namespace ooint
