// The class-pair index, the only lookup structure over assertions, must
// answer every pair in both orientations (assertion, relation,
// orientation and derivation list) and every partner list exactly as a
// plain scan of the assertion list does; and formatting trace text only
// for a trace must leave an untraced integration's result unchanged.

#include "integrate/class_pairs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
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

bool OnLhs(const Assertion& assertion, const ClassRef& ref) {
  return std::find(assertion.lhs.begin(), assertion.lhs.end(), ref) !=
         assertion.lhs.end();
}

/// The reference lookup of (a θ b), by a scan of the assertion list: the
/// pair's set relation, oriented; otherwise its first declared
/// derivation. `derivations` receives every derivation relating the
/// pair, in declaration order.
ClassPairIndex::Lookup ScanLookup(const AssertionSet& assertions,
                                  const ClassRef& a, const ClassRef& b,
                                  std::vector<const Assertion*>* derivations) {
  ClassPairIndex::Lookup set_relation;
  for (const Assertion& assertion : assertions.assertions()) {
    if (assertion.rel == SetRel::kDerivation) {
      if ((OnLhs(assertion, a) && assertion.rhs == b) ||
          (OnLhs(assertion, b) && assertion.rhs == a)) {
        derivations->push_back(&assertion);
      }
    } else if (assertion.lhs.front() == a && assertion.rhs == b) {
      set_relation = {&assertion, assertion.rel, false, nullptr};
    } else if (assertion.lhs.front() == b && assertion.rhs == a) {
      set_relation = {&assertion, ReverseSetRel(assertion.rel), true,
                      nullptr};
    }
  }
  if (set_relation.found() || derivations->empty()) return set_relation;
  const Assertion* first = derivations->front();
  return {first, SetRel::kDerivation, !(first->rhs == b), nullptr};
}

/// The reference partners of `ref`: the ids in `other` of every class an
/// assertion relates to it, in class name order.
std::vector<ClassId> ScanPartners(const AssertionSet& assertions,
                                  const ClassRef& ref, const Schema& other) {
  std::set<std::string> names;
  for (const Assertion& assertion : assertions.assertions()) {
    for (const ClassRef& lhs : assertion.lhs) {
      if (lhs == ref && assertion.rhs.schema == other.name()) {
        names.insert(assertion.rhs.class_name);
      }
      if (assertion.rhs == ref && lhs.schema == other.name()) {
        names.insert(lhs.class_name);
      }
    }
  }
  std::vector<ClassId> out;
  for (const std::string& name : names) out.push_back(other.FindClass(name));
  return out;
}

void ExpectLookup(const ClassPairIndex::Lookup& got,
                  const AssertionSet& assertions, const ClassRef& a,
                  const ClassRef& b) {
  const std::string pair = a.ToString() + " / " + b.ToString();
  std::vector<const Assertion*> derivations;
  const ClassPairIndex::Lookup want =
      ScanLookup(assertions, a, b, &derivations);
  EXPECT_EQ(got.assertion, want.assertion) << pair;
  if (!want.found()) return;
  EXPECT_EQ(got.rel, want.rel) << pair;
  EXPECT_EQ(got.reversed, want.reversed) << pair;
  ASSERT_NE(got.derivations, nullptr) << pair;
  EXPECT_EQ(*got.derivations, derivations) << pair;
}

/// Every ordered pair, in both orientations, and every partner list;
/// returns how many pairs an assertion relates.
size_t ExpectIndexMatchesAssertionSet(const Schema& s1, const Schema& s2,
                                      const AssertionSet& assertions) {
  const ClassPairIndex index(s1, s2, assertions);
  size_t found = 0;
  for (ClassId i = 0; i < static_cast<ClassId>(s1.NumClasses()); ++i) {
    for (ClassId j = 0; j < static_cast<ClassId>(s2.NumClasses()); ++j) {
      const ClassRef a = RefOf(s1, i);
      const ClassRef b = RefOf(s2, j);
      ExpectLookup(index.Find(1, i, j), assertions, a, b);
      ExpectLookup(index.Find(2, j, i), assertions, b, a);
      if (index.Find(1, i, j).found()) ++found;
    }
    EXPECT_EQ(index.PartnersOf(1, i),
              ScanPartners(assertions, RefOf(s1, i), s2));
  }
  for (ClassId j = 0; j < static_cast<ClassId>(s2.NumClasses()); ++j) {
    EXPECT_EQ(index.PartnersOf(2, j),
              ScanPartners(assertions, RefOf(s2, j), s1));
  }
  return found;
}

TEST(ClassPairIndexTest, MatchesAssertionSetOnTheConnectWorld) {
  const ConnectWorld world = ValueOrDie(MakeConnectWorld());
  EXPECT_GT(
      ExpectIndexMatchesAssertionSet(world.s1, world.s2, world.assertions),
      0u);
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
  EXPECT_GT(ExpectIndexMatchesAssertionSet(s1, s2, assertions), 0u);
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
  const ClassPairIndex::Lookup ax = index.Find(1, s1.FindClass("a"),
                                               s2.FindClass("x"));
  ASSERT_TRUE(ax.found());
  EXPECT_EQ(ax.rel, SetRel::kEquivalent);
  EXPECT_EQ(ax.derivations->size(), 2u);
  const ClassPairIndex::Lookup ya = index.Find(2, s2.FindClass("y"),
                                               s1.FindClass("a"));
  ASSERT_TRUE(ya.found());
  EXPECT_EQ(ya.rel, SetRel::kSubset);
  EXPECT_FALSE(ya.reversed);
  EXPECT_GT(ExpectIndexMatchesAssertionSet(s1, s2, assertions), 0u);
}

/// Two small parsed schemas, S1 {book, a, parent, brother, Book} and
/// S2 {publication, b, zzz, uncle, Author}, for the single-pair cases.
struct PairSchemas {
  Schema s1 = ValueOrDie(SchemaParser::Parse(R"(
    schema S1 {
      class book { key: string; }
      class a { key: string; }
      class parent { key: string; }
      class brother { key: string; }
      class Book { key: string; }
    }
  )"));
  Schema s2 = ValueOrDie(SchemaParser::Parse(R"(
    schema S2 {
      class publication { key: string; }
      class b { key: string; }
      class zzz { key: string; }
      class uncle { key: string; }
      class Author { key: string; }
    }
  )"));

  ClassId c1(const std::string& name) const { return s1.FindClass(name); }
  ClassId c2(const std::string& name) const { return s2.FindClass(name); }
};

TEST(ClassPairIndexTest, FindOrientsTheRelation) {
  const PairSchemas schemas;
  const AssertionSet assertions = ValueOrDie(
      AssertionParser::Parse("assert S1.book <= S2.publication { }"));
  const ClassPairIndex index(schemas.s1, schemas.s2, assertions);

  const ClassPairIndex::Lookup forward =
      index.Find(1, schemas.c1("book"), schemas.c2("publication"));
  ASSERT_TRUE(forward.found());
  EXPECT_EQ(forward.rel, SetRel::kSubset);
  EXPECT_FALSE(forward.reversed);

  const ClassPairIndex::Lookup backward =
      index.Find(2, schemas.c2("publication"), schemas.c1("book"));
  ASSERT_TRUE(backward.found());
  EXPECT_EQ(backward.rel, SetRel::kSuperset);
  EXPECT_TRUE(backward.reversed);
  EXPECT_EQ(backward.assertion, forward.assertion);
}

TEST(ClassPairIndexTest, FindMissesUnrelatedPairs) {
  const PairSchemas schemas;
  const AssertionSet assertions =
      ValueOrDie(AssertionParser::Parse("assert S1.a == S2.b { }"));
  const ClassPairIndex index(schemas.s1, schemas.s2, assertions);
  EXPECT_FALSE(index.Find(1, schemas.c1("a"), schemas.c2("zzz")).found());
  EXPECT_FALSE(index.Find(2, schemas.c2("zzz"), schemas.c1("a")).found());
  EXPECT_TRUE(index.Find(1, schemas.c1("a"), schemas.c2("b")).found());
  EXPECT_EQ(index.PartnersOf(1, schemas.c1("a")),
            std::vector<ClassId>{schemas.c2("b")});
  EXPECT_TRUE(index.PartnersOf(2, schemas.c2("zzz")).empty());
}

TEST(ClassPairIndexTest, DerivationLookupReportsDirection) {
  const PairSchemas schemas;
  const AssertionSet assertions = ValueOrDie(
      AssertionParser::Parse("assert S1(parent, brother) -> S2.uncle { }"));
  const ClassPairIndex index(schemas.s1, schemas.s2, assertions);
  const ClassPairIndex::Lookup from_parent =
      index.Find(1, schemas.c1("parent"), schemas.c2("uncle"));
  ASSERT_TRUE(from_parent.found());
  EXPECT_EQ(from_parent.rel, SetRel::kDerivation);
  EXPECT_FALSE(from_parent.reversed);
  const ClassPairIndex::Lookup from_uncle =
      index.Find(2, schemas.c2("uncle"), schemas.c1("brother"));
  ASSERT_TRUE(from_uncle.found());
  EXPECT_EQ(from_uncle.rel, SetRel::kDerivation);
  EXPECT_TRUE(from_uncle.reversed);
  // Both lhs classes are partners of the derived class, in name order.
  EXPECT_EQ(index.PartnersOf(2, schemas.c2("uncle")),
            (std::vector<ClassId>{schemas.c1("brother"),
                                  schemas.c1("parent")}));
}

TEST(ClassPairIndexTest, OpposingDerivationsShareThePairEntry) {
  // Example 4: Book → Author and Author → Book relate one pair; the
  // first declared answers the lookup, and the entry lists both.
  const PairSchemas schemas;
  const AssertionSet assertions = ValueOrDie(AssertionParser::Parse(R"(
    assert S1(Book) -> S2.Author { }
    assert S2(Author) -> S1.Book { }
  )"));
  const ClassPairIndex index(schemas.s1, schemas.s2, assertions);
  const ClassPairIndex::Lookup lookup =
      index.Find(1, schemas.c1("Book"), schemas.c2("Author"));
  ASSERT_TRUE(lookup.found());
  EXPECT_EQ(lookup.assertion, &assertions.assertions()[0]);
  EXPECT_FALSE(lookup.reversed);
  ASSERT_NE(lookup.derivations, nullptr);
  EXPECT_EQ(lookup.derivations->size(), 2u);
  EXPECT_EQ(index.Find(2, schemas.c2("Author"), schemas.c1("Book"))
                .derivations->size(),
            2u);
}

TEST(ClassPairIndexTest, MatchesAssertionListOnFiftyRandomSeeds) {
  // All five set relations plus derivations, multi-lhs ones among them,
  // on two differently shaped DAGs per seed; every other seed lets one
  // class carry several set relations. Each set also gets a set
  // relation declared after a derivation on the same pair.
  size_t kinds[6] = {};
  size_t multi_lhs = 0;
  size_t late_set_relations = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    SchemaGenOptions options;
    options.shape = IsAShape::kRandomDag;
    options.num_classes = 12 + seed % 13;
    options.attrs_per_class = 1;
    options.seed = seed;
    const Schema s1 = ValueOrDie(GenerateSchema(options));
    options.name = "S2";
    options.class_prefix = "d";
    options.num_classes = 9 + seed % 11;
    options.seed = seed + 1000;
    const Schema s2 = ValueOrDie(GenerateSchema(options));
    RandomAssertionGenOptions mix;
    mix.equivalence_fraction = 0.15;
    mix.inclusion_fraction = 0.2;
    mix.overlap_fraction = 0.15;
    mix.disjoint_fraction = 0.15;
    mix.derivation_fraction = 0.35;
    mix.unique_partners = seed % 2 == 0;
    mix.seed = seed;
    AssertionSet assertions =
        ValueOrDie(GenerateRandomAssertions(s1, s2, mix));
    std::set<std::pair<ClassRef, ClassRef>> set_related;
    for (const Assertion& assertion : assertions.assertions()) {
      if (assertion.rel == SetRel::kDerivation) continue;
      set_related.insert(std::minmax(assertion.lhs.front(), assertion.rhs));
    }
    for (const Assertion& assertion : assertions.assertions()) {
      if (assertion.rel != SetRel::kDerivation) continue;
      if (set_related.count(
              std::minmax(assertion.lhs.front(), assertion.rhs)) != 0) {
        continue;
      }
      Assertion late;
      late.lhs = {assertion.rhs};
      late.rel = SetRel::kOverlap;
      late.rhs = assertion.lhs.front();
      ASSERT_OK(assertions.Add(std::move(late)));
      ++late_set_relations;
      break;
    }
    ASSERT_OK(assertions.Validate(s1, s2));
    for (const Assertion& assertion : assertions.assertions()) {
      ++kinds[static_cast<int>(assertion.rel)];
      if (assertion.lhs.size() > 1) ++multi_lhs;
    }
    EXPECT_GT(ExpectIndexMatchesAssertionSet(s1, s2, assertions), 0u);
  }
  for (size_t count : kinds) EXPECT_GT(count, 0u);
  EXPECT_GT(multi_lhs, 0u);
  EXPECT_GT(late_set_relations, 0u);
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
