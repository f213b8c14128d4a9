#include "assertions/assertion_set.h"

#include <gtest/gtest.h>

#include "assertions/parser.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

Assertion Simple(const std::string& s1_class, SetRel rel,
                 const std::string& s2_class) {
  Assertion a;
  a.lhs = {{"S1", s1_class}};
  a.rel = rel;
  a.rhs = {"S2", s2_class};
  return a;
}

TEST(AssertionSetTest, RejectsSecondSetRelationForSamePair) {
  AssertionSet set;
  ASSERT_OK(set.Add(Simple("a", SetRel::kEquivalent, "b")));
  EXPECT_EQ(set.Add(Simple("a", SetRel::kDisjoint, "b")).code(),
            StatusCode::kAlreadyExists);
}

TEST(AssertionSetTest, RejectsSetRelationOnTheSwappedPair) {
  // The pair is unordered: S2.b ⊆ S1.a relates the pair of S1.a ≡ S2.b.
  AssertionSet set;
  ASSERT_OK(set.Add(Simple("a", SetRel::kEquivalent, "b")));
  Assertion swapped;
  swapped.lhs = {{"S2", "b"}};
  swapped.rel = SetRel::kSubset;
  swapped.rhs = {"S1", "a"};
  const Status status = set.Add(std::move(swapped));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(status.message(),
            "classes S2.b and S1.a already related by an assertion (==)");
  EXPECT_EQ(set.size(), 1u);
  // Derivations on the pair are still welcome.
  ASSERT_OK(set.Add(Simple("a", SetRel::kDerivation, "b")));
}

TEST(AssertionSetTest, AllowsOpposingDerivations) {
  // Example 4: Book → Author and Author → Book coexist.
  AssertionSet set;
  Assertion forward;
  forward.lhs = {{"S1", "Book"}};
  forward.rel = SetRel::kDerivation;
  forward.rhs = {"S2", "Author"};
  Assertion backward;
  backward.lhs = {{"S2", "Author"}};
  backward.rel = SetRel::kDerivation;
  backward.rhs = {"S1", "Book"};
  ASSERT_OK(set.Add(forward));
  ASSERT_OK(set.Add(backward));
  EXPECT_EQ(set.AllDerivations().size(), 2u);
}

TEST(AssertionSetTest, RejectsNonDerivationMultiLhs) {
  Assertion bad;
  bad.lhs = {{"S1", "a"}, {"S1", "b"}};
  bad.rel = SetRel::kEquivalent;
  bad.rhs = {"S2", "c"};
  AssertionSet set;
  EXPECT_EQ(set.Add(bad).code(), StatusCode::kInvalidArgument);
}

TEST(AssertionSetTest, ReversedSwapsEverything) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.book <= S2.publication {
  attr: S1.book.auther <= S2.publication.contributors;
  agg: S1.book.published_by >= S2.publication.published_by;
})"));
  const Assertion r = a.Reversed();
  EXPECT_EQ(r.lhs.front().ToString(), "S2.publication");
  EXPECT_EQ(r.rel, SetRel::kSuperset);
  EXPECT_EQ(r.rhs.ToString(), "S1.book");
  EXPECT_EQ(r.attr_corrs[0].rel, AttrRel::kSuperset);
  EXPECT_EQ(r.attr_corrs[0].lhs.ToString(), "S2.publication.contributors");
  EXPECT_EQ(r.agg_corrs[0].rel, AggRel::kSubset);
}

TEST(AssertionSetTest, ValidateAcceptsPaperFixtures) {
  for (auto maker : {&MakeUniversityFixture, &MakeGenealogyFixture,
                     &MakeBibliographyFixture, &MakeStockFixture,
                     &MakeShowcaseFixture}) {
    Fixture f = ValueOrDie(maker());
    const AssertionSet set =
        ValueOrDie(AssertionParser::Parse(f.assertion_text));
    EXPECT_OK(set.Validate(f.s1, f.s2));
  }
}

TEST(AssertionSetTest, ValidateCatchesUnknownClass) {
  Fixture f = ValueOrDie(MakeGenealogyFixture());
  AssertionSet set;
  ASSERT_OK(set.Add(Simple("ghost", SetRel::kEquivalent, "uncle")));
  EXPECT_EQ(set.Validate(f.s1, f.s2).code(), StatusCode::kNotFound);
}

TEST(AssertionSetTest, ValidateCatchesUnresolvablePath) {
  Fixture f = ValueOrDie(MakeGenealogyFixture());
  Assertion a = Simple("parent", SetRel::kEquivalent, "uncle");
  a.attr_corrs.push_back({Path::Attr("S1", "parent", "ghost"),
                          AttrRel::kEquivalent,
                          Path::Attr("S2", "uncle", "Ussn#"), "",
                          std::nullopt});
  AssertionSet set;
  ASSERT_OK(set.Add(std::move(a)));
  EXPECT_EQ(set.Validate(f.s1, f.s2).code(), StatusCode::kNotFound);
}

TEST(AssertionSetTest, ValidateCatchesDerivationSpanningSchemas) {
  Fixture f = ValueOrDie(MakeGenealogyFixture());
  Assertion a;
  a.lhs = {{"S1", "parent"}, {"S2", "uncle"}};
  a.rel = SetRel::kDerivation;
  a.rhs = {"S2", "uncle"};
  AssertionSet set;
  ASSERT_OK(set.Add(std::move(a)));
  EXPECT_EQ(set.Validate(f.s1, f.s2).code(), StatusCode::kInvalidArgument);
}

TEST(AssertionSetTest, ValidateCatchesMissingComposedName) {
  Fixture f = ValueOrDie(MakeGenealogyFixture());
  Assertion a = Simple("parent", SetRel::kEquivalent, "uncle");
  a.attr_corrs.push_back({Path::Attr("S1", "parent", "name"),
                          AttrRel::kComposedInto,
                          Path::Attr("S2", "uncle", "name"), "",
                          std::nullopt});
  AssertionSet set;
  ASSERT_OK(set.Add(std::move(a)));
  EXPECT_EQ(set.Validate(f.s1, f.s2).code(), StatusCode::kInvalidArgument);
}

TEST(AssertionSetTest, ValidateCatchesMisplacedValueCorrespondence) {
  Fixture f = ValueOrDie(MakeGenealogyFixture());
  Assertion a;
  a.lhs = {{"S1", "parent"}, {"S1", "brother"}};
  a.rel = SetRel::kDerivation;
  a.rhs = {"S2", "uncle"};
  // Declared for side 1 but referencing S2 paths.
  a.value_corrs.push_back({1, Path::Attr("S2", "uncle", "Ussn#"),
                           ValueRel::kEq,
                           Path::Attr("S2", "uncle", "name")});
  AssertionSet set;
  ASSERT_OK(set.Add(std::move(a)));
  EXPECT_EQ(set.Validate(f.s1, f.s2).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ooint
