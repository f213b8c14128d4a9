#include "assertions/parser.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

TEST(ParserTest, BareClassAssertion) {
  const Assertion a =
      ValueOrDie(AssertionParser::ParseOne("assert S1.man ! S2.woman;"));
  EXPECT_EQ(a.lhs.size(), 1u);
  EXPECT_EQ(a.lhs.front().ToString(), "S1.man");
  EXPECT_EQ(a.rel, SetRel::kDisjoint);
  EXPECT_EQ(a.rhs.ToString(), "S2.woman");
  EXPECT_TRUE(a.attr_corrs.empty());
}

TEST(ParserTest, AllClassRelations) {
  EXPECT_EQ(ValueOrDie(AssertionParser::ParseOne(
                           "assert S1.a == S2.b;")).rel,
            SetRel::kEquivalent);
  EXPECT_EQ(ValueOrDie(AssertionParser::ParseOne(
                           "assert S1.a <= S2.b;")).rel,
            SetRel::kSubset);
  EXPECT_EQ(ValueOrDie(AssertionParser::ParseOne(
                           "assert S1.a >= S2.b;")).rel,
            SetRel::kSuperset);
  EXPECT_EQ(ValueOrDie(AssertionParser::ParseOne(
                           "assert S1.a ~ S2.b;")).rel,
            SetRel::kOverlap);
  EXPECT_EQ(ValueOrDie(AssertionParser::ParseOne(
                           "assert S1.a -> S2.b;")).rel,
            SetRel::kDerivation);
}

TEST(ParserTest, Fig4aEquivalenceBlock) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.person == S2.human {
  attr: S1.person.ssn# == S2.human.ssn#;
  attr: S1.person.full_name == S2.human.name;
  attr: S1.person.city alpha(address) S2.human.street-number;
  attr: S1.person.interests >= S2.human.hobby;
})"));
  ASSERT_EQ(a.attr_corrs.size(), 4u);
  EXPECT_EQ(a.attr_corrs[0].rel, AttrRel::kEquivalent);
  EXPECT_EQ(a.attr_corrs[0].lhs.leaf(), "ssn#");
  EXPECT_EQ(a.attr_corrs[2].rel, AttrRel::kComposedInto);
  EXPECT_EQ(a.attr_corrs[2].composed_name, "address");
  EXPECT_EQ(a.attr_corrs[2].rhs.leaf(), "street-number");
  EXPECT_EQ(a.attr_corrs[3].rel, AttrRel::kSuperset);
}

TEST(ParserTest, Example3DerivationWithValueCorrespondence) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1(parent, brother) -> S2.uncle {
  value(S1): S1.parent.Pssn# in S1.brother.brothers;
  attr: S1.brother.Bssn# == S2.uncle.Ussn#;
  attr: S1.parent.children >= S2.uncle.niece_nephew;
})"));
  EXPECT_EQ(a.rel, SetRel::kDerivation);
  ASSERT_EQ(a.lhs.size(), 2u);
  EXPECT_EQ(a.lhs[0].class_name, "parent");
  EXPECT_EQ(a.lhs[1].class_name, "brother");
  ASSERT_EQ(a.value_corrs.size(), 1u);
  EXPECT_EQ(a.value_corrs[0].side, 1);
  EXPECT_EQ(a.value_corrs[0].rel, ValueRel::kIn);
  EXPECT_EQ(a.value_corrs[0].lhs.ToString(), "S1.parent.Pssn#");
  EXPECT_EQ(a.attr_corrs.size(), 2u);
}

TEST(ParserTest, WithQualifierOnInclusion) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S2.stock -> S1.stock-in-March-April {
  attr: S1.stock-in-March-April.price-in-March <= S2.stock.price with S2.stock.time == "March";
})"));
  ASSERT_EQ(a.attr_corrs.size(), 1u);
  const AttributeCorrespondence& ac = a.attr_corrs.front();
  ASSERT_TRUE(ac.with.has_value());
  EXPECT_EQ(ac.with->attribute.ToString(), "S2.stock.time");
  EXPECT_EQ(ac.with->op, CompareOp::kEq);
  EXPECT_EQ(ac.with->constant, Value::String("March"));
}

TEST(ParserTest, WithAcceptsBareIdentifierNumbersAndBooleans) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S2.car2 -> S1.car1 {
  attr: S2.car2.car-name_1 <= S1.car1.price with S1.car1.car-name == car-name_1;
})"));
  EXPECT_EQ(a.attr_corrs[0].with->constant, Value::String("car-name_1"));
  const Assertion b = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.a -> S2.b {
  attr: S1.a.x <= S2.b.y with S2.b.n > 42;
})"));
  EXPECT_EQ(b.attr_corrs[0].with->op, CompareOp::kGt);
  EXPECT_EQ(b.attr_corrs[0].with->constant, Value::Integer(42));
  const Assertion c = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.a -> S2.b {
  attr: S1.a.x <= S2.b.y with S2.b.flag == true;
})"));
  EXPECT_EQ(c.attr_corrs[0].with->constant, Value::Boolean(true));
}

TEST(ParserTest, AggCorrespondences) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.man ! S2.woman {
  agg: S1.man.spouse rev S2.woman.spouse;
  agg: S1.man.works_in == S2.woman.works_in;
})"));
  ASSERT_EQ(a.agg_corrs.size(), 2u);
  EXPECT_EQ(a.agg_corrs[0].rel, AggRel::kReverse);
  EXPECT_EQ(a.agg_corrs[1].rel, AggRel::kEquivalent);
}

TEST(ParserTest, BetaMoreSpecific) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.restaurant-1 == S2.restaurant-2 {
  attr: S2.restaurant-2.cuisine beta S1.restaurant-1.category;
})"));
  EXPECT_EQ(a.attr_corrs[0].rel, AttrRel::kMoreSpecific);
  EXPECT_EQ(a.attr_corrs[0].lhs.leaf(), "cuisine");
}

TEST(ParserTest, QuotedNameReferencePath) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.Book -> S2.Author {
  attr: S1.Book.title == S2.Author.book."title";
})"));
  EXPECT_TRUE(a.attr_corrs[0].rhs.name_ref());
  EXPECT_EQ(a.attr_corrs[0].rhs.leaf(), "title");
}

TEST(ParserTest, NestedPaths) {
  const Assertion a = ValueOrDie(AssertionParser::ParseOne(R"(
assert S1.Book -> S2.Author {
  attr: S1.Book.ISBN == S2.Author.book.ISBN;
})"));
  EXPECT_EQ(a.attr_corrs[0].rhs.components().size(), 2u);
  EXPECT_EQ(a.attr_corrs[0].rhs.ToString(), "S2.Author.book.ISBN");
}

TEST(ParserTest, CommentsAndWholeFiles) {
  const AssertionSet set = ValueOrDie(AssertionParser::Parse(R"(
# university correspondences
assert S1.person == S2.human;  # trailing comment
assert S1.lecturer <= S2.employee;
assert S1.student ~ S2.faculty;
)"));
  EXPECT_EQ(set.size(), 3u);
}

TEST(ParserTest, ErrorsCarryPositions) {
  const Status s =
      AssertionParser::Parse("assert S1.person ==\n S2..human;").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(AssertionParser::ParseOne("assert S1.a").ok());
  EXPECT_FALSE(AssertionParser::ParseOne("assert S1.a ?? S2.b;").ok());
  EXPECT_FALSE(AssertionParser::ParseOne(
                   "assert S1.a == S2.b { bogus: x; }").ok());
  EXPECT_FALSE(AssertionParser::ParseOne(
                   "assert S1.a == S2.b { attr: S1.a.x == S2.b.y }").ok());
  EXPECT_FALSE(AssertionParser::ParseOne(
                   "assert S1.a == S2.b { attr: S1.a.x == \"unterminated; }")
                   .ok());
}

TEST(ParserTest, OutOfRangeNumbersAreParseErrors) {
  // Literals past int64 / double range are positioned parse errors, not
  // exceptions escaping the parser.
  const std::string huge_real = std::string(400, '9') + ".5";
  for (const std::string& literal : {std::string("99999999999999999999"),
                                     std::string("-99999999999999999999"),
                                     huge_real}) {
    const Status s = AssertionParser::ParseOne(
                         "assert S1.a -> S2.b {\n  attr: S1.a.x <= S2.b.y "
                         "with S2.b.n > " + literal + ";\n}")
                         .status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
    EXPECT_NE(s.message().find("line 2, column 40"), std::string::npos)
        << s.ToString();
  }
}

TEST(ParserTest, ValueCorrespondenceSchemaMustMatchASide) {
  EXPECT_FALSE(AssertionParser::ParseOne(R"(
assert S1.parent -> S2.uncle {
  value(S9): S9.parent.x = S9.parent.y;
})").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* kText = R"(
assert S1(parent, brother) -> S2.uncle {
  value(S1): S1.parent.Pssn# in S1.brother.brothers;
  attr: S1.brother.Bssn# == S2.uncle.Ussn#;
  attr: S1.parent.children >= S2.uncle.niece_nephew;
}
assert S1.person == S2.human {
  attr: S1.person.city alpha(address) S2.human.street-number;
}
assert S1.man ! S2.woman {
  agg: S1.man.spouse rev S2.woman.spouse;
}
)";
  const AssertionSet original = ValueOrDie(AssertionParser::Parse(kText));
  const AssertionSet reparsed =
      ValueOrDie(AssertionParser::Parse(original.ToString()));
  ASSERT_EQ(original.size(), reparsed.size());
  EXPECT_EQ(original.ToString(), reparsed.ToString());
}

}  // namespace
}  // namespace ooint
