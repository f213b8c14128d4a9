#include "federation/query_parser.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

TEST(QueryParserTest, ParsesConstantsAndVariables) {
  const ParsedQuery q = ValueOrDie(ParseQuery(
      R"(?- S2.uncle(niece_nephew: "ssn-ann", Ussn#: who, age: 40))"));
  EXPECT_EQ(q.schema, "S2");
  EXPECT_EQ(q.class_name, "uncle");
  ASSERT_EQ(q.query.pattern().attrs.size(), 3u);
  EXPECT_EQ(q.query.pattern().attrs[0].value.constant,
            Value::String("ssn-ann"));
  EXPECT_TRUE(q.query.pattern().attrs[1].value.is_variable());
  EXPECT_EQ(q.query.pattern().attrs[1].value.var, "who");
  EXPECT_EQ(q.query.pattern().attrs[2].value.constant, Value::Integer(40));
}

TEST(QueryParserTest, ParsesDottedAttributesAndBooleans) {
  const ParsedQuery q = ValueOrDie(ParseQuery(
      R"(?- S2.Author(book.ISBN: "0-13", active: true, rate: 1.5))"));
  EXPECT_EQ(q.query.pattern().attrs[0].attribute, "book.ISBN");
  EXPECT_EQ(q.query.pattern().attrs[1].value.constant,
            Value::Boolean(true));
  EXPECT_EQ(q.query.pattern().attrs[2].value.constant, Value::Real(1.5));
}

TEST(QueryParserTest, EmptyBindingListMatchesWholeExtent) {
  const ParsedQuery q = ValueOrDie(ParseQuery("?- S1.parent()"));
  EXPECT_TRUE(q.query.pattern().attrs.empty());
}

TEST(QueryParserTest, BarePromptAlsoAccepted) {
  EXPECT_OK(ParseQuery("? S1.parent()").status());
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("S1.parent()").ok());          // no prompt
  EXPECT_FALSE(ParseQuery("?- parent()").ok());          // no schema
  EXPECT_FALSE(ParseQuery("?- S1.parent").ok());         // no parens
  EXPECT_FALSE(ParseQuery("?- S1.parent(x:)").ok());     // missing term
  EXPECT_FALSE(ParseQuery("?- S1.parent() extra").ok()); // trailing
}

TEST(QueryParserTest, OutOfRangeNumbersAreParseErrors) {
  const std::string huge_real = std::string(400, '9') + ".5";
  for (const std::string& literal :
       {std::string("99999999999999999999"), huge_real}) {
    const Status s =
        ParseQuery("?- S2.uncle(Ussn#: " + literal + ", name: n)").status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
    EXPECT_NE(s.message().find("line 1, column 20"), std::string::npos)
        << s.ToString();
  }
}

TEST(QueryParserTest, EndToEndAgainstTheFederation) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  std::unique_ptr<FsmAgent> a1 = ValueOrDie(
      FsmAgent::Create("agent1", "ooint", "db1", fixture.s1));
  std::unique_ptr<FsmAgent> a2 = ValueOrDie(
      FsmAgent::Create("agent2", "ooint", "db2", fixture.s2));
  ASSERT_OK(PopulateGenealogy(&a1->store(), &a2->store(), 2));
  Fsm fsm;
  ASSERT_OK(fsm.RegisterAgent(std::move(a1)));
  ASSERT_OK(fsm.RegisterAgent(std::move(a2)));
  ASSERT_OK(fsm.DeclareAssertions(fixture.assertion_text));
  FsmClient client(&fsm);
  ASSERT_OK(client.Connect());

  const std::vector<Bindings> answers = ValueOrDie(RunTextQuery(
      client, R"(?- S2.uncle(niece_nephew: "C0a", Ussn#: who))"));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers.front().at("who"), Value::String("U0"));

  // Unknown class resolves to a NotFound error through the client.
  EXPECT_FALSE(RunTextQuery(client, "?- S2.ghost()").ok());
}

}  // namespace
}  // namespace ooint
