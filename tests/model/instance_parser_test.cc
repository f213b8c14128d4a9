#include "model/instance_parser.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

TEST(InstanceParserTest, LoadsScalarsSetsAndDates) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  InstanceStore store(&fixture.s1);
  const size_t n = ValueOrDie(InstanceParser::Load(R"(
# the running genealogy example as data
insert parent {
  Pssn#: "ssn-john";
  name: "John";
  children: {"ssn-ann", "ssn-bob"};
}
insert brother {
  Bssn#: "ssn-sam";
  name: "Sam";
  brothers: {"ssn-john"};
}
)", &store));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(store.size(), 2u);
  const std::vector<Oid> parents = ValueOrDie(store.Extent("parent"));
  ASSERT_EQ(parents.size(), 1u);
  const Object* john = store.Find(parents.front());
  EXPECT_EQ(john->Get("name"), Value::String("John"));
  EXPECT_TRUE(john->Get("children").SetContains(Value::String("ssn-ann")));
}

TEST(InstanceParserTest, LoadsReferencesAndAggregations) {
  Fixture fixture = ValueOrDie(MakeEmplDeptFixture());
  InstanceStore store(&fixture.s1);
  ASSERT_OK(InstanceParser::Load(R"(
insert Dept as rnd { d_name: "R&D"; }
insert Empl as alice { e_name: "alice"; work_in: ref(rnd); }
insert Dept { d_name: "Sales"; manager: ref(alice); }
)", &store).status());
  const std::vector<Oid> employees = ValueOrDie(store.Extent("Empl"));
  ASSERT_EQ(employees.size(), 1u);
  const Object* alice = store.Find(employees.front());
  ASSERT_EQ(alice->AggTargets("work_in").size(), 1u);
  // The aggregation points at the R&D department object.
  const Object* rnd = store.Find(alice->AggTargets("work_in").front());
  ASSERT_NE(rnd, nullptr);
  EXPECT_EQ(rnd->Get("d_name"), Value::String("R&D"));
}

TEST(InstanceParserTest, LoadsTypedScalars) {
  Schema schema("S1");
  ClassDef c("x");
  c.AddAttribute("b", ValueKind::kBoolean)
      .AddAttribute("i", ValueKind::kInteger)
      .AddAttribute("r", ValueKind::kReal)
      .AddAttribute("d", ValueKind::kDate);
  ASSERT_OK(schema.AddClass(std::move(c)).status());
  ASSERT_OK(schema.Finalize());
  InstanceStore store(&schema);
  ASSERT_OK(InstanceParser::Load(R"(
insert x { b: true; i: -7; r: 2.5; d: date(1999, 4, 1); }
)", &store).status());
  const Object* object = store.Find(ValueOrDie(store.Extent("x")).front());
  EXPECT_EQ(object->Get("b"), Value::Boolean(true));
  EXPECT_EQ(object->Get("i"), Value::Integer(-7));
  EXPECT_EQ(object->Get("r"), Value::Real(2.5));
  EXPECT_EQ(object->Get("d"), Value::OfDate({1999, 4, 1}));
}

TEST(InstanceParserTest, OutOfRangeNumbersAreParseErrors) {
  Schema schema("S1");
  ClassDef c("x");
  c.AddAttribute("i", ValueKind::kInteger)
      .AddAttribute("r", ValueKind::kReal)
      .AddAttribute("d", ValueKind::kDate);
  ASSERT_OK(schema.AddClass(std::move(c)).status());
  ASSERT_OK(schema.Finalize());
  const std::string huge_real = std::string(400, '9') + ".5";
  for (const std::string& member :
       {std::string("i: 99999999999999999999;"), "r: " + huge_real + ";",
        std::string("d: date(99999999999, 1, 1);")}) {
    InstanceStore store(&schema);
    const Status s =
        InstanceParser::Load("insert x {\n  " + member + "\n}", &store)
            .status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
    EXPECT_NE(s.message().find("line 2, column"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("out of range"), std::string::npos)
        << s.ToString();
  }
}

TEST(InstanceParserTest, DeeplyNestedSetsAreParseErrorsNotCrashes) {
  Schema schema("S1");
  ClassDef c("x");
  c.AddAttribute("v", ValueKind::kSet);
  ASSERT_OK(schema.AddClass(std::move(c)).status());
  ASSERT_OK(schema.Finalize());
  auto nested = [](size_t depth) {
    return "insert x {\n  v: " + std::string(depth, '{') +
           std::string(depth, '}') + ";\n}";
  };
  {
    // Exactly at the cap: parses, and the innermost set is empty.
    InstanceStore store(&schema);
    ASSERT_OK(InstanceParser::Load(
                  nested(InstanceParser::kMaxValueNesting), &store)
                  .status());
    const Object* object =
        store.Find(ValueOrDie(store.Extent(std::string("x"))).front());
    Value value = object->Get("v");
    for (int level = 1; level < InstanceParser::kMaxValueNesting; ++level) {
      ASSERT_EQ(value.AsSet().size(), 1u);
      value = Value(value.AsSet().front());
    }
    EXPECT_TRUE(value.AsSet().empty());
  }
  for (size_t depth : {size_t{InstanceParser::kMaxValueNesting + 1},
                       size_t{100000}}) {
    // One past the cap, and deep enough to overflow an uncapped
    // recursive descent.
    InstanceStore store(&schema);
    const Status s = InstanceParser::Load(nested(depth), &store).status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
    // Reported at the first '{' past the cap, on the member's line.
    EXPECT_NE(s.message().find(StrCat(
                  "line 2, column ", 6 + InstanceParser::kMaxValueNesting)),
              std::string::npos)
        << s.ToString();
  }
}

TEST(InstanceParserTest, RejectsUnknownClassesAndMembers) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  InstanceStore store(&fixture.s1);
  EXPECT_FALSE(InstanceParser::Load("insert ghost {}", &store).ok());
  EXPECT_FALSE(InstanceParser::Load(
                   "insert parent { ghost: 1; }", &store).ok());
  EXPECT_FALSE(InstanceParser::Load(
                   "insert parent { name: ref(nobody); }", &store).ok());
  EXPECT_FALSE(InstanceParser::Load(
                   "insert parent { name: ; }", &store).ok());
}

}  // namespace
}  // namespace ooint
