#include "integrate/integrated_schema.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

IntegratedClass SimpleClass(const std::string& name) {
  IntegratedClass c;
  c.name = name;
  c.kind = ISClassKind::kCopied;
  return c;
}

TEST(IntegratedSchemaTest, AddFindAndDuplicate) {
  IntegratedSchema is("IS");
  ASSERT_OK(is.AddClass(SimpleClass("a")).status());
  EXPECT_NE(is.FindClass("a"), nullptr);
  EXPECT_EQ(is.FindClass("b"), nullptr);
  EXPECT_EQ(is.AddClass(SimpleClass("a")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(IntegratedSchemaTest, SourceMap) {
  IntegratedSchema is("IS");
  const size_t merged =
      ValueOrDie(is.AddClass(SimpleClass("IS(person,human)")));
  is.MapSource({"S1", "person"}, merged);
  EXPECT_EQ(is.NameOf({"S1", "person"}), "IS(person,human)");
  EXPECT_EQ(is.NameOf({"S1", "ghost"}), "");
}

TEST(IntegratedSchemaTest, IsALinksAreIdempotentAndRemovable) {
  IntegratedSchema is("IS");
  ASSERT_OK(is.AddClass(SimpleClass("a")).status());
  ASSERT_OK(is.AddClass(SimpleClass("b")).status());
  ASSERT_OK(is.AddIsA("a", "b"));
  ASSERT_OK(is.AddIsA("a", "b"));  // idempotent
  EXPECT_EQ(is.isa_links().size(), 1u);
  EXPECT_TRUE(is.HasIsA("a", "b"));
  EXPECT_TRUE(is.RemoveIsA("a", "b"));
  EXPECT_FALSE(is.RemoveIsA("a", "b"));
  EXPECT_FALSE(is.HasIsA("a", "b"));
  EXPECT_FALSE(is.AddIsA("a", "a").ok());
}

TEST(IntegratedSchemaTest, IsALinksJoinExistingClasses) {
  IntegratedSchema is("IS");
  const size_t a = ValueOrDie(is.AddClass(SimpleClass("a")));
  const size_t b = ValueOrDie(is.AddClass(SimpleClass("b")));
  EXPECT_EQ(is.AddIsA("a", "ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(is.AddIsA(a, 9).code(), StatusCode::kNotFound);
  ASSERT_OK(is.AddIsA(a, b));
  EXPECT_TRUE(is.HasIsA("a", "b"));
  EXPECT_FALSE(is.HasIsA("a", "ghost"));
  EXPECT_FALSE(is.HasIsA(9, a));
  EXPECT_EQ(is.isa_links().size(), 1u);
}

TEST(IntegratedSchemaTest, ClosureAndParents) {
  IntegratedSchema is("IS");
  ASSERT_OK(is.AddClass(SimpleClass("a")).status());
  ASSERT_OK(is.AddClass(SimpleClass("b")).status());
  ASSERT_OK(is.AddClass(SimpleClass("c")).status());
  ASSERT_OK(is.AddIsA("a", "b"));
  ASSERT_OK(is.AddIsA("b", "c"));
  const auto closure = is.IsAClosure();
  EXPECT_EQ(closure.size(), 3u);  // a->b, a->c, b->c
  EXPECT_TRUE(closure.count({"a", "c"}));
  EXPECT_EQ(is.ParentsOf("a"), std::vector<std::string>{"b"});
  EXPECT_EQ(is.ChildrenOf("c"), std::vector<std::string>{"b"});
}

TEST(IntegratedSchemaTest, TransitiveReductionRemovesFig12Links) {
  // Fig. 12(b): a -> b -> c plus the redundant direct a -> c.
  IntegratedSchema is("IS");
  for (const char* n : {"a", "b", "c"}) {
    ASSERT_OK(is.AddClass(SimpleClass(n)).status());
  }
  ASSERT_OK(is.AddIsA("a", "b"));
  ASSERT_OK(is.AddIsA("b", "c"));
  ASSERT_OK(is.AddIsA("a", "c"));
  const auto closure_before = is.IsAClosure();
  EXPECT_EQ(is.TransitiveReduction(), 1u);
  EXPECT_FALSE(is.HasIsA("a", "c"));
  EXPECT_TRUE(is.HasIsA("a", "b"));
  EXPECT_TRUE(is.HasIsA("b", "c"));
  // The reduction preserves the semantic hierarchy.
  EXPECT_EQ(is.IsAClosure(), closure_before);
}

TEST(IntegratedSchemaTest, TransitiveReductionKeepsNonRedundantLinks) {
  IntegratedSchema is("IS");
  for (const char* n : {"a", "b", "c"}) {
    ASSERT_OK(is.AddClass(SimpleClass(n)).status());
  }
  ASSERT_OK(is.AddIsA("a", "b"));
  ASSERT_OK(is.AddIsA("a", "c"));  // b and c unrelated: both stay
  EXPECT_EQ(is.TransitiveReduction(), 0u);
  EXPECT_EQ(is.isa_links().size(), 2u);
}

TEST(IntegratedSchemaTest, TransitiveReductionKeepsSurvivorsInLinkOrder) {
  // Diamonds, with redundant links before, between and after the paths
  // that imply them. Links are tested in order, and a link removed
  // earlier no longer counts as a path for later ones. The names are
  // longer than any short-string buffer, as integrated names are.
  auto name = [](const char* n) { return StrCat("IS(S1.", n, ",S2.", n, ")"); };
  IntegratedSchema is("IS");
  for (const char* n : {"a", "b", "c", "d", "e", "f"}) {
    ASSERT_OK(is.AddClass(SimpleClass(name(n))).status());
  }
  const std::pair<const char*, const char*> links[] = {
      {"b", "a"}, {"d", "a"}, {"d", "b"}, {"c", "a"}, {"d", "c"},
      {"e", "d"}, {"e", "a"}, {"e", "b"}, {"f", "e"}};
  for (const auto& [child, parent] : links) {
    ASSERT_OK(is.AddIsA(name(child), name(parent)));
  }
  const auto closure_before = is.IsAClosure();
  EXPECT_EQ(is.TransitiveReduction(), 3u);
  std::vector<std::pair<std::string, std::string>> kept;
  for (const auto& [child, parent] : std::vector<std::pair<const char*,
                                                          const char*>>{
           {"b", "a"}, {"d", "b"}, {"c", "a"}, {"d", "c"}, {"e", "d"},
           {"f", "e"}}) {
    kept.emplace_back(name(child), name(parent));
  }
  EXPECT_EQ(is.isa_links(), kept);
  EXPECT_FALSE(is.HasIsA(name("d"), name("a")));
  EXPECT_FALSE(is.HasIsA(name("e"), name("a")));
  EXPECT_FALSE(is.HasIsA(name("e"), name("b")));
  EXPECT_TRUE(is.HasIsA(name("f"), name("e")));
  EXPECT_EQ(is.IsAClosure(), closure_before);
  // A removed link can be added back.
  ASSERT_OK(is.AddIsA(name("e"), name("b")));
  EXPECT_EQ(is.isa_links().back(), std::make_pair(name("e"), name("b")));
}

TEST(IntegratedSchemaTest, ToSchemaLowersClassesLinksAndAttrs) {
  IntegratedSchema is("IS");
  IntegratedClass a = SimpleClass("a");
  a.sources = {{"S1", "la"}};
  a.attributes.push_back({"k", ValueSetOp::kCopy,
                          {Path::Attr("S1", "la", "k")},
                          "", ValueKind::kInteger, false});
  a.aggregations.push_back({"f", {"S1", "lb"}, "", Cardinality::ManyToOne(),
                            {Path::Attr("S1", "la", "f")}});
  const size_t a_index = ValueOrDie(is.AddClass(std::move(a)));
  IntegratedClass b = SimpleClass("b");
  b.sources = {{"S1", "lb"}};
  const size_t b_index = ValueOrDie(is.AddClass(std::move(b)));
  is.MapSource({"S1", "la"}, a_index);
  is.MapSource({"S1", "lb"}, b_index);
  ASSERT_OK(is.AddIsA("a", "b"));
  is.ResolveAggregationRanges();

  const Schema schema = ValueOrDie(is.ToSchema());
  EXPECT_EQ(schema.NumClasses(), 2u);
  const ClassDef& lowered = schema.class_def(schema.FindClass("a"));
  const Attribute* attr = lowered.FindAttribute("k");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->type.scalar, ValueKind::kInteger);
  const AggregationFunction* fn = lowered.FindAggregation("f");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->range_class, "b");
  EXPECT_TRUE(schema.IsSubclassOf(schema.FindClass("a"),
                                  schema.FindClass("b")));
}

TEST(IntegratedSchemaTest, ToStringMentionsKindsAndRules) {
  IntegratedSchema is("IS");
  IntegratedClass c = SimpleClass("x");
  c.kind = ISClassKind::kVirtualIntersection;
  ASSERT_OK(is.AddClass(std::move(c)).status());
  Rule rule;
  OTerm head;
  head.object = TermArg::Variable("o");
  head.class_name = "x";
  rule.head.push_back(Literal::OfOTerm(head));
  OTerm body = head;
  body.class_name = "y";
  rule.body.push_back(Literal::OfOTerm(body));
  is.AddRule(rule);
  const std::string dump = is.ToString();
  EXPECT_NE(dump.find("virtual-intersection"), std::string::npos);
  EXPECT_NE(dump.find("rule:"), std::string::npos);
}

}  // namespace
}  // namespace ooint
