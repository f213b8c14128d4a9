#include "model/schema.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

Schema MakeUniversityS2() {
  // Fig. 18(b): human ⊃ employee ⊃ faculty ⊃ professor.
  Schema s("S2");
  EXPECT_OK(s.AddClass(ClassDef("human")).status());
  EXPECT_OK(s.AddClass(ClassDef("employee")).status());
  EXPECT_OK(s.AddClass(ClassDef("faculty")).status());
  EXPECT_OK(s.AddClass(ClassDef("professor")).status());
  EXPECT_OK(s.AddIsA("employee", "human"));
  EXPECT_OK(s.AddIsA("faculty", "employee"));
  EXPECT_OK(s.AddIsA("professor", "faculty"));
  EXPECT_OK(s.Finalize());
  return s;
}

TEST(SchemaTest, AddAndFindClasses) {
  Schema s("S1");
  const ClassId a = ValueOrDie(s.AddClass(ClassDef("person")));
  const ClassId b = ValueOrDie(s.AddClass(ClassDef("student")));
  EXPECT_EQ(s.NumClasses(), 2u);
  EXPECT_EQ(s.FindClass("person"), a);
  EXPECT_EQ(s.FindClass("student"), b);
  EXPECT_EQ(s.FindClass("ghost"), kInvalidClassId);
  EXPECT_FALSE(s.GetClass("ghost").ok());
}

TEST(SchemaTest, IsAByIdChecksTheIds) {
  Schema s("S1");
  const ClassId a = ValueOrDie(s.AddClass(ClassDef("person")));
  const ClassId b = ValueOrDie(s.AddClass(ClassDef("student")));
  EXPECT_EQ(s.AddIsA(b, 7).code(), StatusCode::kNotFound);
  EXPECT_EQ(s.AddIsA(kInvalidClassId, a).code(), StatusCode::kNotFound);
  EXPECT_EQ(s.AddIsA(a, a).code(), StatusCode::kInvalidArgument);
  ASSERT_OK(s.AddIsA(b, a));
  EXPECT_EQ(s.AddIsA(b, a).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.ParentsOf(b), std::vector<ClassId>{a});
}

TEST(SchemaTest, RejectsDuplicateAndEmptyNames) {
  Schema s("S1");
  ASSERT_OK(s.AddClass(ClassDef("person")).status());
  EXPECT_EQ(s.AddClass(ClassDef("person")).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(s.AddClass(ClassDef("")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, IsARejectsSelfLoopAndDuplicates) {
  Schema s("S1");
  ASSERT_OK(s.AddClass(ClassDef("a")).status());
  ASSERT_OK(s.AddClass(ClassDef("b")).status());
  EXPECT_FALSE(s.AddIsA("a", "a").ok());
  ASSERT_OK(s.AddIsA("a", "b"));
  EXPECT_EQ(s.AddIsA("a", "b").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(s.AddIsA("a", "ghost").ok());
}

TEST(SchemaTest, FinalizeDetectsIsACycle) {
  Schema s("S1");
  ASSERT_OK(s.AddClass(ClassDef("a")).status());
  ASSERT_OK(s.AddClass(ClassDef("b")).status());
  ASSERT_OK(s.AddClass(ClassDef("c")).status());
  ASSERT_OK(s.AddIsA("a", "b"));
  ASSERT_OK(s.AddIsA("b", "c"));
  ASSERT_OK(s.AddIsA("c", "a"));
  EXPECT_FALSE(s.Finalize().ok());
}

TEST(SchemaTest, FinalizeResolvesAggregationRanges) {
  Schema s("S1");
  ClassDef article("Article");
  article.AddAttribute("title", ValueKind::kString)
      .AddAggregation("Published_in", "Proceedings",
                      Cardinality::ManyToOne());
  ASSERT_OK(s.AddClass(std::move(article)).status());
  ASSERT_OK(s.AddClass(ClassDef("Proceedings")).status());
  ASSERT_OK(s.Finalize());
  const ClassDef& resolved = s.class_def(s.FindClass("Article"));
  const AggregationFunction* fn = resolved.FindAggregation("Published_in");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->range_class_id, s.FindClass("Proceedings"));
}

TEST(SchemaTest, FinalizeFailsOnUnknownAggregationRange) {
  Schema s("S1");
  ClassDef c("a");
  c.AddAggregation("f", "ghost", Cardinality::ManyToOne());
  ASSERT_OK(s.AddClass(std::move(c)).status());
  EXPECT_EQ(s.Finalize().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, FinalizeResolvesClassTypedAttributes) {
  Schema s("S1");
  ClassDef book("Book");
  book.AddClassAttribute("author", "person_info");
  ASSERT_OK(s.AddClass(std::move(book)).status());
  ASSERT_OK(s.AddClass(ClassDef("person_info")).status());
  ASSERT_OK(s.Finalize());
  const Attribute* attr =
      s.class_def(s.FindClass("Book")).FindAttribute("author");
  ASSERT_NE(attr, nullptr);
  EXPECT_TRUE(attr->type.is_class());
  EXPECT_EQ(attr->type.class_id, s.FindClass("person_info"));
}

TEST(SchemaTest, MutationAfterFinalizeFails) {
  Schema s = MakeUniversityS2();
  EXPECT_EQ(s.AddClass(ClassDef("new")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.AddIsA("faculty", "human").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, ParentsChildrenRoots) {
  Schema s = MakeUniversityS2();
  const ClassId human = s.FindClass("human");
  const ClassId employee = s.FindClass("employee");
  const ClassId faculty = s.FindClass("faculty");
  EXPECT_EQ(s.ParentsOf(employee), std::vector<ClassId>{human});
  EXPECT_EQ(s.ChildrenOf(employee), std::vector<ClassId>{faculty});
  EXPECT_EQ(s.Roots(), std::vector<ClassId>{human});
  EXPECT_TRUE(s.ParentsOf(human).empty());
}

TEST(SchemaTest, SubclassClosure) {
  Schema s = MakeUniversityS2();
  const ClassId human = s.FindClass("human");
  const ClassId professor = s.FindClass("professor");
  EXPECT_TRUE(s.IsSubclassOf(professor, human));
  EXPECT_TRUE(s.IsSubclassOf(human, human));
  EXPECT_FALSE(s.IsSubclassOf(human, professor));
  EXPECT_EQ(s.Ancestors(professor).size(), 3u);
  EXPECT_EQ(s.Descendants(human).size(), 3u);
}

TEST(SchemaTest, TopologicalOrderParentsFirst) {
  Schema s = MakeUniversityS2();
  const std::vector<ClassId> order = s.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  auto position = [&](const char* name) {
    return std::find(order.begin(), order.end(), s.FindClass(name)) -
           order.begin();
  };
  EXPECT_LT(position("human"), position("employee"));
  EXPECT_LT(position("employee"), position("faculty"));
  EXPECT_LT(position("faculty"), position("professor"));
}

TEST(SchemaTest, MultipleInheritanceSupported) {
  Schema s("S1");
  ASSERT_OK(s.AddClass(ClassDef("person")).status());
  ASSERT_OK(s.AddClass(ClassDef("employee")).status());
  ASSERT_OK(s.AddClass(ClassDef("working_student")).status());
  ASSERT_OK(s.AddIsA("working_student", "person"));
  ASSERT_OK(s.AddIsA("working_student", "employee"));
  ASSERT_OK(s.Finalize());
  EXPECT_EQ(s.ParentsOf(s.FindClass("working_student")).size(), 2u);
  EXPECT_EQ(s.NumIsAEdges(), 2u);
  EXPECT_EQ(s.Roots().size(), 2u);
}

TEST(ClassDefTest, TypeRendering) {
  ClassDef article("Article");
  article.AddAttribute("title", ValueKind::kString)
      .AddSetAttribute("keywords", ValueKind::kString)
      .AddAggregation("Published_in", "Proceedings",
                      Cardinality::ManyToOne());
  EXPECT_EQ(article.ToString(),
            "type(Article) = <title: string, keywords: {string}, "
            "Published_in: Proceedings with [m:1]>");
}

TEST(ClassDefTest, Lookups) {
  ClassDef c("x");
  c.AddAttribute("a", ValueKind::kInteger);
  c.AddAggregation("f", "y", Cardinality::OneToOne());
  EXPECT_NE(c.FindAttribute("a"), nullptr);
  EXPECT_EQ(c.FindAttribute("f"), nullptr);
  EXPECT_NE(c.FindAggregation("f"), nullptr);
  EXPECT_EQ(c.FindAggregation("a"), nullptr);
}

}  // namespace
}  // namespace ooint
