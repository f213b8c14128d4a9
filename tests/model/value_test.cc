#include "model/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.kind(), ValueKind::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, ScalarConstructorsAndAccessors) {
  EXPECT_EQ(Value::Boolean(true).AsBoolean(), true);
  EXPECT_EQ(Value::Integer(-7).AsInteger(), -7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Character('q').AsCharacter(), 'q');
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  const Date d{1999, 12, 31};
  EXPECT_EQ(Value::OfDate(d).AsDate(), d);
}

TEST(ValueTest, OidValue) {
  Oid oid("a", "d", "db", "rel", 3);
  EXPECT_EQ(Value::OfOid(oid).AsOid(), oid);
}

TEST(ValueTest, SetValueAndMembership) {
  Value set = Value::Set({Value::Integer(1), Value::Integer(2)});
  EXPECT_EQ(set.kind(), ValueKind::kSet);
  EXPECT_EQ(set.AsSet().size(), 2u);
  EXPECT_TRUE(set.SetContains(Value::Integer(2)));
  EXPECT_FALSE(set.SetContains(Value::Integer(3)));
  EXPECT_FALSE(Value::Integer(1).SetContains(Value::Integer(1)));
}

TEST(ValueTest, EqualityIsKindAndPayload) {
  EXPECT_EQ(Value::Integer(1), Value::Integer(1));
  EXPECT_NE(Value::Integer(1), Value::Integer(2));
  EXPECT_NE(Value::Integer(1), Value::Real(1.0));  // kinds differ
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Set({Value::Integer(1)}), Value::Set({Value::Integer(1)}));
}

TEST(ValueTest, TotalOrderIsKindMajor) {
  EXPECT_LT(Value::Null(), Value::Boolean(false));
  EXPECT_LT(Value::Integer(5), Value::String("a"));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_LT(Value::Integer(1), Value::Integer(2));
}

TEST(ValueTest, AsNumberCoercesIntegerAndReal) {
  EXPECT_DOUBLE_EQ(ValueOrDie(Value::Integer(4).AsNumber()), 4.0);
  EXPECT_DOUBLE_EQ(ValueOrDie(Value::Real(4.5).AsNumber()), 4.5);
  EXPECT_FALSE(Value::String("4").AsNumber().ok());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Integer(3).ToString(), "3");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Boolean(false).ToString(), "false");
  EXPECT_EQ(Value::Set({Value::Integer(1), Value::Integer(2)}).ToString(),
            "{1, 2}");
  EXPECT_EQ(Value::OfDate({2000, 1, 5}).ToString(), "2000-01-05");
}

/// One or more values of every kind, in ascending order: kinds in
/// ValueKind order, OIDs that differ in each component, nested sets.
std::vector<Value> AscendingValues() {
  return {
      Value::Null(),
      Value::Boolean(false),
      Value::Boolean(true),
      Value::Integer(-3),
      Value::Integer(0),
      Value::Integer(7),
      Value::Real(-1.5),
      Value::Real(0.0),
      Value::Real(2.25),
      Value::Character('a'),
      Value::Character('b'),
      Value::String(""),
      Value::String("a"),
      Value::String("ab"),
      Value::String("b"),
      Value::OfDate({1999, 12, 31}),
      Value::OfDate({2000, 1, 1}),
      Value::OfDate({2000, 1, 2}),
      Value::OfOid(Oid("a", "d", "db", "r", 1)),
      Value::OfOid(Oid("a", "d", "db", "r", 2)),
      Value::OfOid(Oid("a", "d", "db", "s", 0)),
      Value::OfOid(Oid("a", "d", "dc", "a", 0)),
      Value::OfOid(Oid("a", "e", "a", "a", 0)),
      Value::OfOid(Oid("b", "a", "a", "a", 0)),
      Value::Set({}),
      Value::Set({Value::Integer(1)}),
      Value::Set({Value::Integer(1), Value::Integer(2)}),
      Value::Set({Value::Integer(2)}),
      Value::Set({Value::Set({})}),
      Value::Set({Value::Set({Value::String("x")})}),
  };
}

TEST(ValueTest, EqualityAndOrderAcrossAllNineKinds) {
  const std::vector<Value> values = AscendingValues();
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      SCOPED_TRACE(values[i].ToString() + " vs " + values[j].ToString());
      EXPECT_EQ(values[i] == values[j], i == j);
      EXPECT_EQ(values[i] < values[j], i < j);
    }
  }
}

TEST(ValueTest, NanAndSignedZeroKeepIeeeSemantics) {
  const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(nan, nan);
  EXPECT_FALSE(nan < nan);
  EXPECT_FALSE(nan < Value::Real(1.0));
  EXPECT_FALSE(Value::Real(1.0) < nan);
  // Kind-major order still places a NaN between integers and characters.
  EXPECT_LT(Value::Integer(1), nan);
  EXPECT_LT(nan, Value::Character('a'));
  EXPECT_NE(Value::Set({nan}), Value::Set({nan}));

  EXPECT_EQ(Value::Real(0.0), Value::Real(-0.0));
  EXPECT_FALSE(Value::Real(-0.0) < Value::Real(0.0));
  EXPECT_FALSE(Value::Real(0.0) < Value::Real(-0.0));
  EXPECT_TRUE(std::signbit(Value::Real(-0.0).AsReal()));
}

TEST(ValueTest, CopyMoveAndSelfAssignmentOfEveryKind) {
  for (const Value& original : AscendingValues()) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.kind(), original.kind());
    Value moved(std::move(copy));
    EXPECT_EQ(moved, original);

    // Assignment across kinds, both ways.
    Value assigned = Value::String("a longer string than any SSO buffer");
    assigned = original;
    EXPECT_EQ(assigned, original);
    Value move_assigned = Value::Set({Value::Integer(1)});
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);
    Value to_oid = original;
    to_oid = Value::OfOid(Oid("a", "d", "db", "r", 9));
    EXPECT_EQ(to_oid.kind(), ValueKind::kOid);

    const Value& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(assigned.ToString(), original.ToString());
  }
}

TEST(ValueTest, WrongKindAccessorReadsTheKindsDefault) {
#ifdef NDEBUG
  const Value v = Value::Integer(1);
  EXPECT_FALSE(v.AsBoolean());
  EXPECT_EQ(Value::String("x").AsInteger(), 0);
  EXPECT_EQ(v.AsReal(), 0.0);
  EXPECT_EQ(v.AsCharacter(), '\0');
  EXPECT_EQ(v.AsString(), "");
  EXPECT_EQ(v.AsDate(), Date{});
  EXPECT_TRUE(v.AsOid().empty());
  EXPECT_TRUE(v.AsSet().empty());
#else
  EXPECT_DEATH(Value::Integer(1).AsString(), "");
#endif
}

TEST(DateTest, ParseRoundTrip) {
  const Date d = ValueOrDie(Date::Parse("1999-04-01"));
  EXPECT_EQ(d.year, 1999);
  EXPECT_EQ(d.month, 4);
  EXPECT_EQ(d.day, 1);
  EXPECT_EQ(d.ToString(), "1999-04-01");
  EXPECT_FALSE(Date::Parse("1999-13-01").ok());
  EXPECT_FALSE(Date::Parse("1999-04").ok());
  EXPECT_FALSE(Date::Parse("garbage").ok());
}

TEST(CompareTest, EqualityAcrossOps) {
  EXPECT_TRUE(ValueOrDie(Compare(Value::Integer(1), CompareOp::kEq,
                                 Value::Integer(1))));
  EXPECT_TRUE(ValueOrDie(Compare(Value::Integer(1), CompareOp::kNe,
                                 Value::Integer(2))));
  // Eq across kinds is false, not an error.
  EXPECT_FALSE(ValueOrDie(Compare(Value::Integer(1), CompareOp::kEq,
                                  Value::String("1"))));
}

TEST(CompareTest, NumericMixingForInequalities) {
  EXPECT_TRUE(ValueOrDie(Compare(Value::Integer(1), CompareOp::kLt,
                                 Value::Real(1.5))));
  EXPECT_TRUE(ValueOrDie(Compare(Value::Real(2.0), CompareOp::kGe,
                                 Value::Integer(2))));
}

TEST(CompareTest, OrderingMismatchedKindsIsError) {
  EXPECT_FALSE(Compare(Value::Integer(1), CompareOp::kLt,
                       Value::String("2")).ok());
}

TEST(CompareTest, StringAndDateOrdering) {
  EXPECT_TRUE(ValueOrDie(Compare(Value::String("a"), CompareOp::kLt,
                                 Value::String("b"))));
  EXPECT_TRUE(ValueOrDie(Compare(Value::OfDate({1999, 1, 1}), CompareOp::kLe,
                                 Value::OfDate({1999, 1, 2}))));
}

TEST(CompareTest, OpNames) {
  EXPECT_STREQ(CompareOpName(CompareOp::kEq), "==");
  EXPECT_STREQ(CompareOpName(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpName(CompareOp::kNe), "!=");
}

}  // namespace
}  // namespace ooint
