#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

namespace ooint {
namespace {

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("n=", 42, ", x=", 1.5), "n=42, x=1.5");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat("solo"), "solo");
}

/// What StrCat rendered when it streamed every argument into one
/// std::ostringstream — the output it must keep byte for byte.
template <typename... Args>
std::string StreamReference(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

template <typename T>
void ExpectLimitsMatchStream() {
  for (const T value : {std::numeric_limits<T>::min(), T{0}, T{7},
                        std::numeric_limits<T>::max()}) {
    EXPECT_EQ(StrCat(value), StreamReference(value)) << +value;
    EXPECT_EQ(StrCat("<", value, ">"), StreamReference("<", value, ">"));
  }
}

TEST(StrCatTest, CharacterTypesRenderAsStreamsDo) {
  // char, signed char and unsigned char (int8_t / uint8_t) all print as
  // a character, not as a number.
  for (const char c : {'A', ' ', '\0', '\x7f'}) {
    EXPECT_EQ(StrCat(c), StreamReference(c));
  }
  for (const signed char c : {static_cast<signed char>('A'),
                              std::numeric_limits<signed char>::min()}) {
    EXPECT_EQ(StrCat(c), StreamReference(c));
  }
  for (const unsigned char c : {static_cast<unsigned char>('A'),
                                std::numeric_limits<unsigned char>::max()}) {
    EXPECT_EQ(StrCat(c), StreamReference(c));
  }
  EXPECT_EQ(StrCat(std::int8_t{65}), StreamReference(std::int8_t{65}));
  EXPECT_EQ(StrCat(std::uint8_t{66}), StreamReference(std::uint8_t{66}));
  EXPECT_EQ(StrCat(std::uint8_t{66}), "B");
}

TEST(StrCatTest, BoolRendersAsStreamsDo) {
  EXPECT_EQ(StrCat(true, false), StreamReference(true, false));
  EXPECT_EQ(StrCat(true), "1");
}

TEST(StrCatTest, IntegersAtTheirLimitsRenderAsStreamsDo) {
  ExpectLimitsMatchStream<short>();
  ExpectLimitsMatchStream<unsigned short>();
  ExpectLimitsMatchStream<int>();
  ExpectLimitsMatchStream<unsigned int>();
  ExpectLimitsMatchStream<long>();
  ExpectLimitsMatchStream<unsigned long>();
  ExpectLimitsMatchStream<long long>();
  ExpectLimitsMatchStream<unsigned long long>();
  ExpectLimitsMatchStream<size_t>();
  ExpectLimitsMatchStream<std::uint64_t>();
  EXPECT_EQ(StrCat(std::numeric_limits<long long>::min()),
            "-9223372036854775808");
}

TEST(StrCatTest, FloatingPointRendersAsStreamsDo) {
  for (const double value : {0.1, 1e-7, 1e20, 123456789.0, -0.0}) {
    EXPECT_EQ(StrCat(value), StreamReference(value)) << value;
    const float narrow = static_cast<float>(value);
    EXPECT_EQ(StrCat(narrow), StreamReference(narrow)) << narrow;
  }
  EXPECT_EQ(StrCat(123456789.0), "1.23457e+08");
  EXPECT_EQ(StrCat(-0.0), "-0");
}

TEST(StrCatTest, StringLikesRenderAsStreamsDo) {
  const char* pointer = "ptr";
  const char array[] = "array";
  char mutable_array[] = "mutable";
  const std::string owned = "owned";
  const std::string_view with_nul("a\0b", 3);
  EXPECT_EQ(StrCat(pointer, array, mutable_array, owned, with_nul),
            StreamReference(pointer, array, mutable_array, owned, with_nul));
  EXPECT_EQ(StrCat(with_nul).size(), 3u);
  EXPECT_EQ(StrCat(std::string("x\0y", 3)), std::string("x\0y", 3));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(SplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(Split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", '.'), (std::vector<std::string>{"abc"}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nx y\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("IS(person)", "IS("));
  EXPECT_FALSE(StartsWith("IS", "IS("));
  EXPECT_TRUE(EndsWith("a.b.c", ".c"));
  EXPECT_FALSE(EndsWith("c", ".c"));
}

TEST(IsIdentifierTest, AcceptsPaperStyleNames) {
  // The paper uses names like ssn#, car-name and niece_nephew.
  EXPECT_TRUE(IsIdentifier("ssn#"));
  EXPECT_TRUE(IsIdentifier("car-name"));
  EXPECT_TRUE(IsIdentifier("niece_nephew"));
  EXPECT_TRUE(IsIdentifier("Pssn#"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("1abc"));
  EXPECT_FALSE(IsIdentifier("a b"));
  EXPECT_FALSE(IsIdentifier("a.b"));
}

}  // namespace
}  // namespace ooint
