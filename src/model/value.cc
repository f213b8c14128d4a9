#include "model/value.h"

#include <cassert>
#include <cstdio>

#include "common/string_util.h"

namespace ooint {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBoolean:
      return "boolean";
    case ValueKind::kInteger:
      return "integer";
    case ValueKind::kReal:
      return "real";
    case ValueKind::kCharacter:
      return "character";
    case ValueKind::kString:
      return "string";
    case ValueKind::kDate:
      return "date";
    case ValueKind::kOid:
      return "oid";
    case ValueKind::kSet:
      return "set";
  }
  return "unknown";
}

std::string Date::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

Result<Date> Date::Parse(const std::string& text) {
  Date d;
  int consumed = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d%n", &d.year, &d.month, &d.day,
                  &consumed) != 3 ||
      static_cast<size_t>(consumed) != text.size()) {
    return Status::ParseError(StrCat("bad date '", text, "', want YYYY-MM-DD"));
  }
  if (d.month < 1 || d.month > 12 || d.day < 1 || d.day > 31) {
    return Status::ParseError(StrCat("date out of range: '", text, "'"));
  }
  return d;
}

Value Value::Boolean(bool b) { return Make<ValueKind::kBoolean>(b); }

Value Value::Integer(std::int64_t i) { return Make<ValueKind::kInteger>(i); }

Value Value::Real(double r) { return Make<ValueKind::kReal>(r); }

Value Value::Character(char c) { return Make<ValueKind::kCharacter>(c); }

Value Value::String(std::string s) {
  return Make<ValueKind::kString>(std::move(s));
}

Value Value::OfDate(Date d) { return Make<ValueKind::kDate>(d); }

Value Value::OfOid(Oid oid) { return Make<ValueKind::kOid>(std::move(oid)); }

Value Value::Set(std::vector<Value> elements) {
  return Make<ValueKind::kSet>(std::move(elements));
}

// A wrong-kind read asserts; without asserts it yields the kind's
// default value, never an exception.
namespace {
const std::string kNoString;
const Date kNoDate;
const Oid kNoOid;
const std::vector<Value> kNoSet;
}  // namespace

template <ValueKind K, typename T>
const T& Value::Expect(const T& fallback) const {
  assert(kind() == K);
  const T* payload = Get<K>();
  return payload != nullptr ? *payload : fallback;
}

bool Value::AsBoolean() const { return Expect<ValueKind::kBoolean>(false); }
std::int64_t Value::AsInteger() const {
  return Expect<ValueKind::kInteger>(std::int64_t{0});
}
double Value::AsReal() const { return Expect<ValueKind::kReal>(0.0); }
char Value::AsCharacter() const { return Expect<ValueKind::kCharacter>('\0'); }
const std::string& Value::AsString() const {
  return Expect<ValueKind::kString>(kNoString);
}
const Date& Value::AsDate() const { return Expect<ValueKind::kDate>(kNoDate); }
const Oid& Value::AsOid() const { return Expect<ValueKind::kOid>(kNoOid); }
const std::vector<Value>& Value::AsSet() const {
  return Expect<ValueKind::kSet>(kNoSet);
}

Result<double> Value::AsNumber() const {
  if (const std::int64_t* i = Get<ValueKind::kInteger>()) {
    return static_cast<double>(*i);
  }
  if (const double* r = Get<ValueKind::kReal>()) return *r;
  return Status::TypeError(
      StrCat("value of kind ", ValueKindName(kind()), " is not numeric"));
}

bool Value::SetContains(const Value& element) const {
  const std::vector<Value>* set = Get<ValueKind::kSet>();
  if (set == nullptr) return false;
  for (const Value& v : *set) {
    if (v == element) return true;
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBoolean:
      return AsBoolean() ? "true" : "false";
    case ValueKind::kInteger:
      return StrCat(AsInteger());
    case ValueKind::kReal:
      return StrCat(AsReal());
    case ValueKind::kCharacter:
      return StrCat("'", AsCharacter(), "'");
    case ValueKind::kString:
      return StrCat("\"", AsString(), "\"");
    case ValueKind::kDate:
      return AsDate().ToString();
    case ValueKind::kOid:
      return AsOid().ToString();
    case ValueKind::kSet: {
      std::vector<std::string> parts;
      parts.reserve(AsSet().size());
      for (const Value& v : AsSet()) parts.push_back(v.ToString());
      return StrCat("{", Join(parts, ", "), "}");
    }
  }
  return "?";
}

// std::variant compares the index first (kind-major) and then the held
// payloads with their own == and <: IEEE for reals (NaN equals nothing,
// -0.0 == 0.0), element-wise for sets.
bool operator==(const Value& a, const Value& b) {
  return a.payload_ == b.payload_;
}

bool operator<(const Value& a, const Value& b) {
  return a.payload_ < b.payload_;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<bool> Compare(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    default:
      break;
  }
  // Allow integer/real mixing for inequalities.
  if ((lhs.kind() == ValueKind::kInteger || lhs.kind() == ValueKind::kReal) &&
      (rhs.kind() == ValueKind::kInteger || rhs.kind() == ValueKind::kReal)) {
    const double l = lhs.AsNumber().value();
    const double r = rhs.AsNumber().value();
    switch (op) {
      case CompareOp::kLt:
        return l < r;
      case CompareOp::kLe:
        return l <= r;
      case CompareOp::kGt:
        return l > r;
      case CompareOp::kGe:
        return l >= r;
      default:
        break;
    }
  }
  if (lhs.kind() != rhs.kind()) {
    return Status::TypeError(
        StrCat("cannot order values of kinds ", ValueKindName(lhs.kind()),
               " and ", ValueKindName(rhs.kind())));
  }
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    default:
      return Status::Internal("unreachable compare op");
  }
}

}  // namespace ooint
