#ifndef OOINT_MODEL_VALUE_H_
#define OOINT_MODEL_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "model/oid.h"

namespace ooint {

/// The scalar type universe of the object model (Section 2):
///   type_i in {boolean, integer, real, character, string, date}
/// extended with OIDs (aggregation-function results), sets (multi-valued
/// attributes) and Null (absent data, e.g. the "Null otherwise" branch of
/// the paper's concatenation and AIF functions).
enum class ValueKind {
  kNull = 0,
  kBoolean,
  kInteger,
  kReal,
  kCharacter,
  kString,
  kDate,
  kOid,
  kSet,
};

/// Returns the paper's spelling of a value kind, e.g. "integer".
const char* ValueKindName(ValueKind kind);

/// A calendar date (the `date` scalar type).
struct Date {
  int year = 0;
  int month = 1;
  int day = 1;

  /// "YYYY-MM-DD".
  std::string ToString() const;
  /// Parses "YYYY-MM-DD".
  static Result<Date> Parse(const std::string& text);

  friend auto operator<=>(const Date&, const Date&) = default;
};

/// A dynamically typed value: one scalar, one OID, or a set of values.
///
/// Values are ordinary regular types with total ordering (kind-major) so
/// they can key std::map/std::set; this is what the integration principles'
/// value_set computations (union / difference / intersection) operate on.
///
/// A value stores only its own kind's payload: one variant alternative per
/// kind, in ValueKind order, so the variant's index is the kind.
class Value {
 public:
  /// Constructs the Null value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Boolean(bool b);
  static Value Integer(std::int64_t i);
  static Value Real(double r);
  static Value Character(char c);
  static Value String(std::string s);
  static Value OfDate(Date d);
  static Value OfOid(Oid oid);
  static Value Set(std::vector<Value> elements);

  ValueKind kind() const { return static_cast<ValueKind>(payload_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }

  /// Typed accessors; callers must check kind() first (assert otherwise;
  /// without asserts a wrong kind reads that kind's default value).
  bool AsBoolean() const;
  std::int64_t AsInteger() const;
  double AsReal() const;
  char AsCharacter() const;
  const std::string& AsString() const;
  const Date& AsDate() const;
  const Oid& AsOid() const;
  const std::vector<Value>& AsSet() const;

  /// Numeric view: integer or real as double. TypeError otherwise.
  Result<double> AsNumber() const;

  /// Set membership: true iff this is a set containing `element`.
  bool SetContains(const Value& element) const;

  /// Human-readable rendering; strings are quoted, sets use {a, b}.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

 private:
  /// Alternative i holds the payload of ValueKind i.
  using Payload = std::variant<std::monostate, bool, std::int64_t, double,
                               char, std::string, Date, Oid,
                               std::vector<Value>>;

  /// The payload of kind K, or null when this value is of another kind.
  template <ValueKind K>
  const auto* Get() const {
    return std::get_if<static_cast<std::size_t>(K)>(&payload_);
  }

  /// The payload of kind K for a typed accessor: asserts the kind, and
  /// reads `fallback` for a value of another kind.
  template <ValueKind K, typename T>
  const T& Expect(const T& fallback) const;

  template <ValueKind K, typename T>
  static Value Make(T&& payload) {
    Value v;
    v.payload_.template emplace<static_cast<std::size_t>(K)>(
        std::forward<T>(payload));
    return v;
  }

  Payload payload_;
};

/// Comparison operators usable in `with att τ const` qualifiers and in
/// generated rule predicates: τ ∈ {=, ≠, <, ≤, >, ≥} (Section 4.1).
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// The surface syntax of a comparison operator ("==", "!=", "<", ...).
const char* CompareOpName(CompareOp op);

/// Applies `op` to two values using Value's total order; values of
/// different kinds are only Eq/Ne-comparable (inequalities between
/// mismatched kinds yield a TypeError).
Result<bool> Compare(const Value& lhs, CompareOp op, const Value& rhs);

}  // namespace ooint

#endif  // OOINT_MODEL_VALUE_H_
