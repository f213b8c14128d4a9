#ifndef OOINT_RULES_TERM_H_
#define OOINT_RULES_TERM_H_

#include <string>
#include <vector>

#include "model/value.h"

namespace ooint {

struct AttrDescriptor;

/// An argument position inside a term: a variable, a constant value, or a
/// nested attribute-descriptor list (for complex O-terms whose attribute
/// is itself structured, e.g. book: <ISBN: y1, title: y2> in Example 11).
struct TermArg {
  enum class Kind { kVariable, kConstant, kNested };

  Kind kind = Kind::kVariable;
  std::string var;                     // kVariable
  Value constant;                      // kConstant
  std::vector<AttrDescriptor> nested;  // kNested

  static TermArg Variable(std::string name);
  static TermArg Constant(Value value);
  static TermArg Nested(std::vector<AttrDescriptor> descriptors);

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }
  bool is_nested() const { return kind == Kind::kNested; }

  std::string ToString() const;

  friend bool operator==(const TermArg& a, const TermArg& b);
  friend bool operator!=(const TermArg& a, const TermArg& b) {
    return !(a == b);
  }
};

/// One attribute descriptor `a: v` of a complex O-term. The attribute
/// name itself may be a variable (attr_is_variable) — the paper allows
/// "variables for ... attribute names appearing in an O-term" to express
/// schematic discrepancies (Section 2).
struct AttrDescriptor {
  std::string attribute;
  bool attr_is_variable = false;
  TermArg value;

  std::string ToString() const;

  friend bool operator==(const AttrDescriptor& a, const AttrDescriptor& b);
  friend bool operator!=(const AttrDescriptor& a, const AttrDescriptor& b) {
    return !(a == b);
  }
};

/// A complex O-term  <o : C | a_1:v_1, ..., agg_1, ...>  (Section 2).
/// An O-term with an empty descriptor list is the class-membership form
/// <o : C> used by the virtual-class rules of Principles 3 and 4.
struct OTerm {
  TermArg object;          // the object variable / OID constant
  std::string class_name;  // C (a local or an integrated class name)
  std::vector<AttrDescriptor> attrs;

  std::string ToString() const;

  friend bool operator==(const OTerm& a, const OTerm& b);
  friend bool operator!=(const OTerm& a, const OTerm& b) { return !(a == b); }
};

/// One literal of a rule: an (optionally negated) O-term, a comparison
/// predicate `x op y`, or an ordinary named predicate p(t_1, ..., t_k).
struct Literal {
  enum class Kind { kOTerm, kCompare, kPredicate };

  Kind kind = Kind::kOTerm;
  bool negated = false;

  OTerm oterm;  // kOTerm

  TermArg cmp_lhs;  // kCompare
  CompareOp cmp_op = CompareOp::kEq;
  TermArg cmp_rhs;

  std::string pred_name;       // kPredicate
  std::vector<TermArg> args;

  static Literal OfOTerm(OTerm term, bool negated = false);
  static Literal OfCompare(TermArg lhs, CompareOp op, TermArg rhs);
  static Literal OfPredicate(std::string name, std::vector<TermArg> args,
                             bool negated = false);

  /// The concept a fact literal ranges over: the O-term's class or the
  /// predicate's name. Empty for comparisons, whose O-term is unset.
  const std::string& concept_name() const {
    return kind == Kind::kPredicate ? pred_name : oterm.class_name;
  }

  std::string ToString() const;
};

/// Appends every variable occurring in the argument to `out` (duplicates
/// included; callers de-duplicate as needed).
void CollectVariables(const TermArg& arg, std::vector<std::string>* out);
void CollectVariables(const OTerm& term, std::vector<std::string>* out);
void CollectVariables(const Literal& literal, std::vector<std::string>* out);

}  // namespace ooint

#endif  // OOINT_RULES_TERM_H_
