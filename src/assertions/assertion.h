#ifndef OOINT_ASSERTIONS_ASSERTION_H_
#define OOINT_ASSERTIONS_ASSERTION_H_

#include <optional>
#include <string>
#include <vector>

#include "assertions/kinds.h"
#include "assertions/path.h"
#include "model/value.h"

namespace ooint {

/// A class named within a specific local schema, e.g. S1.person.
struct ClassRef {
  std::string schema;
  std::string class_name;

  std::string ToString() const { return schema + "." + class_name; }

  friend bool operator==(const ClassRef& a, const ClassRef& b) {
    return a.schema == b.schema && a.class_name == b.class_name;
  }
  friend bool operator!=(const ClassRef& a, const ClassRef& b) {
    return !(a == b);
  }
  friend bool operator<(const ClassRef& a, const ClassRef& b) {
    if (a.schema != b.schema) return a.schema < b.schema;
    return a.class_name < b.class_name;
  }
};

/// A qualifying predicate `att τ Const` attached to an inclusion
/// (Section 4.1, the stock example: price-in-March ⊆ price with
/// time = 'March') or appearing as a hyperedge of an assertion graph
/// (Section 5, Fig. 11(b): S1.car1.car-name = car-name_1).
struct WithPredicate {
  Path attribute;
  CompareOp op = CompareOp::kEq;
  Value constant;

  std::string ToString() const;
};

/// One attribute correspondence between the two schemas of an assertion,
/// e.g. S1.person.full_name ≡ S2.human.name, or
/// S1.person.city α(address) S2.human.street-number.
struct AttributeCorrespondence {
  Path lhs;
  AttrRel rel = AttrRel::kEquivalent;
  Path rhs;
  /// The new attribute name x for rel == kComposedInto.
  std::string composed_name;
  /// Optional qualifying predicate (inclusions only).
  std::optional<WithPredicate> with;

  std::string ToString() const;
};

/// One aggregation-function correspondence, e.g.
/// S1.man.spouse ℵ S2.woman.spouse.
struct AggCorrespondence {
  Path lhs;
  AggRel rel = AggRel::kEquivalent;
  Path rhs;

  std::string ToString() const;
};

/// A value correspondence between two attributes of the *same* schema
/// (Section 4.1/4.2), used to wire up derivation assertions:
/// parent.Pssn# ∈ brother.brothers.
struct ValueCorrespondence {
  /// Which side's schema this constraint lives in: 1 for the assertion's
  /// lhs schema, 2 for its rhs schema.
  int side = 1;
  Path lhs;
  ValueRel rel = ValueRel::kEq;
  Path rhs;

  std::string ToString() const;
};

/// A full correspondence assertion (Fig. 3): a class-level relationship
/// θ ∈ {≡, ⊆, ⊇, ∩, ∅, →} together with its four correspondence blocks —
/// value correspondences within S1 and within S2, attribute
/// correspondences across, and aggregation-function correspondences
/// across.
///
/// For derivation assertions the lhs may name several classes:
/// S1(parent, brother) → S2.uncle. All other relations have exactly one
/// lhs class.
struct Assertion {
  std::vector<ClassRef> lhs;
  SetRel rel = SetRel::kEquivalent;
  ClassRef rhs;

  std::vector<ValueCorrespondence> value_corrs;
  std::vector<AttributeCorrespondence> attr_corrs;
  std::vector<AggCorrespondence> agg_corrs;

  const ClassRef& lhs_class() const { return lhs.front(); }

  /// The mirrored assertion B θ' A for symmetric/inclusion relations.
  /// Must not be called on derivations (which are directional).
  Assertion Reversed() const;

  /// Multi-line rendering in the library's assertion language (parseable
  /// by AssertionParser; see parser.h).
  std::string ToString() const;
};

}  // namespace ooint

#endif  // OOINT_ASSERTIONS_ASSERTION_H_
