#ifndef OOINT_INTEGRATE_INTEGRATED_SCHEMA_H_
#define OOINT_INTEGRATE_INTEGRATED_SCHEMA_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "assertions/assertion.h"
#include "common/result.h"
#include "model/cardinality.h"
#include "model/schema.h"
#include "rules/rule.h"

namespace ooint {

/// How an integrated class came to be.
enum class ISClassKind {
  /// The merged IS_AB of two equivalent classes (Principle 1).
  kMerged,
  /// A copy of a single local class (default strategy 1).
  kCopied,
  /// The virtual intersection class IS_AB of Principle 3, defined by
  /// rules.
  kVirtualIntersection,
  /// A virtual difference class IS_A− / IS_B− of Principle 3.
  kVirtualDifference,
};

const char* ISClassKindName(ISClassKind kind);

/// How the value set of an integrated attribute is computed from its
/// local sources (Principles 1 and 3).
enum class ValueSetOp {
  kUnion,          // ≡ / ⊆ / ⊇ : value_set(a) ∪ value_set(b)
  kDifference,     // the a_ part: value_set(a) / value_set(b)
  kIntersectAif,   // the a_b part: AIF_{a_b}(x, y) over matching objects
  kConcatenation,  // α(z): cancatenation(A•a, B•b)
  kMoreSpecific,   // β: keep the more specific attribute's values
  kCopy,           // unasserted attribute accumulated from one source
};

const char* ValueSetOpName(ValueSetOp op);

/// One attribute of an integrated class, with provenance.
struct IntegratedAttribute {
  std::string name;
  ValueSetOp op = ValueSetOp::kCopy;
  /// The local attribute paths this attribute integrates (1 or 2).
  std::vector<Path> sources;
  /// Name of the attribute integration function for kIntersectAif
  /// (registered in the AifRegistry), e.g. "AIF_income_study_support".
  std::string aif_name;
  /// Scalar type and multiplicity inherited from the (first) source
  /// attribute — kept so integrated schemas can participate in further
  /// integration rounds (the accumulation strategy of Fig. 2).
  ValueKind type = ValueKind::kString;
  bool multi_valued = false;

  std::string ToString() const;
};

/// One aggregation function of an integrated class. The range is a local
/// class reference during construction and is rewritten to the
/// corresponding integrated class name by the link-integration pass.
struct IntegratedAggregation {
  std::string name;
  ClassRef local_range;
  std::string integrated_range;  // filled by ResolveAggregationRanges
  Cardinality cardinality;
  std::vector<Path> sources;

  std::string ToString() const;
};

/// One class of the integrated schema.
struct IntegratedClass {
  std::string name;
  ISClassKind kind = ISClassKind::kCopied;
  /// The local classes this one integrates (empty only for synthetic
  /// classes).
  std::vector<ClassRef> sources;
  std::vector<IntegratedAttribute> attributes;
  std::vector<IntegratedAggregation> aggregations;

  const IntegratedAttribute* FindAttribute(const std::string& name) const;

  std::string ToString() const;
};

/// The result of integrating two (or more) local schemas: a set of
/// integrated classes connected by is-a links, plus the derivation rules
/// the integration principles generated (the "deduction-like global
/// schema" of the paper's abstract).
///
/// Classes are addressed by their index in classes(): the source map
/// resolves a local class to an index, and an is-a link is a pair of
/// indices. The name-level calls (FindClass, AddIsA, HasIsA, ...)
/// resolve names to indices first.
class IntegratedSchema {
 public:
  /// The index of no class.
  static constexpr size_t kNoClass = static_cast<size_t>(-1);

  explicit IntegratedSchema(std::string name = "IS") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a class; fails on duplicate name. Returns the class's index.
  Result<size_t> AddClass(IntegratedClass integrated_class);

  /// Records that local class `source` is represented by the integrated
  /// class at `index` (used by rule generation and link carry-over).
  void MapSource(const ClassRef& source, size_t index);

  /// The index of the integrated class representing a local class;
  /// kNoClass when unmapped.
  size_t IndexOf(const ClassRef& source) const;
  /// The integrated name of a local class; "" when unmapped.
  const std::string& NameOf(const ClassRef& source) const;

  /// Adds is_a(child, parent) between integrated classes (idempotent);
  /// NotFound when either class does not exist.
  Status AddIsA(const std::string& child, const std::string& parent);
  Status AddIsA(size_t child, size_t parent);
  /// Removes an is-a link; true when it existed.
  bool RemoveIsA(const std::string& child, const std::string& parent);
  bool HasIsA(const std::string& child, const std::string& parent) const;
  bool HasIsA(size_t child, size_t parent) const;

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

  const std::vector<IntegratedClass>& classes() const { return classes_; }
  const IntegratedClass* FindClass(const std::string& name) const;
  IntegratedClass* MutableClass(size_t index) { return &classes_[index]; }
  /// The is-a links as (child, parent) names, in insertion order.
  std::vector<std::pair<std::string, std::string>> isa_links() const;
  const std::vector<Rule>& rules() const { return rules_; }

  /// Direct is-a parents / children of a class.
  std::vector<std::string> ParentsOf(const std::string& name) const;
  std::vector<std::string> ChildrenOf(const std::string& name) const;

  /// The transitive closure of the is-a relation — the semantic content
  /// of the hierarchy, invariant under redundant-link removal (used to
  /// compare the naive and optimized integrators).
  std::set<std::pair<std::string, std::string>> IsAClosure() const;

  /// Removes every is-a link implied by a longer is-a path (the
  /// redundant links of Fig. 12); returns how many were removed.
  size_t TransitiveReduction();

  /// Rewrites aggregation ranges from local class refs to integrated
  /// class names via the source map.
  void ResolveAggregationRanges();

  /// Lowers the integrated schema to a plain (finalized) Schema so it can
  /// itself participate in a further integration round — the accumulation
  /// strategy of Fig. 2(a) and the balanced strategy of Fig. 2(b).
  /// Virtual classes are carried along as ordinary classes (their
  /// defining rules remain attached to this object). Class i of the
  /// lowered schema is classes()[i].
  Result<Schema> ToSchema() const;

  std::string ToString() const;

 private:
  size_t IndexOfName(const std::string& name) const;

  std::string name_;
  std::vector<IntegratedClass> classes_;
  std::map<std::string, size_t> by_name_;
  std::map<ClassRef, size_t> source_map_;
  // (child, parent) class indices in insertion order, and per class its
  // direct parents in the same order: the is-a set keyed by index pairs.
  std::vector<std::pair<size_t, size_t>> isa_links_;
  std::vector<std::vector<size_t>> parents_;
  std::vector<Rule> rules_;
};

}  // namespace ooint

#endif  // OOINT_INTEGRATE_INTEGRATED_SCHEMA_H_
