#ifndef OOINT_ASSERTIONS_ASSERTION_SET_H_
#define OOINT_ASSERTIONS_ASSERTION_SET_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "assertions/assertion.h"
#include "model/schema.h"

namespace ooint {

/// The set of correspondence assertions declared (by users or DBAs)
/// between two local schemas: the input of the integration algorithms.
/// The integrators look pairs up in a ClassPairIndex built from
/// assertions() (integrate/class_pairs.h); the set itself only checks
/// each assertion's shape and that no pair carries two set relations.
class AssertionSet {
 public:
  AssertionSet() = default;

  /// Adds an assertion. Multiple derivation assertions may involve the
  /// same class pair (e.g. Book → Author and Author → Book, Example 4);
  /// at most one non-derivation assertion may relate a given pair.
  Status Add(Assertion assertion);

  size_t size() const { return assertions_.size(); }
  const std::vector<Assertion>& assertions() const { return assertions_; }

  /// All derivation assertions.
  std::vector<const Assertion*> AllDerivations() const;

  /// Structural validation against the two participating schemas:
  ///  - every referenced class exists in its schema,
  ///  - every path of every correspondence resolves (Definition 4.1),
  ///  - composed-into correspondences carry the new attribute name,
  ///  - `with` qualifiers only appear on inclusion correspondences,
  ///  - derivation lhs classes all come from one schema and the rhs from
  ///    the other,
  ///  - value correspondences reference the schema of their declared side.
  Status Validate(const Schema& s1, const Schema& s2) const;

  /// Renders all assertions in the parseable assertion language.
  std::string ToString() const;

 private:
  std::vector<Assertion> assertions_;
  // Unordered class pair (smaller ref first) -> index of its single
  // non-derivation assertion.
  std::map<std::pair<ClassRef, ClassRef>, size_t> set_rel_index_;
};

}  // namespace ooint

#endif  // OOINT_ASSERTIONS_ASSERTION_SET_H_
