#ifndef OOINT_INTEGRATE_CLASS_PAIRS_H_
#define OOINT_INTEGRATE_CLASS_PAIRS_H_

#include <cstdint>
#include <vector>

#include "assertions/assertion_set.h"
#include "model/schema.h"

namespace ooint {

/// Virtual start node marker (Fig. 14): the paper adds a start node above
/// the roots of each input graph so both graphs are traversed from a
/// single source.
inline constexpr ClassId kStartNode = -1;

/// A local class of one of the two schemas being integrated, resolved
/// once from its name.
struct LocalClass {
  int side = 0;  // 1 (s1) or 2 (s2); 0 when the class is not found
  ClassId id = kInvalidClassId;
  const ClassDef* def = nullptr;

  bool found() const { return def != nullptr; }
};

/// The side, id and ClassDef behind `ref`; not found() when neither
/// schema has the class.
LocalClass ResolveLocal(const Schema& s1, const Schema& s2,
                        const ClassRef& ref);

/// The assertion set of one integration, looked up by class id: the
/// only lookup structure over assertions. Both integrators ask it about
/// every pair they check, and the principles and the consistency check
/// ask it for equivalent ancestors.
///
/// Built once per integration straight from AssertionSet::assertions(),
/// resolving each asserted class to its id once; classes neither schema
/// has, and pairs within one schema, are left out. The index is sparse
/// (one entry per asserted pair), so it stays small when n1×n2 is large.
class ClassPairIndex {
 public:
  /// Result of a class-pair lookup, oriented as (a θ b) regardless of
  /// how the assertion was stored.
  struct Lookup {
    /// The pair's set-relation assertion, or else its first declared
    /// derivation; nullptr when no assertion relates the pair.
    const Assertion* assertion = nullptr;
    SetRel rel = SetRel::kEquivalent;
    /// True when the stored assertion has the queried classes swapped
    /// (its lhs is b). For derivations this means b → ... a: a is the
    /// derived class.
    bool reversed = false;
    /// Every derivation relating the pair, in declaration order; null
    /// when !found().
    const std::vector<const Assertion*>* derivations = nullptr;

    bool found() const { return assertion != nullptr; }
  };

  ClassPairIndex(const Schema& s1, const Schema& s2,
                 const AssertionSet& assertions);

  /// The lookup for class `a` of schema `side` and class `b` of the
  /// other schema (3 - side), oriented as (a θ b).
  Lookup Find(int side, ClassId a, ClassId b) const;

  /// The classes of the other schema that share an assertion (set
  /// relation or derivation) with class `id` of schema `side`, in class
  /// name order.
  const std::vector<ClassId>& PartnersOf(int side, ClassId id) const {
    return partners_[side - 1][id];
  }

 private:
  struct Entry {
    ClassId s2_class;
    Lookup lookup;  // oriented (S1 class θ s2_class); derivations unset
    std::vector<const Assertion*> derivations;
  };

  /// The entry of (S1 class c1, S2 class c2), inserted when absent.
  Entry& EntryFor(ClassId c1, ClassId c2);

  // Per S1 class, its asserted S2 partners sorted by id.
  std::vector<std::vector<Entry>> rows_;
  // PartnersOf's lists: [side - 1][class id].
  std::vector<std::vector<ClassId>> partners_[2];
};

/// A set of (S1 class, S2 class) pairs as an (n1+1)×(n2+1) bitmap; row
/// and column 0 stand for kStartNode.
class ClassPairSet {
 public:
  ClassPairSet(size_t n1, size_t n2)
      : columns_(n2 + 1), bits_(((n1 + 1) * columns_ + 63) / 64, 0) {}

  /// Adds the pair; true when it was not yet present.
  bool Insert(ClassId a, ClassId b) {
    const size_t bit = Bit(a, b);
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    std::uint64_t& word = bits_[bit / 64];
    if ((word & mask) != 0) return false;
    word |= mask;
    return true;
  }

  bool Contains(ClassId a, ClassId b) const {
    const size_t bit = Bit(a, b);
    return (bits_[bit / 64] >> (bit % 64) & 1) != 0;
  }

 private:
  size_t Bit(ClassId a, ClassId b) const {
    return static_cast<size_t>(a + 1) * columns_ + static_cast<size_t>(b + 1);
  }

  size_t columns_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace ooint

#endif  // OOINT_INTEGRATE_CLASS_PAIRS_H_
