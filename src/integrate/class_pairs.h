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

/// The assertion set of one integration, looked up by class id: both
/// integrators ask it about every pair they check, where
/// AssertionSet::Find would render and compare two class names per
/// check.
///
/// Built once per integration from the AssertionSet: each S1 class keeps
/// its S2 partners with the very Lookup that AssertionSet::Find returns
/// for the pair, so the set relation winning over derivations and the
/// derivation orientation are inherited, not re-derived. The index is
/// sparse (one entry per asserted pair), so it stays small when n1×n2
/// is large.
class ClassPairIndex {
 public:
  ClassPairIndex(const Schema& s1, const Schema& s2,
                 const AssertionSet& assertions);

  /// The lookup oriented as (side.a θ other.b), where `other` is 3 -
  /// side: equal to AssertionSet::Find on the two classes' refs.
  AssertionSet::Lookup Find(int side, ClassId a, ClassId b) const;

  /// The classes of the other schema that share an assertion with
  /// class `id` of schema `side`, in AssertionSet::PartnersOf order.
  const std::vector<ClassId>& PartnersOf(int side, ClassId id) const {
    return side == 1 ? partners1_[id] : partners2_[id];
  }

 private:
  struct Entry {
    ClassId s2_class;
    AssertionSet::Lookup lookup;  // oriented (S1 class θ s2_class)
  };

  // Per S1 class, its asserted S2 partners sorted by id.
  std::vector<std::vector<Entry>> rows_;
  std::vector<std::vector<ClassId>> partners1_;
  std::vector<std::vector<ClassId>> partners2_;
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
