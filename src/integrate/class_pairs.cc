#include "integrate/class_pairs.h"

#include <algorithm>

namespace ooint {

namespace {

/// The ids of `ref`'s partners that live in `other`, in PartnersOf
/// order.
std::vector<ClassId> PartnerIds(const AssertionSet& assertions,
                                const ClassRef& ref, const Schema& other) {
  std::vector<ClassId> out;
  for (const ClassRef& partner : assertions.PartnersOf(ref)) {
    if (partner.schema != other.name()) continue;
    const ClassId id = other.FindClass(partner.class_name);
    if (id != kInvalidClassId) out.push_back(id);
  }
  return out;
}

}  // namespace

ClassPairIndex::ClassPairIndex(const Schema& s1, const Schema& s2,
                               const AssertionSet& assertions)
    : rows_(s1.NumClasses()),
      partners1_(s1.NumClasses()),
      partners2_(s2.NumClasses()) {
  for (ClassId i = 0; i < static_cast<ClassId>(s1.NumClasses()); ++i) {
    const ClassRef ref1{s1.name(), s1.class_def(i).name()};
    partners1_[i] = PartnerIds(assertions, ref1, s2);
    for (ClassId j : partners1_[i]) {
      const AssertionSet::Lookup lookup =
          assertions.Find(ref1, {s2.name(), s2.class_def(j).name()});
      if (lookup.found()) rows_[i].push_back({j, lookup});
    }
    std::sort(rows_[i].begin(), rows_[i].end(),
              [](const Entry& a, const Entry& b) {
                return a.s2_class < b.s2_class;
              });
  }
  for (ClassId j = 0; j < static_cast<ClassId>(s2.NumClasses()); ++j) {
    partners2_[j] =
        PartnerIds(assertions, {s2.name(), s2.class_def(j).name()}, s1);
  }
}

AssertionSet::Lookup ClassPairIndex::Find(int side, ClassId a,
                                          ClassId b) const {
  const ClassId c1 = side == 1 ? a : b;
  const ClassId c2 = side == 1 ? b : a;
  const std::vector<Entry>& row = rows_[c1];
  const auto it = std::lower_bound(
      row.begin(), row.end(), c2,
      [](const Entry& entry, ClassId id) { return entry.s2_class < id; });
  if (it == row.end() || it->s2_class != c2) return {};
  AssertionSet::Lookup lookup = it->lookup;
  if (side == 2) {
    // (S2.a θ S1.b) is the stored (S1.b θ' S2.a) read backwards: the
    // same assertion, with the relation and the orientation flipped.
    lookup.rel = ReverseSetRel(lookup.rel);
    lookup.reversed = !lookup.reversed;
  }
  return lookup;
}

}  // namespace ooint
