#include "integrate/class_pairs.h"

#include <algorithm>

namespace ooint {

LocalClass ResolveLocal(const Schema& s1, const Schema& s2,
                        const ClassRef& ref) {
  const int side = ref.schema == s1.name()   ? 1
                   : ref.schema == s2.name() ? 2
                                             : 0;
  if (side == 0) return {};
  const Schema& schema = side == 1 ? s1 : s2;
  const ClassId id = schema.FindClass(ref.class_name);
  if (id == kInvalidClassId) return {};
  return {side, id, &schema.class_def(id)};
}

ClassPairIndex::ClassPairIndex(const Schema& s1, const Schema& s2,
                               const AssertionSet& assertions)
    : rows_(s1.NumClasses()),
      partners_{std::vector<std::vector<ClassId>>(s1.NumClasses()),
                std::vector<std::vector<ClassId>>(s2.NumClasses())} {
  for (const Assertion& assertion : assertions.assertions()) {
    const LocalClass rhs = ResolveLocal(s1, s2, assertion.rhs);
    if (!rhs.found()) continue;
    // A set relation has one lhs class; a derivation relates each of its
    // lhs classes to its rhs.
    for (const ClassRef& ref : assertion.lhs) {
      const LocalClass lhs = ResolveLocal(s1, s2, ref);
      if (!lhs.found() || lhs.side == rhs.side) continue;
      partners_[lhs.side - 1][lhs.id].push_back(rhs.id);
      partners_[rhs.side - 1][rhs.id].push_back(lhs.id);
      // Stored S2 → S1, the assertion reads backwards from the S1 class.
      const bool reversed = lhs.side == 2;
      Entry& entry =
          reversed ? EntryFor(rhs.id, lhs.id) : EntryFor(lhs.id, rhs.id);
      if (assertion.rel != SetRel::kDerivation) {
        // The set relation wins over the pair's derivations.
        entry.lookup = {&assertion,
                        reversed ? ReverseSetRel(assertion.rel)
                                 : assertion.rel,
                        reversed, nullptr};
        continue;
      }
      if (!entry.derivations.empty() &&
          entry.derivations.back() == &assertion) {
        continue;  // the same class twice on one lhs
      }
      entry.derivations.push_back(&assertion);
      if (!entry.lookup.found()) {
        entry.lookup = {&assertion, SetRel::kDerivation, reversed, nullptr};
      }
    }
  }

  for (int side : {1, 2}) {
    const Schema& other = side == 1 ? s2 : s1;
    for (std::vector<ClassId>& partners : partners_[side - 1]) {
      std::sort(partners.begin(), partners.end(), [&](ClassId a, ClassId b) {
        return other.class_def(a).name() < other.class_def(b).name();
      });
      partners.erase(std::unique(partners.begin(), partners.end()),
                     partners.end());
    }
  }
}

ClassPairIndex::Entry& ClassPairIndex::EntryFor(ClassId c1, ClassId c2) {
  std::vector<Entry>& row = rows_[c1];
  auto it = std::lower_bound(
      row.begin(), row.end(), c2,
      [](const Entry& entry, ClassId id) { return entry.s2_class < id; });
  if (it == row.end() || it->s2_class != c2) {
    it = row.insert(it, Entry{c2, {}, {}});
  }
  return *it;
}

ClassPairIndex::Lookup ClassPairIndex::Find(int side, ClassId a,
                                            ClassId b) const {
  const ClassId c1 = side == 1 ? a : b;
  const ClassId c2 = side == 1 ? b : a;
  const std::vector<Entry>& row = rows_[c1];
  const auto it = std::lower_bound(
      row.begin(), row.end(), c2,
      [](const Entry& entry, ClassId id) { return entry.s2_class < id; });
  if (it == row.end() || it->s2_class != c2) return {};
  Lookup lookup = it->lookup;
  lookup.derivations = &it->derivations;
  if (side == 2) {
    // (S2.a θ S1.b) is the stored (S1.b θ' S2.a) read backwards: the
    // same assertion, with the relation and the orientation flipped.
    lookup.rel = ReverseSetRel(lookup.rel);
    lookup.reversed = !lookup.reversed;
  }
  return lookup;
}

}  // namespace ooint
