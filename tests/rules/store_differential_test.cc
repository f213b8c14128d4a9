// Old-vs-columnar differential unit test: identical pseudo-random
// insert sequences (duplicates included) replay into the pre-columnar
// ReferenceFactStore and the columnar FactStore, and every observable
// must agree — insert accept/reject decisions, per-concept extent
// sequences, OID lookups (the reference's FindByOid overloads against
// ViewByOid and ProbeOid), and verified Probe result sets. A second
// pass masks the columnar store's digests down to a few bits so its
// collision-recovery paths are exercised against the same oracle. The
// randomized conformance harness runs the same oracle on
// evaluator-produced fact universes (family "store-differential"); this
// test pins it at unit scale with value-kind coverage the workload
// generator doesn't reach.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"
#include "rules/fact_store.h"
#include "rules/ref_fact_store.h"

namespace ooint {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() { return state_ = SplitMix64(state_); }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

Value RandomScalar(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Boolean(rng.Below(2) == 0);
    case 2:
      return Value::Character(static_cast<char>('a' + rng.Below(26)));
    case 3:
      // Mix inline-range and boxed integers.
      return Value::Integer(rng.Below(2) == 0
                                ? static_cast<std::int64_t>(rng.Below(100))
                                : (std::int64_t{1} << 61) +
                                      static_cast<std::int64_t>(rng.Below(9)));
    case 4:
      return Value::Real(static_cast<double>(rng.Below(16)) / 4.0);
    case 5:
      return Value::String(StrCat("s", rng.Below(12)));
    case 6:
      return Value::OfDate(Date{static_cast<int>(1990 + rng.Below(30)),
                                static_cast<int>(1 + rng.Below(12)),
                                static_cast<int>(1 + rng.Below(28))});
    default:
      return Value::OfOid(Oid("S1", "ontos", "db", StrCat("r", rng.Below(4)),
                              rng.Below(50)));
  }
}

Fact RandomFact(Rng& rng) {
  Fact fact;
  fact.concept_name = StrCat("concept", rng.Below(5));
  if (rng.Below(8) != 0) {  // 1-in-8 facts carry an empty OID
    fact.oid = Oid("S1", "ontos", "db", StrCat("rel", rng.Below(3)),
                   rng.Below(64));
  }
  const size_t num_attrs = rng.Below(5);
  for (size_t i = 0; i < num_attrs; ++i) {
    const std::string attr = StrCat("a", rng.Below(6));
    if (rng.Below(5) == 0) {
      std::vector<Value> elements;
      const size_t n = rng.Below(4);
      for (size_t j = 0; j < n; ++j) elements.push_back(RandomScalar(rng));
      fact.attrs[attr] = Value::Set(std::move(elements));
    } else {
      fact.attrs[attr] = RandomScalar(rng);
    }
  }
  return fact;
}

bool Matches(const Fact& fact, const std::string& attr, const Value& v) {
  auto it = fact.attrs.find(attr);
  if (it == fact.attrs.end()) return false;
  if (it->second == v) return true;
  if (it->second.kind() != ValueKind::kSet) return false;
  return it->second.SetContains(v);
}

/// Replays `facts` into both stores and checks every observable.
void RunDifferential(const std::vector<Fact>& facts, int columnar_digest_bits) {
  ReferenceFactStore ref;
  FactStore col;
  col.set_digest_bits_for_testing(columnar_digest_bits);

  for (const Fact& fact : facts) {
    const bool ref_new = ref.Insert(fact) != nullptr;
    const bool col_new = col.Insert(fact) != kNoFact;
    ASSERT_EQ(ref_new, col_new) << fact.CanonicalKey();
  }
  ASSERT_EQ(ref.size(), col.size());
  ASSERT_EQ(ref.concept_count(), col.concept_count());

  // Per-concept extents: identical CanonicalKey sequences.
  for (ConceptId cid = 0; cid < ref.concept_count(); ++cid) {
    const std::string& name = ref.ConceptName(cid);
    const std::vector<const Fact*>& ref_extent = ref.FactsOf(name);
    const std::vector<const Fact*> col_extent = col.FactsOf(name);
    ASSERT_EQ(ref_extent.size(), col_extent.size()) << name;
    for (size_t i = 0; i < ref_extent.size(); ++i) {
      ASSERT_EQ(ref_extent[i]->CanonicalKey(), col_extent[i]->CanonicalKey())
          << name << " ordinal " << i;
    }
  }

  for (const Fact& fact : facts) {
    // OID lookups, first-inserted precedence included: ViewByOid (the
    // matcher's resolver) against the reference FindByOid, and the
    // first ProbeOid ordinal (the join path's concept-scoped lookup)
    // against the concept-aware overload.
    if (!fact.oid.empty()) {
      const Fact* by_ref = ref.FindByOid(fact.oid);
      const FactView by_col = col.ViewByOid(fact.oid);
      ASSERT_NE(by_ref, nullptr);
      ASSERT_TRUE(by_col.valid());
      EXPECT_EQ(by_ref->CanonicalKey(),
                col.FactById(by_col.id())->CanonicalKey());
      const ConceptId ref_cid = ref.FindConcept(fact.concept_name);
      const ConceptId col_cid = col.FindConcept(fact.concept_name);

      // ProbeOid: identical ordinal sets (both exact).
      std::vector<std::uint32_t> ref_ordinals;
      ref.ProbeOid(ref_cid, fact.oid, &ref_ordinals);
      std::vector<std::uint32_t> col_ordinals;
      col.ProbeOid(col_cid, fact.oid, &col_ordinals);
      EXPECT_EQ(ref_ordinals, col_ordinals) << fact.oid.ToString();
      const Fact* scoped_ref = ref.FindByOid(fact.oid, ref_cid);
      ASSERT_NE(scoped_ref, nullptr);
      ASSERT_FALSE(col_ordinals.empty());
      EXPECT_EQ(scoped_ref->CanonicalKey(),
                col.FactAt(col_cid, col_ordinals.front())->CanonicalKey());
    }

    // Verified probes on every (attr, scalar / set element).
    const ConceptId ref_cid = ref.FindConcept(fact.concept_name);
    const ConceptId col_cid = col.FindConcept(fact.concept_name);
    for (const auto& [attr, value] : fact.attrs) {
      std::vector<const Value*> probes;
      if (value.kind() == ValueKind::kSet) {
        for (const Value& e : value.AsSet()) probes.push_back(&e);
      } else {
        probes.push_back(&value);
      }
      for (const Value* v : probes) {
        std::set<std::uint32_t> ref_hits;
        if (const std::vector<std::uint32_t>* ordinals =
                ref.Probe(ref_cid, attr, *v)) {
          for (std::uint32_t ordinal : *ordinals) {
            if (Matches(*ref.FactAt(ref_cid, ordinal), attr, *v)) {
              ref_hits.insert(ordinal);
            }
          }
        }
        std::set<std::uint32_t> col_hits;
        PostingsCursor cursor = col.Probe(col_cid, attr, *v);
        std::uint32_t ordinal = 0;
        while (cursor.Next(&ordinal)) {
          if (Matches(*col.FactAt(col_cid, ordinal), attr, *v)) {
            col_hits.insert(ordinal);
          }
        }
        EXPECT_EQ(ref_hits, col_hits)
            << fact.concept_name << "." << attr << " = " << v->ToString();
      }
    }
  }
}

std::vector<Fact> RandomWorkload(std::uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Fact> facts;
  for (size_t i = 0; i < n; ++i) {
    if (!facts.empty() && rng.Below(6) == 0) {
      // Re-insert an earlier fact verbatim: both stores must reject it.
      facts.push_back(facts[rng.Below(facts.size())]);
    } else {
      facts.push_back(RandomFact(rng));
    }
  }
  return facts;
}

TEST(StoreDifferentialTest, RandomWorkloadsAgreeOnEveryObservable) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    RunDifferential(RandomWorkload(seed, 120), 64);
  }
}

TEST(StoreDifferentialTest, ColumnarWithCollidingDigestsStillAgrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    RunDifferential(RandomWorkload(seed, 80), 3);
  }
}

TEST(StoreDifferentialTest, EmptyOidFactsAreNeverOidIndexed) {
  // Parity quirk: facts with an empty OID are stored but not findable
  // by OID in either store.
  Fact fact;
  fact.concept_name = "c";
  fact.attrs["x"] = Value::Integer(1);
  ReferenceFactStore ref;
  FactStore col;
  ASSERT_NE(ref.Insert(fact), nullptr);
  ASSERT_NE(col.Insert(fact), kNoFact);
  EXPECT_EQ(ref.FindByOid(Oid()), nullptr);
  EXPECT_FALSE(col.ViewByOid(Oid()).valid());
}

}  // namespace
}  // namespace ooint
