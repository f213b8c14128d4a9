// Hash-collision path coverage (DESIGN.md "Columnar fact storage"):
// `set_digest_bits_for_testing` masks every 64-bit content digest the
// store computes — the dedup digests, the (concept, attribute, value)
// postings keys, and the OID dictionary hashes — down to a handful of
// bits, so unrelated facts collide constantly. Every observable must
// still be exact, because each digest lookup re-verifies candidates
// against the packed payloads: de-duplication never drops a distinct
// fact, ViewByOid / ProbeOid never return a foreign OID, and Probe's
// candidate stream re-verified the matcher's way never yields a false
// positive the caller can observe.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "rules/fact_store.h"

namespace ooint {
namespace {

Oid MakeOid(const std::string& relation, std::uint32_t number) {
  return Oid("S1", "ontos", "db", relation, number);
}

Fact MakeFact(const std::string& concept_name, const Oid& oid,
              std::map<std::string, Value> attrs) {
  Fact fact;
  fact.concept_name = concept_name;
  fact.oid = oid;
  fact.attrs = std::move(attrs);
  return fact;
}

std::vector<std::uint32_t> Drain(PostingsCursor cursor) {
  std::vector<std::uint32_t> out;
  std::uint32_t ordinal = 0;
  while (cursor.Next(&ordinal)) out.push_back(ordinal);
  return out;
}

/// The matcher's verification convention: a candidate survives when the
/// attribute equals the probe value, or is a set containing it.
bool Matches(const Fact& fact, const std::string& attr, const Value& v) {
  auto it = fact.attrs.find(attr);
  if (it == fact.attrs.end()) return false;
  if (it->second == v) return true;
  if (it->second.kind() != ValueKind::kSet) return false;
  return it->second.SetContains(v);
}

class CollidingFactStoreTest : public ::testing::TestWithParam<int> {};

TEST_P(CollidingFactStoreTest, DeduplicationStaysExact) {
  FactStore store;
  store.set_digest_bits_for_testing(GetParam());
  // 64 distinct facts across 4 concepts; with <= 2 digest bits nearly
  // every pair collides in the dedup index.
  std::vector<Fact> facts;
  for (int i = 0; i < 64; ++i) {
    facts.push_back(MakeFact(
        StrCat("c", i % 4), MakeOid("r", static_cast<std::uint32_t>(i)),
        {{"k", Value::Integer(i / 8)},
         {"name", Value::String(StrCat("n", i % 8))}}));
  }
  for (const Fact& fact : facts) {
    ASSERT_NE(store.Insert(fact), kNoFact) << fact.CanonicalKey();
  }
  EXPECT_EQ(store.size(), facts.size());
  // Exact duplicates are still rejected despite the collisions.
  for (const Fact& fact : facts) {
    EXPECT_EQ(store.Insert(fact), kNoFact) << fact.CanonicalKey();
  }
  EXPECT_EQ(store.size(), facts.size());
}

TEST_P(CollidingFactStoreTest, FindByOidNeverReturnsForeignOid) {
  FactStore store;
  store.set_digest_bits_for_testing(GetParam());
  std::vector<Oid> oids;
  for (std::uint32_t i = 0; i < 48; ++i) {
    Oid oid = MakeOid(StrCat("rel", i % 3), i);
    oids.push_back(oid);
    ASSERT_NE(store.Insert(MakeFact("c", oid, {{"i", Value::Integer(i)}})),
              kNoFact);
  }
  for (std::uint32_t i = 0; i < oids.size(); ++i) {
    const FactView found = store.ViewByOid(oids[i]);
    ASSERT_TRUE(found.valid());
    // Exact: the fact found owns exactly the probed OID.
    EXPECT_EQ(found.oid_handle().MaterializeOid(), oids[i]);
    EXPECT_TRUE(found.Find("i").Equals(Value::Integer(i)));
    std::vector<std::uint32_t> ordinals;
    store.ProbeOid(store.FindConcept("c"), oids[i], &ordinals);
    ASSERT_EQ(ordinals.size(), 1u);
    EXPECT_EQ(store.ViewAt(store.FindConcept("c"), ordinals[0])
                  .oid_handle()
                  .MaterializeOid(),
              oids[i]);
  }
  // Absent OIDs (including ones whose masked hash collides with a
  // stored one) still miss.
  EXPECT_FALSE(store.ViewByOid(MakeOid("rel0", 1000)).valid());
  EXPECT_FALSE(store.ViewByOid(MakeOid("other", 0)).valid());
}

TEST_P(CollidingFactStoreTest, ProbeOidIsExactUnderCollisions) {
  FactStore store;
  store.set_digest_bits_for_testing(GetParam());
  const Oid shared = MakeOid("entity", 7);
  // The shared OID appears in two concepts; dozens of decoys collide.
  ASSERT_NE(store.Insert(MakeFact("a", shared, {{"x", Value::Integer(1)}})),
            kNoFact);
  ASSERT_NE(store.Insert(MakeFact("b", shared, {{"y", Value::Integer(2)}})),
            kNoFact);
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_NE(store.Insert(MakeFact(i % 2 == 0 ? "a" : "b",
                                    MakeOid("decoy", i),
                                    {{"z", Value::Integer(i)}})),
              kNoFact);
  }
  std::vector<std::uint32_t> ordinals;
  store.ProbeOid(store.FindConcept("a"), shared, &ordinals);
  ASSERT_EQ(ordinals.size(), 1u);
  EXPECT_EQ(store.FactAt(store.FindConcept("a"), ordinals[0])->oid, shared);
  ordinals.clear();
  store.ProbeOid(store.FindConcept("b"), shared, &ordinals);
  ASSERT_EQ(ordinals.size(), 1u);
  EXPECT_EQ(store.FactAt(store.FindConcept("b"), ordinals[0])->oid, shared);
  ordinals.clear();
  store.ProbeOid(store.FindConcept("a"), MakeOid("entity", 1234), &ordinals);
  EXPECT_TRUE(ordinals.empty());
}

TEST_P(CollidingFactStoreTest, VerifiedProbeResultsMatchAScan) {
  FactStore store;
  store.set_digest_bits_for_testing(GetParam());
  std::vector<Fact> facts;
  for (int i = 0; i < 80; ++i) {
    std::map<std::string, Value> attrs;
    attrs["group"] = Value::Integer(i % 5);
    attrs["name"] = Value::String(StrCat("name", i % 7));
    if (i % 3 == 0) {
      attrs["tags"] = Value::Set({Value::String(StrCat("t", i % 4)),
                                  Value::Integer(i % 6)});
    }
    facts.push_back(MakeFact("doc", MakeOid("doc", static_cast<std::uint32_t>(i)),
                             std::move(attrs)));
  }
  for (const Fact& fact : facts) {
    ASSERT_NE(store.Insert(fact), kNoFact);
  }
  const ConceptId doc = store.FindConcept("doc");
  // Probe every (attr, value) pair that occurs, re-verify candidates
  // the matcher's way, and compare against a full extent scan: the
  // verified result sets must be identical — collisions only ever add
  // candidates that verification removes, never remove true hits.
  std::vector<std::pair<std::string, Value>> probes;
  for (const Fact& fact : facts) {
    for (const auto& [attr, value] : fact.attrs) {
      if (value.kind() == ValueKind::kSet) {
        for (const Value& e : value.AsSet()) probes.emplace_back(attr, e);
      } else {
        probes.emplace_back(attr, value);
      }
    }
  }
  probes.emplace_back("group", Value::Integer(999));      // guaranteed miss
  probes.emplace_back("name", Value::String("never"));    // never interned
  for (const auto& [attr, value] : probes) {
    std::set<std::uint32_t> verified;
    for (std::uint32_t ordinal : Drain(store.Probe(doc, attr, value))) {
      if (Matches(*store.FactAt(doc, ordinal), attr, value)) {
        verified.insert(ordinal);
      }
    }
    std::set<std::uint32_t> scanned;
    for (std::uint32_t ordinal = 0; ordinal < store.CountOf(doc); ++ordinal) {
      if (Matches(*store.FactAt(doc, ordinal), attr, value)) {
        scanned.insert(ordinal);
      }
    }
    EXPECT_EQ(verified, scanned)
        << "probe (" << attr << ", " << value.ToString() << ") with "
        << GetParam() << " digest bits";
  }
}

// 0 bits = every digest collides with every other; 1 and 4 bits stress
// partial collisions; 64 bits is the production configuration.
INSTANTIATE_TEST_SUITE_P(DigestWidths, CollidingFactStoreTest,
                         ::testing::Values(0, 1, 4, 64));

}  // namespace
}  // namespace ooint
