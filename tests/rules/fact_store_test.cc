// Unit coverage for the columnar FactStore: interning, exact
// de-duplication, extent ordinals, the packed (concept, attribute,
// value) postings index, and the *defined* OID collision precedence
// (first-inserted fact wins; ProbeOid disambiguates by concept), and a
// duplicate insert that leaves the store as it was.
// The materializing boundary (FactAt / FactById) must return stable
// pointers, and FactView must expose attributes in the same
// lexicographic order a materialized Fact's std::map iterates in.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

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

TEST(FactStoreTest, InsertDeduplicatesExactly) {
  FactStore store;
  Fact fact = MakeFact("person", MakeOid("person", 1),
                       {{"name", Value::String("Ann")}});
  ASSERT_NE(store.Insert(fact), kNoFact);
  EXPECT_EQ(store.Insert(fact), kNoFact);  // identical -> duplicate
  EXPECT_EQ(store.size(), 1u);
  // Any differing component is a distinct fact.
  Fact other_attr = fact;
  other_attr.attrs["name"] = Value::String("Bob");
  EXPECT_NE(store.Insert(other_attr), kNoFact);
  Fact other_oid = fact;
  other_oid.oid = MakeOid("person", 2);
  EXPECT_NE(store.Insert(other_oid), kNoFact);
  EXPECT_EQ(store.size(), 3u);
}

/// Every byte count of a breakdown, for whole-store comparisons.
std::vector<size_t> Bytes(const FactStore::MemoryBreakdown& m) {
  return {m.record_bytes,     m.attr_bytes,       m.symbol_bytes,
          m.value_pool_bytes, m.attr_index_bytes, m.oid_index_bytes,
          m.dedup_bytes,      m.materialized_bytes};
}

TEST(FactStoreTest, DuplicatesOfASetValuedFactLeaveTheStoreUnchanged) {
  // Encoding a set appends its runs before the duplicate check finds
  // the stored fact; a duplicate must take them back out.
  const Value tags = Value::Set(
      {Value::String("a"), Value::Set({Value::Integer(1), Value::Integer(2)})});
  const Fact fact =
      MakeFact("doc", MakeOid("doc", 1), {{"n", Value::Integer(1)},
                                          {"tags", tags}});
  const auto check = [&](FactStore* store) {
    const FactId id = store->Insert(fact);
    ASSERT_NE(id, kNoFact);
    EXPECT_EQ(store->Insert(fact), kNoFact);
    const std::vector<size_t> after_first = Bytes(store->memory());
    const size_t size = store->size();
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(store->Insert(fact), kNoFact);
      bool was_new = true;
      EXPECT_EQ(store->InsertOrFind(fact, &was_new), id);
      EXPECT_FALSE(was_new);
    }
    EXPECT_EQ(Bytes(store->memory()), after_first);
    EXPECT_EQ(store->size(), size);
    // The kept runs still read back, and a new set lands after them.
    EXPECT_EQ(store->ViewById(id).Find("tags").Materialize(), tags);
    const Value other = Value::Set({Value::String("b")});
    const FactId next = store->Insert(
        MakeFact("doc", MakeOid("doc", 2), {{"tags", other}}));
    ASSERT_NE(next, kNoFact);
    EXPECT_EQ(store->ViewById(next).Find("tags").Materialize(), other);
    EXPECT_EQ(store->ViewById(id).Find("tags").Materialize(), tags);
  };
  FactStore single;
  check(&single);
  // On an overlay the fact and its duplicates are the overlay's own.
  auto segment = std::make_shared<FactStore>();
  segment->Insert(MakeFact("doc", MakeOid("doc", 0), {{"tags", tags}}));
  FactStore overlay;
  overlay.AttachSegment(segment);
  check(&overlay);
}

TEST(FactStoreTest, ExtentsKeepInsertionOrderWithStablePointers) {
  FactStore store;
  const FactId a = store.Insert(
      MakeFact("p", MakeOid("p", 1), {{"n", Value::Integer(1)}}));
  const FactId b = store.Insert(
      MakeFact("q", MakeOid("q", 1), {{"n", Value::Integer(2)}}));
  const FactId c = store.Insert(
      MakeFact("p", MakeOid("p", 2), {{"n", Value::Integer(3)}}));
  const ConceptId p = store.FindConcept("p");
  ASSERT_NE(p, kNoConcept);
  ASSERT_EQ(store.CountOf(p), 2u);
  EXPECT_EQ(store.IdAt(p, 0), a);
  EXPECT_EQ(store.IdAt(p, 1), c);
  EXPECT_EQ(store.FactsOf("q").front(), store.FactById(b));
  EXPECT_EQ(store.ConceptName(p), "p");
  EXPECT_EQ(store.FindConcept("absent"), kNoConcept);

  // Materialized pointers are stable across later inserts and repeated
  // materialization.
  const Fact* pa = store.FactAt(p, 0);
  ASSERT_NE(pa, nullptr);
  for (int i = 0; i < 64; ++i) {
    store.Insert(MakeFact("p", MakeOid("p", 100 + i),
                          {{"n", Value::Integer(100 + i)}}));
  }
  EXPECT_EQ(store.FactAt(p, 0), pa);
  EXPECT_EQ(pa->attrs.at("n"), Value::Integer(1));
}

TEST(FactStoreTest, MaterializationRoundTripsEveryValueKind) {
  FactStore store;
  Fact fact = MakeFact(
      "kinds", MakeOid("kinds", 1),
      {{"null", Value::Null()},
       {"bool", Value::Boolean(true)},
       {"char", Value::Character('x')},
       {"int_small", Value::Integer(-42)},
       {"int_huge", Value::Integer((std::int64_t{1} << 61) + 7)},
       {"int_neg_huge", Value::Integer(-((std::int64_t{1} << 61) + 7))},
       {"real", Value::Real(3.5)},
       {"string", Value::String("a string value")},
       {"date", Value::OfDate(Date{1999, 12, 31})},
       {"oid", Value::OfOid(MakeOid("other", 9))},
       {"set", Value::Set({Value::Integer(1), Value::String("two"),
                           Value::Set({Value::Boolean(false)})})}});
  const FactId id = store.Insert(fact);
  ASSERT_NE(id, kNoFact);

  // Boundary materialization reproduces the fact bit-identically.
  const Fact* stored = store.FactById(id);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->concept_name, fact.concept_name);
  EXPECT_EQ(stored->oid, fact.oid);
  EXPECT_EQ(stored->attrs, fact.attrs);
  EXPECT_EQ(stored->CanonicalKey(), fact.CanonicalKey());

  // FactView walks the packed runs in the map's lexicographic order.
  const FactView view = store.ViewById(id);
  ASSERT_TRUE(view.valid());
  ASSERT_EQ(view.attr_count(), fact.attrs.size());
  size_t i = 0;
  for (const auto& [name, value] : fact.attrs) {
    EXPECT_EQ(view.attr_name(i), name);
    EXPECT_EQ(view.attr_value(i).Materialize(), value);
    ++i;
  }
  // And the exact-equivalence check FindExisting verifies with agrees.
  EXPECT_TRUE(store.EquivalentAttrs(id, fact));
  Fact tweaked = fact;
  tweaked.attrs["bool"] = Value::Boolean(false);
  EXPECT_FALSE(store.EquivalentAttrs(id, tweaked));
}

TEST(FactStoreTest, OidCollisionPrecedenceIsFirstInserted) {
  // Two concepts deriving the same entity used to hit an unordered-map
  // emplace race; the contract is explicit: ViewByOid(oid) returns the
  // FIRST-inserted fact (base facts load before derived ones, so base
  // data wins), and ProbeOid picks per concept.
  FactStore store;
  const Oid shared = MakeOid("person", 7);
  const FactId base = store.Insert(
      MakeFact("IS(S1.person)", shared, {{"name", Value::String("Ann")}}));
  const FactId derived = store.Insert(
      MakeFact("IS_AB(person)", shared, {{"vip", Value::Boolean(true)}}));
  ASSERT_NE(base, kNoFact);
  ASSERT_NE(derived, kNoFact);
  EXPECT_EQ(store.ViewByOid(shared).id(), base);
  EXPECT_FALSE(store.ViewByOid(MakeOid("person", 8)).valid());

  std::vector<std::uint32_t> ordinals;
  store.ProbeOid(store.FindConcept("IS(S1.person)"), shared, &ordinals);
  ASSERT_EQ(ordinals.size(), 1u);
  EXPECT_EQ(store.IdAt(store.FindConcept("IS(S1.person)"), ordinals[0]), base);
  ordinals.clear();
  store.ProbeOid(store.FindConcept("IS_AB(person)"), shared, &ordinals);
  ASSERT_EQ(ordinals.size(), 1u);
  EXPECT_EQ(store.IdAt(store.FindConcept("IS_AB(person)"), ordinals[0]),
            derived);
}

TEST(FactStoreTest, ProbeFindsAttrValuesAndSetElements) {
  FactStore store;
  store.Insert(MakeFact("doc", MakeOid("doc", 1),
                        {{"title", Value::String("A")},
                         {"tags", Value::Set({Value::String("db"),
                                              Value::String("oo")})}}));
  store.Insert(MakeFact("doc", MakeOid("doc", 2),
                        {{"title", Value::String("B")}}));
  const ConceptId doc = store.FindConcept("doc");
  const std::vector<std::uint32_t> by_title =
      Drain(store.Probe(doc, "title", Value::String("B")));
  ASSERT_EQ(by_title.size(), 1u);
  EXPECT_EQ(store.FactAt(doc, by_title[0])->oid, MakeOid("doc", 2));
  // Set-valued attributes are indexed element-wise (mirrors the
  // matcher's element-level convention).
  const std::vector<std::uint32_t> by_tag =
      Drain(store.Probe(doc, "tags", Value::String("oo")));
  ASSERT_EQ(by_tag.size(), 1u);
  EXPECT_EQ(store.FactAt(doc, by_tag[0])->oid, MakeOid("doc", 1));
  // A value never interned anywhere yields an empty cursor.
  PostingsCursor miss = store.Probe(doc, "title", Value::String("Z"));
  EXPECT_TRUE(miss.empty());
  EXPECT_EQ(miss.count(), 0u);
}

TEST(FactStoreTest, ProbeCursorIsSnapshotSafeAcrossInserts) {
  // The documented cursor contract: a cursor captures the posting count
  // at creation and stays valid (and bounded to that snapshot) while
  // later inserts append to the same list.
  FactStore store;
  for (int i = 0; i < 10; ++i) {
    store.Insert(MakeFact("p", MakeOid("p", static_cast<std::uint32_t>(i)),
                          {{"k", Value::Integer(1)},
                           {"i", Value::Integer(i)}}));
  }
  const ConceptId p = store.FindConcept("p");
  PostingsCursor cursor = store.Probe(p, "k", Value::Integer(1));
  EXPECT_EQ(cursor.count(), 10u);
  std::vector<std::uint32_t> seen;
  std::uint32_t ordinal = 0;
  // Interleave draining with inserts that extend the same posting list.
  for (int i = 10; i < 200; ++i) {
    if (cursor.Next(&ordinal)) seen.push_back(ordinal);
    store.Insert(MakeFact("p", MakeOid("p", static_cast<std::uint32_t>(i)),
                          {{"k", Value::Integer(1)},
                           {"i", Value::Integer(i)}}));
  }
  while (cursor.Next(&ordinal)) seen.push_back(ordinal);
  ASSERT_EQ(seen.size(), 10u);  // snapshot: only the facts present at Probe()
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  // A fresh probe sees everything.
  EXPECT_EQ(store.Probe(p, "k", Value::Integer(1)).count(), 200u);
}

TEST(FactStoreTest, NegativeZeroAndNaNKeepLegacyHashSemantics) {
  // Bug-compat parity with the old store: reals are digested by bit
  // pattern, so -0.0 and 0.0 never share a dedup bucket (two distinct
  // facts), and NaN != NaN means a NaN fact never deduplicates.
  FactStore store;
  EXPECT_NE(store.Insert(MakeFact("r", MakeOid("r", 1),
                                  {{"x", Value::Real(0.0)}})),
            kNoFact);
  EXPECT_NE(store.Insert(MakeFact("r", MakeOid("r", 1),
                                  {{"x", Value::Real(-0.0)}})),
            kNoFact);
  EXPECT_EQ(store.size(), 2u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(store.Insert(MakeFact("r", MakeOid("r", 2),
                                  {{"x", Value::Real(nan)}})),
            kNoFact);
  EXPECT_NE(store.Insert(MakeFact("r", MakeOid("r", 2),
                                  {{"x", Value::Real(nan)}})),
            kNoFact);
  EXPECT_EQ(store.size(), 4u);
}

TEST(FactStoreTest, MemoryBreakdownIsPopulatedAndPackedStaysLean) {
  FactStore store;
  for (int i = 0; i < 1000; ++i) {
    store.Insert(MakeFact(
        "m", MakeOid("m", static_cast<std::uint32_t>(i)),
        {{"name", Value::String(i % 10 == 0 ? "anchor" : "filler")},
         {"rank", Value::Integer(i)}}));
  }
  const FactStore::MemoryBreakdown memory = store.memory();
  EXPECT_GT(memory.record_bytes, 0u);
  EXPECT_GT(memory.attr_bytes, 0u);
  EXPECT_GT(memory.symbol_bytes, 0u);
  EXPECT_GT(memory.attr_index_bytes, 0u);
  EXPECT_GT(memory.oid_index_bytes, 0u);
  EXPECT_EQ(memory.materialized_bytes, 0u);  // nothing materialized yet
  // Packed storage should stay under ~300 bytes/fact on this shape
  // (fixed costs — symbol pool, index slack — amortize further at
  // larger n; bench_storage tracks the real budget at 10^6).
  EXPECT_LT(memory.packed_total() / store.size(), 300u);
  store.FactById(0);
  EXPECT_GT(store.memory().materialized_bytes, 0u);
}

TEST(FactStoreTest, ClearResetsEverything) {
  FactStore store;
  store.Insert(MakeFact("p", MakeOid("p", 1), {{"n", Value::Integer(1)}}));
  store.FactAt(store.FindConcept("p"), 0);  // populate the cache too
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.concept_count(), 0u);
  EXPECT_EQ(store.FindConcept("p"), kNoConcept);
  EXPECT_FALSE(store.ViewByOid(MakeOid("p", 1)).valid());
  EXPECT_EQ(store.memory().materialized_bytes, 0u);
  // The store is reusable after Clear.
  EXPECT_NE(store.Insert(MakeFact("p", MakeOid("p", 1),
                                  {{"n", Value::Integer(1)}})),
            kNoFact);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace ooint
