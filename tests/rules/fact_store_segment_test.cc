// The layered FactStore (DESIGN.md 4h): an overlay on an immutable,
// shared base segment continues the segment's FactIds, per-concept
// ordinals and concept ids, streams Probe postings segment-first as one
// ascending sequence, gives segment facts OID precedence, rejects
// duplicates of segment facts, counts only its own bytes, and detaches
// on Clear().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
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

std::vector<std::uint32_t> DrainRuns(PostingsCursor cursor) {
  std::vector<std::uint32_t> out;
  std::uint32_t buf[256];
  std::uint32_t n = 0;
  while ((n = cursor.NextRun(buf, 256)) != 0) {
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

Fact Person(std::uint32_t number, std::uint32_t name) {
  return MakeFact("person", MakeOid("person", number),
                  {{"name", Value::String("p" + std::to_string(name))}});
}

/// A segment of `n` person facts (name "p<i % 3>") plus one city fact.
std::shared_ptr<FactStore> MakeSegment(std::uint32_t n,
                                       int digest_bits = 64) {
  auto segment = std::make_shared<FactStore>();
  segment->set_digest_bits_for_testing(digest_bits);
  for (std::uint32_t i = 0; i < n; ++i) segment->Insert(Person(i, i % 3));
  segment->Insert(
      MakeFact("city", MakeOid("city", 0), {{"name", Value::String("Oslo")}}));
  return segment;
}

TEST(FactStoreSegmentTest, IdsContinueAcrossTheBoundary) {
  std::shared_ptr<const FactStore> segment = MakeSegment(4);
  FactStore overlay;
  overlay.AttachSegment(segment);
  ASSERT_EQ(overlay.segment(), segment);

  // Concept ids: segment concepts keep theirs, new ones follow.
  const ConceptId person = overlay.FindConcept("person");
  EXPECT_EQ(person, segment->FindConcept("person"));
  EXPECT_EQ(overlay.FindConcept("city"), segment->FindConcept("city"));
  const ConceptId magic = overlay.InternConcept("magic");
  EXPECT_EQ(magic, segment->concept_count());

  // FactIds and per-concept ordinals continue the segment's.
  EXPECT_EQ(overlay.size(), 5u);
  EXPECT_EQ(overlay.CountOf(person), 4u);
  const FactId added = overlay.Insert(
      MakeFact("person", MakeOid("person", 9), {{"name", Value::String("q")}}));
  EXPECT_EQ(added, 5u);
  EXPECT_EQ(overlay.size(), 6u);
  EXPECT_EQ(overlay.CountOf(person), 5u);
  EXPECT_EQ(overlay.ConceptOf(added), person);
  EXPECT_EQ(overlay.OrdinalOf(added), 4u);
  EXPECT_EQ(overlay.IdAt(person, 4), added);
  EXPECT_EQ(overlay.IdAt(person, 1), segment->IdAt(person, 1));
  EXPECT_EQ(overlay.ConceptOf(1), person);
  EXPECT_EQ(overlay.OrdinalOf(1), 1u);
  EXPECT_EQ(
      overlay.Insert(MakeFact("magic", Oid(), {{"0", Value::Integer(1)}})),
      6u);
  EXPECT_EQ(overlay.CountOf(magic), 1u);

  // Views and materialized facts read whichever layer holds the fact.
  EXPECT_TRUE(
      overlay.ViewAt(person, 0).Find("name").Equals(Value::String("p0")));
  EXPECT_TRUE(
      overlay.ViewAt(person, 4).Find("name").Equals(Value::String("q")));
  const std::vector<const Fact*> people = overlay.FactsOf("person");
  ASSERT_EQ(people.size(), 5u);
  EXPECT_EQ(people[0]->oid, MakeOid("person", 0));
  EXPECT_EQ(people[4]->oid, MakeOid("person", 9));
  EXPECT_EQ(overlay.FactById(added), people[4]);
  EXPECT_EQ(overlay.FactAt(person, 2)->oid, MakeOid("person", 2));
}

TEST(FactStoreSegmentTest, ProbeSpansBothLayersInAscendingOrder) {
  for (int bits : {64, 1}) {
    SCOPED_TRACE(bits);
    std::shared_ptr<const FactStore> segment = MakeSegment(40, bits);
    FactStore overlay;
    overlay.AttachSegment(segment);
    overlay.set_digest_bits_for_testing(bits);
    for (std::uint32_t i = 0; i < 40; ++i) {
      overlay.Insert(Person(100 + i, i % 3));
    }
    const ConceptId person = overlay.FindConcept("person");
    const PostingsCursor cursor =
        overlay.Probe(person, "name", Value::String("p1"));
    const std::vector<std::uint32_t> ordinals = Drain(cursor);
    EXPECT_EQ(DrainRuns(cursor), ordinals);
    EXPECT_EQ(cursor.count(), ordinals.size());
    EXPECT_TRUE(std::is_sorted(ordinals.begin(), ordinals.end()));
    // Every true match of both layers is present (collisions may add
    // false positives, which callers re-verify).
    std::vector<std::uint32_t> expected;
    for (std::uint32_t ordinal = 0; ordinal < overlay.CountOf(person);
         ++ordinal) {
      if (overlay.ViewAt(person, ordinal).Find("name").Equals(
              Value::String("p1"))) {
        expected.push_back(ordinal);
      }
    }
    ASSERT_EQ(expected.size(), 26u);
    EXPECT_TRUE(std::includes(ordinals.begin(), ordinals.end(),
                              expected.begin(), expected.end()));
    for (std::uint32_t ordinal : ordinals) {
      EXPECT_LT(ordinal, overlay.CountOf(person));
    }
    if (bits == 64) EXPECT_EQ(ordinals, expected);
    // A value only the overlay holds, and one only the segment holds.
    overlay.Insert(MakeFact("person", MakeOid("person", 500),
                            {{"name", Value::String("fresh")}}));
    const std::vector<std::uint32_t> fresh =
        Drain(overlay.Probe(person, "name", Value::String("fresh")));
    const std::vector<std::uint32_t> oslo = Drain(overlay.Probe(
        overlay.FindConcept("city"), "name", Value::String("Oslo")));
    EXPECT_TRUE(std::is_sorted(fresh.begin(), fresh.end()));
    EXPECT_EQ(fresh.back(), 80u);
    EXPECT_GE(fresh.front(), 40u);  // the segment never stored "fresh"
    EXPECT_EQ(oslo, std::vector<std::uint32_t>{0});
    if (bits == 64) EXPECT_EQ(fresh, std::vector<std::uint32_t>{80});
  }
}

TEST(FactStoreSegmentTest, OidLookupsGiveTheSegmentPrecedence) {
  std::shared_ptr<const FactStore> segment = MakeSegment(3);
  FactStore overlay;
  overlay.AttachSegment(segment);
  // The same OID under a second concept, and a derived twin of a
  // segment person with extra attributes.
  const Oid shared = MakeOid("person", 1);
  const FactId twin = overlay.Insert(
      MakeFact("person", shared, {{"name", Value::String("p1")},
                                   {"age", Value::Integer(7)}}));
  const FactId other = overlay.Insert(
      MakeFact("employee", shared, {{"name", Value::String("p1")}}));
  ASSERT_NE(twin, kNoFact);
  ASSERT_NE(other, kNoFact);

  const FactView first = overlay.ViewByOid(shared);
  EXPECT_EQ(first.id(), 1u);  // the segment's
  EXPECT_EQ(first.layer(), segment.get());
  EXPECT_EQ(first.attr_count(), 1u);
  const ConceptId person = overlay.FindConcept("person");
  const ConceptId employee = overlay.FindConcept("employee");

  std::vector<std::uint32_t> ordinals;
  overlay.ProbeOid(person, shared, &ordinals);
  EXPECT_EQ(ordinals, (std::vector<std::uint32_t>{1, overlay.OrdinalOf(twin)}));
  ordinals.clear();
  overlay.ProbeOid(employee, shared, &ordinals);
  ASSERT_EQ(ordinals.size(), 1u);
  EXPECT_EQ(overlay.IdAt(employee, ordinals[0]), other);
  std::vector<FactId> ids;
  overlay.FactIdsWithOid(shared, &ids);
  EXPECT_EQ(ids, (std::vector<FactId>{1, twin, other}));
}

TEST(FactStoreSegmentTest, DuplicatesOfSegmentFactsAreRejected) {
  std::shared_ptr<const FactStore> segment = MakeSegment(3);
  FactStore overlay;
  overlay.AttachSegment(segment);
  const Fact copy =
      MakeFact("person", MakeOid("person", 2), {{"name", Value::String("p2")}});
  EXPECT_EQ(overlay.Insert(copy), kNoFact);
  bool was_new = true;
  EXPECT_EQ(overlay.InsertOrFind(copy, &was_new), 2u);
  EXPECT_FALSE(was_new);
  EXPECT_EQ(overlay.FindExisting(copy), 2u);
  EXPECT_TRUE(overlay.EquivalentAttrs(2, copy));
  EXPECT_EQ(overlay.size(), segment->size());
  EXPECT_EQ(overlay.CountOf(overlay.FindConcept("person")), 3u);
}

TEST(FactStoreSegmentTest, MemoryCountsOnlyTheOverlay) {
  // Two segments over the same concepts, one much larger: identical
  // overlays on them own identical bytes.
  std::shared_ptr<const FactStore> small = MakeSegment(3);
  std::shared_ptr<const FactStore> large = MakeSegment(3000);
  FactStore on_small;
  FactStore on_large;
  on_small.AttachSegment(small);
  on_large.AttachSegment(large);
  for (FactStore* overlay : {&on_small, &on_large}) {
    overlay->Insert(MakeFact("magic", Oid(), {{"0", Value::String("x")}}));
    overlay->FactsOf("magic");
  }
  EXPECT_EQ(on_small.memory().total(), on_large.memory().total());
  EXPECT_LT(on_large.memory().total(), large->memory().total() / 20);
}

TEST(FactStoreSegmentTest, ClearDetachesTheSegment) {
  std::shared_ptr<const FactStore> segment = MakeSegment(3);
  FactStore overlay;
  overlay.AttachSegment(segment);
  overlay.Insert(MakeFact("magic", Oid(), {{"0", Value::Integer(1)}}));
  overlay.Clear();
  EXPECT_EQ(overlay.segment(), nullptr);
  EXPECT_EQ(overlay.size(), 0u);
  EXPECT_EQ(overlay.concept_count(), 0u);
  EXPECT_EQ(overlay.FindConcept("person"), kNoConcept);
  EXPECT_FALSE(overlay.ViewByOid(MakeOid("person", 0)).valid());
  EXPECT_TRUE(overlay.FactsOf("person").empty());
  // A cleared overlay is an ordinary store again.
  EXPECT_EQ(overlay.Insert(MakeFact("person", MakeOid("person", 0),
                                    {{"name", Value::String("p0")}})),
            0u);
  EXPECT_EQ(segment->size(), 4u);  // the segment itself is untouched
}

}  // namespace
}  // namespace ooint
