#ifndef OOINT_RULES_FACT_STORE_H_
#define OOINT_RULES_FACT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "rules/columnar.h"
#include "rules/fact.h"

namespace ooint {

/// 64-bit content hashes used across the evaluators (FNV-1a based, with
/// HashString from common/hash.h). Hashes are an accelerator only: every
/// user verifies candidates with exact equality, so a collision can cost
/// time but never correctness. HashFactAttrs also content-addresses
/// skolem OIDs (the derived-OID numbers both fixpoint strategies
/// assign), so its definition is part of the observable output and must
/// not change.
std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t v);
std::uint64_t HashOid(const Oid& oid);
std::uint64_t HashValue(const Value& value);
/// Hash of (concept, attrs) — the Fact::AttrKey() identity.
std::uint64_t HashFactAttrs(const Fact& fact);
/// Hash of (concept, oid, attrs) — the Fact::CanonicalKey() identity.
std::uint64_t HashFactCanonical(const Fact& fact);

/// Interned concept names: the evaluators address concepts by dense
/// 32-bit ids instead of re-hashing strings on every join step.
using ConceptId = std::uint32_t;
inline constexpr ConceptId kNoConcept = 0xffffffffu;

/// Global insertion index of a stored fact (dense, insertion-ordered).
using FactId = std::uint32_t;
inline constexpr FactId kNoFact = 0xffffffffu;

class FactStore;

/// A dictionary-encoded value: 4-bit tag in the top nibble, 60-bit
/// payload (inline scalar, pool index, or set-run index) below. The
/// encoding is store-relative — two PackedValues compare only within
/// the store that produced them.
using PackedValue = std::uint64_t;

enum class PackedTag : std::uint8_t {
  kNull = 0,
  kBool = 1,
  kChar = 2,
  kIntInline = 3,  // 60-bit two's complement
  kIntBoxed = 4,   // index into the int pool
  kReal = 5,       // index into the real pool (deduped by bit pattern)
  kString = 6,     // symbol id
  kDateInline = 7, // (year+2^23) << 16 | month << 8 | day
  kDateBoxed = 8,  // index into the date pool
  kOid = 9,        // oid-dictionary id
  kSet = 10,       // set-run index (contiguous elements, order kept)
};

/// The components of an OID, read in place (ValueHandle::AsOid).
struct OidView {
  std::string_view agent;
  std::string_view dbms;
  std::string_view database;
  std::string_view relation;
  std::uint64_t number = 0;
};

/// A value either materialized (a Value somewhere stable) or packed in
/// a FactStore. The matcher binds, compares and inspects through this
/// handle, and answer rows travel as handles until they leave the
/// result pipeline, so packed facts are matched and ranked without
/// rebuilding their values.
///
/// A packed handle reads its own layer's dictionaries, so it stays valid
/// while that store is neither cleared nor destroyed (inserts only
/// append). Equality and order (HandlesEqual, HandleLess below) are
/// Value's, whatever backs each side: dictionary ids decide equality
/// only between two handles of one layer, and never decide order.
class ValueHandle {
 public:
  ValueHandle() = default;  // invalid (attribute absent)
  explicit ValueHandle(const Value* value) : value_(value) {}
  ValueHandle(const FactStore* store, PackedValue packed)
      : store_(store), packed_(packed) {}

  bool valid() const { return value_ != nullptr || store_ != nullptr; }
  ValueKind kind() const;

  /// Set access (kind() == kSet): element count and element handles in
  /// stored order.
  size_t set_size() const;
  ValueHandle set_element(size_t i) const;

  /// Typed reads in place; kind() must be the accessor's kind.
  bool AsBoolean() const;
  std::int64_t AsInteger() const;
  double AsReal() const;
  char AsCharacter() const;
  std::string_view AsString() const;
  Date AsDate() const;
  OidView AsOid() const;

  /// Exact Value::operator== semantics (IEEE for reals, ordered
  /// element-wise for sets) without materializing.
  bool Equals(const Value& other) const;

  Value Materialize() const;
  /// kind() == kOid only.
  Oid MaterializeOid() const;

 private:
  friend bool HandlesEqual(const ValueHandle& a, const ValueHandle& b);

  const Value* value_ = nullptr;
  const FactStore* store_ = nullptr;
  PackedValue packed_ = 0;
};

/// Materialize(a) == Materialize(b), without materializing.
bool HandlesEqual(const ValueHandle& a, const ValueHandle& b);
/// Materialize(a) < Materialize(b) (Value's kind-major order; strings
/// and OID components by content), without materializing.
bool HandleLess(const ValueHandle& a, const ValueHandle& b);
/// HashValue(Materialize(v)), without materializing.
std::uint64_t HashHandle(const ValueHandle& v);

/// A stored fact: one packed record of a FactStore layer, read in place.
/// This is what the matcher and every evaluation path traverse;
/// attributes iterate in lexicographic name order (the packed runs are
/// stored sorted by name, std::map's order).
class FactView {
 public:
  FactView() = default;  // invalid
  /// Record `local` of `store`'s own layer (FactStore::ViewById maps a
  /// FactId to the layer that holds it).
  FactView(const FactStore* store, std::uint32_t local)
      : store_(store), local_(local) {}

  bool valid() const { return store_ != nullptr; }
  /// The fact's FactId in the universe of the store that handed out the
  /// view (a segment's ids are its overlays' ids).
  FactId id() const;
  bool oid_empty() const;

  size_t attr_count() const;
  std::string_view attr_name(size_t i) const;
  ValueHandle attr_value(size_t i) const;
  /// Invalid handle when the fact has no attribute named `name`.
  ValueHandle Find(std::string_view name) const;

  /// The store layer the view reads.
  const FactStore* layer() const { return store_; }
  /// The fact's OID: the `kOid` word of its layer, or an empty OID's
  /// value for a fact without one.
  ValueHandle oid_handle() const;
  /// Attribute i's name as a string handle on the layer's symbol.
  ValueHandle attr_name_handle(size_t i) const;
  /// The attribute named by symbol `symbol` of layer() (see
  /// FactStore::FindSymbol); invalid when the fact lacks it.
  ValueHandle FindSymbol(std::uint32_t symbol) const;

 private:
  const FactStore* store_ = nullptr;
  std::uint32_t local_ = 0;
};

/// The shared indexed fact universe of both federated evaluators
/// (Appendix B), stored columnar (DESIGN.md 4h): concept names,
/// attribute names, string values and OID components are interned into
/// one symbol pool; each fact is a fixed-size record whose attributes
/// are a sorted (AttrId, PackedValue) run in shared arrays; and the
/// de-duplication, OID and (concept, attribute, value) indexes are
/// delta/varint-packed ordinal postings behind open-addressing tables.
///
/// Contract (unchanged from the pre-columnar store, which survives as
/// ReferenceFactStore — a differential oracle enforces bit-identical
/// fact sets):
///  - hashed exact de-duplication on (concept, oid, attrs) — the one
///    place a fact's identity is decided, derived facts' included (a
///    skolem OID is a hash of concept and attributes), and a duplicate
///    insert leaves the store as it was;
///  - per-concept extents in insertion order, addressable by ordinal
///    (semi-naive delta ranges are [begin, end) ordinal windows);
///  - ViewByOid returns the FIRST-inserted fact with the OID (base
///    facts load before derived ones, so base data wins); ProbeOid
///    answers the concept-scoped lookup;
///  - Probe streams the per-concept ordinals of facts whose attribute
///    equals the value (or is a set containing it; sets are indexed
///    element-wise to mirror the matcher's convention). Candidates may
///    include 64-bit-key collision false positives; callers re-verify
///    via the matcher. A value absent from the dictionaries yields an
///    empty cursor — exactly the old "no hash bucket" empty join.
///
/// Boundary APIs that hand out `const Fact*` (FactsOf, FactAt,
/// FactById) materialize lazily into a mutex-guarded cache, whose one
/// production caller is Evaluator::FactsOf; every evaluation path reads
/// FactView/PostingsCursor and never materializes. Materialized
/// pointers stay valid for the store's lifetime (until Clear()).
///
/// Layering (DESIGN.md 4h): a store may be an *overlay* on an
/// immutable, shared base segment (AttachSegment) — a federated
/// evaluator's seeds and derived facts over the encoded agent extents.
/// The overlay continues the segment's FactIds, per-concept ordinals
/// and concept ids, so every read above sees one universe: segment
/// facts come first (they were inserted first), an insert identical to
/// a segment fact is a duplicate, and Probe streams the segment's
/// postings and then the overlay's. Each layer keeps its values in its
/// own dictionaries; a view of a segment fact reads the segment.
class FactStore {
 public:
  FactStore() = default;

  /// Empties the store and layers it over `segment`, which must be a
  /// single-layer store that nobody mutates while it is shared.
  void AttachSegment(std::shared_ptr<const FactStore> segment);
  /// The base segment this store overlays (null for a single layer).
  const std::shared_ptr<const FactStore>& segment() const { return segment_; }

  /// Returns the id of `name`, interning it if new.
  ConceptId InternConcept(const std::string& name);
  /// Returns the id of `name`, or kNoConcept if it was never interned.
  ConceptId FindConcept(const std::string& name) const;
  const std::string& ConceptName(ConceptId id) const;
  /// The symbol id of `name` in this layer's pool, or kNoId when no
  /// fact of this layer can carry it (FactView::FindSymbol).
  std::uint32_t FindSymbol(std::string_view name) const {
    return symbols_.Find(name);
  }
  size_t concept_count() const { return concept_symbols_.size(); }

  /// Inserts `fact` unless an identical fact (concept, oid, attrs) is
  /// already stored. Returns the new FactId, or kNoFact on duplicate; a
  /// duplicate leaves the store unchanged.
  FactId Insert(Fact fact);

  /// Like Insert, but on a duplicate returns the *existing* FactId
  /// instead of kNoFact. `was_new` (optional) reports whether a record
  /// was appended. The incremental evaluator uses this to revive facts
  /// that were logically deleted: the store stays append-only, identity
  /// is stable, and liveness lives in side columns keyed by FactId.
  FactId InsertOrFind(Fact fact, bool* was_new = nullptr);

  /// Lookup-only de-duplication probe: the FactId of the stored fact
  /// identical to `fact` (concept, oid, attrs), or kNoFact. Never
  /// interns — a fact mentioning any never-stored symbol or value
  /// cannot be stored, so the miss is exact.
  FactId FindExisting(const Fact& fact) const;

  /// Appends the FactIds (ascending) of every stored fact carrying
  /// exactly `oid`, across all concepts — the enumeration behind
  /// liveness-aware OID resolution. Exact, like ProbeOid.
  void FactIdsWithOid(const Oid& oid, std::vector<FactId>* out) const;

  /// Facts in the whole universe (segment and overlay).
  size_t size() const { return fact_base_ + records_.size(); }

  /// The extent of a concept in insertion order. Materializes every
  /// fact of the concept — a boundary API, not a join path.
  std::vector<const Fact*> FactsOf(ConceptId id) const;
  std::vector<const Fact*> FactsOf(const std::string& name) const;
  size_t CountOf(ConceptId id) const;

  /// The fact at per-concept insertion ordinal `ordinal` (materializing).
  const Fact* FactAt(ConceptId id, std::uint32_t ordinal) const;
  /// The fact with global insertion index `id` (materializing).
  const Fact* FactById(FactId id) const;

  /// Packed access for the join paths (no materialization).
  FactId IdAt(ConceptId id, std::uint32_t ordinal) const {
    const Extent& extent = by_concept_[id];
    return ordinal < extent.base ? segment_->IdAt(id, ordinal)
                                 : extent.ids[ordinal - extent.base];
  }
  FactView ViewAt(ConceptId id, std::uint32_t ordinal) const {
    return ViewById(IdAt(id, ordinal));
  }
  FactView ViewById(FactId id) const {
    return id < fact_base_ ? FactView(segment_.get(), id)
                           : FactView(this, id - fact_base_);
  }
  ConceptId ConceptOf(FactId id) const {
    return id < fact_base_ ? segment_->ConceptOf(id)
                           : RecordOf(id).concept_id;
  }
  std::uint32_t OrdinalOf(FactId id) const {
    return id < fact_base_ ? segment_->OrdinalOf(id) : RecordOf(id).ordinal;
  }

  /// The first-inserted fact with `oid` (see class comment), segment
  /// first; invalid if absent. The matcher's OID resolver.
  FactView ViewByOid(const Oid& oid) const;

  /// Streaming per-concept ordinals (non-decreasing) of facts whose
  /// attribute `attr` equals `value` (or is a set containing it). The
  /// cursor is a snapshot — see PostingsCursor for the lifetime
  /// contract (this replaces the old raw `const vector<uint32_t>*`,
  /// which concurrent-round inserts could invalidate).
  PostingsCursor Probe(ConceptId concept_id, const std::string& attr,
                       const Value& value) const;

  /// Appends the per-concept ordinals (ascending) of `concept_id`
  /// facts carrying exactly `oid`. Exact — the OID index is keyed by
  /// dictionary id, so unlike the old hash index it admits no
  /// collision false positives.
  void ProbeOid(ConceptId concept_id, const Oid& oid,
                std::vector<std::uint32_t>* out) const;

  /// True iff the stored fact has `fact`'s concept name and exactly its
  /// attribute map — FindExisting's verification, evaluated against the
  /// packed run without interning or materializing.
  bool EquivalentAttrs(FactId id, const Fact& fact) const;

  void Clear();

  /// Byte accounting of every columnar structure (capacity-based; the
  /// bytes/fact numerator reported by bench_storage and the regression
  /// budget guard). Counts only what this store owns: an overlay's
  /// shared segment is not counted again.
  struct MemoryBreakdown {
    size_t record_bytes = 0;      // fact records + per-concept extents
    size_t attr_bytes = 0;        // packed attribute runs
    size_t symbol_bytes = 0;      // symbol pool
    size_t value_pool_bytes = 0;  // real/int/date pools, set runs, oids
    size_t attr_index_bytes = 0;  // by_attr postings
    size_t oid_index_bytes = 0;   // by_oid postings
    size_t dedup_bytes = 0;       // dedup postings
    size_t materialized_bytes = 0;  // lazy boundary cache (not packed)

    /// The columnar footprint (what the ≥5x target measures).
    size_t packed_total() const {
      return record_bytes + attr_bytes + symbol_bytes + value_pool_bytes +
             attr_index_bytes + oid_index_bytes + dedup_bytes;
    }
    size_t total() const { return packed_total() + materialized_bytes; }
  };
  MemoryBreakdown memory() const;

  /// Collision-test knob: truncates the de-duplication digests, the
  /// by_attr keys and the OID-dictionary probing hashes to the low
  /// `bits` bits, forcing distinct (concept, attr, value) triples and
  /// distinct OIDs to collide so tests can assert the exact-verification
  /// paths never produce false positives. 64 restores exactness.
  void set_digest_bits_for_testing(int bits) {
    digest_mask_ = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  }

 private:
  friend class ValueHandle;
  friend class FactView;
  friend bool HandlesEqual(const ValueHandle& a, const ValueHandle& b);

  struct PackedOid {
    std::uint32_t agent;
    std::uint32_t dbms;
    std::uint32_t database;
    std::uint32_t relation;
    std::uint64_t number;
  };

  struct FactRecord {
    ConceptId concept_id;
    std::uint32_t ordinal;     // within the concept's extent
    std::uint32_t oid_id;      // kNoId when the fact has no OID
    std::uint32_t attr_begin;  // into attr_names_/attr_values_
    std::uint32_t attr_count;
  };

  /// One concept's extent: ordinals below `base` are the segment's,
  /// `ids` holds this layer's (global FactIds, insertion order).
  struct Extent {
    std::uint32_t base = 0;
    std::vector<FactId> ids;
  };

  static constexpr std::uint64_t kPayloadMask = (1ull << 60) - 1;
  static PackedValue Pack(PackedTag tag, std::uint64_t payload) {
    return (static_cast<std::uint64_t>(tag) << 60) | (payload & kPayloadMask);
  }
  static PackedTag TagOf(PackedValue v) {
    return static_cast<PackedTag>(v >> 60);
  }
  static std::uint64_t PayloadOf(PackedValue v) { return v & kPayloadMask; }

  std::uint32_t InternOid(const Oid& oid);
  /// kNoId unless every component of `oid` is already interned.
  std::uint32_t FindOid(const Oid& oid) const;
  Oid MaterializeOid(std::uint32_t oid_id) const;

  PackedValue EncodeValue(const Value& value);
  Value DecodeValue(PackedValue v) const;
  std::int64_t DecodeInt(PackedValue v) const;
  Date DecodeDate(PackedValue v) const;

  bool PackedEqualsPacked(PackedValue a, PackedValue b) const;

  /// Identity digest of a packed value: exact on dictionary ids,
  /// bit-pattern on reals (preserving the reference store's property
  /// that -0.0 and 0.0 never share a de-duplication bucket).
  std::uint64_t ValueDigest(PackedValue v) const;
  /// The digest EncodeValue+ValueDigest would produce for `value`, using
  /// lookup-only dictionary access: false when the value (or any
  /// dictionary-encoded part of it) was never stored — the probe-miss
  /// empty join.
  bool TryLookupDigest(const Value& value, std::uint64_t* out) const;
  std::uint64_t AttrIndexKey(ConceptId concept_id, std::uint32_t attr_id,
                             std::uint64_t value_digest) const;

  /// The record of this layer's fact `id` (a global FactId).
  const FactRecord& RecordOf(FactId id) const {
    return records_[id - fact_base_];
  }
  /// `local` indexes records_.
  Fact BuildFact(std::uint32_t local) const;
  /// `id` is a global FactId; segment facts materialize in the segment.
  const Fact* Materialize(FactId id) const;

  // --- dictionaries ---
  SymbolPool symbols_;
  std::vector<std::uint32_t> concept_symbols_;  // ConceptId -> symbol
  IdTable concept_table_;
  std::vector<PackedOid> oids_;
  IdTable oid_table_;
  std::vector<double> reals_;
  IdTable real_table_;
  std::vector<std::int64_t> boxed_ints_;
  IdTable int_table_;
  std::vector<Date> boxed_dates_;
  IdTable date_table_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> set_runs_;
  std::vector<PackedValue> set_elements_;

  // --- facts ---
  // records_[i] is FactId fact_base_ + i; FactView addresses it as i.
  std::vector<FactRecord> records_;
  std::vector<std::uint32_t> attr_names_;   // symbol ids, run-sorted by name
  std::vector<PackedValue> attr_values_;    // parallel to attr_names_
  std::vector<Extent> by_concept_;

  // --- layering ---
  std::shared_ptr<const FactStore> segment_;
  FactId fact_base_ = 0;  // segment_->size(), 0 without a segment

  // --- indexes ---
  PostingsIndex by_attr_;  // AttrIndexKey -> per-concept ordinals
  PostingsIndex by_oid_;   // oid id -> fact ids (insertion order)
  PostingsIndex dedup_;    // canonical digest -> fact ids

  std::uint64_t digest_mask_ = ~0ull;

  // Scratch for Insert (encode-then-compare); member to avoid per-call
  // allocation.
  std::vector<std::pair<std::uint32_t, PackedValue>> scratch_attrs_;

  // --- lazy boundary materialization ---
  mutable std::vector<std::unique_ptr<Fact>> cache_;
  /// Guards cache_ against concurrent boundary reads (e.g. overlapping
  /// FsmClient::Extent calls). Heap-allocated so the store stays
  /// movable.
  mutable std::unique_ptr<std::mutex> cache_mu_ =
      std::make_unique<std::mutex>();
};

}  // namespace ooint

#endif  // OOINT_RULES_FACT_STORE_H_
