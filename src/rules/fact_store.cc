#include "rules/fact_store.h"

#include <cstring>

namespace ooint {

namespace {

std::uint64_t RealBits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Strong 64-bit combine for the store's INTERNAL digests and index
/// keys. The legacy HashCombine below is preserved byte-identically for
/// observable-hash parity, but it degenerates on small operands: FNV
/// over an 8-byte little-endian value whose top 7 bytes are zero mixes
/// only `seed ^ low_byte`, so HashCombine(3, 8) == HashCombine(4, 15).
/// That is fatal for keys built from small dense ids (concept ids,
/// attribute symbol ids): cross-key postings lists would merge and
/// Probe would emit ordinals of a *different* concept, past the probed
/// extent. Internal keys are never observable, so they get a full
/// splitmix64 avalanche per combine instead.
std::uint64_t MixCombine(std::uint64_t seed, std::uint64_t v) {
  return SplitMix64(seed ^ (SplitMix64(v) + 0x9e3779b97f4a7c15ull +
                            (seed << 6) + (seed >> 2)));
}

// Inline-int range: 60-bit two's complement.
constexpr std::int64_t kIntInlineMin = -(1ll << 59);
constexpr std::int64_t kIntInlineMax = (1ll << 59) - 1;
// Inline-date range: 24-bit biased year, 8-bit month and day.
constexpr int kYearBias = 1 << 23;

bool DateFitsInline(const Date& d) {
  return d.year >= -kYearBias && d.year < kYearBias && d.month >= 0 &&
         d.month <= 255 && d.day >= 0 && d.day <= 255;
}

/// Deep footprint of one materialized Fact (boundary-cache accounting;
/// mirrors ReferenceFactStore's estimate).
size_t MaterializedValueBytes(const Value& value) {
  size_t bytes = sizeof(Value);
  switch (value.kind()) {
    case ValueKind::kString:
      if (value.AsString().capacity() > sizeof(std::string)) {
        bytes += value.AsString().capacity();
      }
      break;
    case ValueKind::kOid: {
      const Oid& oid = value.AsOid();
      for (const std::string* s : {&oid.agent(), &oid.dbms(), &oid.database(),
                                   &oid.relation()}) {
        if (s->capacity() > sizeof(std::string)) bytes += s->capacity();
      }
      break;
    }
    case ValueKind::kSet:
      for (const Value& e : value.AsSet()) bytes += MaterializedValueBytes(e);
      break;
    default:
      break;
  }
  return bytes;
}

constexpr size_t kMapNodeOverhead = 48;

size_t MaterializedFactBytes(const Fact& fact) {
  size_t bytes = sizeof(Fact);
  if (fact.concept_name.capacity() > sizeof(std::string)) {
    bytes += fact.concept_name.capacity();
  }
  for (const std::string* s :
       {&fact.oid.agent(), &fact.oid.dbms(), &fact.oid.database(),
        &fact.oid.relation()}) {
    if (s->capacity() > sizeof(std::string)) bytes += s->capacity();
  }
  for (const auto& [name, value] : fact.attrs) {
    bytes += kMapNodeOverhead + sizeof(std::string);
    if (name.capacity() > sizeof(std::string)) bytes += name.capacity();
    bytes += MaterializedValueBytes(value);
  }
  return bytes;
}

}  // namespace

std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t v) {
  return Fnv1a(seed ^ kFnvOffset, &v, sizeof(v));
}

namespace {

/// HashOid's recipe, over an OID's components wherever they live.
std::uint64_t HashOidView(const OidView& oid) {
  std::uint64_t h = HashString(oid.agent);
  h = HashCombine(h, HashString(oid.dbms));
  h = HashCombine(h, HashString(oid.database));
  h = HashCombine(h, HashString(oid.relation));
  return HashCombine(h, oid.number);
}

}  // namespace

std::uint64_t HashOid(const Oid& oid) {
  return HashOidView({oid.agent(), oid.dbms(), oid.database(), oid.relation(),
                      oid.number()});
}

std::uint64_t HashValue(const Value& value) {
  return HashHandle(ValueHandle(&value));
}

std::uint64_t HashFactAttrs(const Fact& fact) {
  std::uint64_t h = HashString(fact.concept_name);
  for (const auto& [name, value] : fact.attrs) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, HashValue(value));
  }
  return h;
}

std::uint64_t HashFactCanonical(const Fact& fact) {
  return HashCombine(HashFactAttrs(fact), HashOid(fact.oid));
}

// --- ValueHandle -----------------------------------------------------------

namespace {
ValueKind KindOfTag(PackedTag tag) {
  switch (tag) {
    case PackedTag::kNull:
      return ValueKind::kNull;
    case PackedTag::kBool:
      return ValueKind::kBoolean;
    case PackedTag::kChar:
      return ValueKind::kCharacter;
    case PackedTag::kIntInline:
    case PackedTag::kIntBoxed:
      return ValueKind::kInteger;
    case PackedTag::kReal:
      return ValueKind::kReal;
    case PackedTag::kString:
      return ValueKind::kString;
    case PackedTag::kDateInline:
    case PackedTag::kDateBoxed:
      return ValueKind::kDate;
    case PackedTag::kOid:
      return ValueKind::kOid;
    case PackedTag::kSet:
      return ValueKind::kSet;
  }
  return ValueKind::kNull;
}
}  // namespace

ValueKind ValueHandle::kind() const {
  return value_ != nullptr ? value_->kind()
                           : KindOfTag(FactStore::TagOf(packed_));
}

size_t ValueHandle::set_size() const {
  if (value_ != nullptr) return value_->AsSet().size();
  return store_->set_runs_[FactStore::PayloadOf(packed_)].second;
}

ValueHandle ValueHandle::set_element(size_t i) const {
  if (value_ != nullptr) return ValueHandle(&value_->AsSet()[i]);
  const auto& run = store_->set_runs_[FactStore::PayloadOf(packed_)];
  return ValueHandle(store_, store_->set_elements_[run.first + i]);
}

bool ValueHandle::AsBoolean() const {
  if (value_ != nullptr) return value_->AsBoolean();
  return FactStore::PayloadOf(packed_) != 0;
}

std::int64_t ValueHandle::AsInteger() const {
  if (value_ != nullptr) return value_->AsInteger();
  return store_->DecodeInt(packed_);
}

double ValueHandle::AsReal() const {
  if (value_ != nullptr) return value_->AsReal();
  return store_->reals_[FactStore::PayloadOf(packed_)];
}

char ValueHandle::AsCharacter() const {
  if (value_ != nullptr) return value_->AsCharacter();
  return static_cast<char>(
      static_cast<unsigned char>(FactStore::PayloadOf(packed_)));
}

std::string_view ValueHandle::AsString() const {
  if (value_ != nullptr) return value_->AsString();
  return store_->symbols_.view(
      static_cast<std::uint32_t>(FactStore::PayloadOf(packed_)));
}

Date ValueHandle::AsDate() const {
  if (value_ != nullptr) return value_->AsDate();
  return store_->DecodeDate(packed_);
}

OidView ValueHandle::AsOid() const {
  if (value_ != nullptr) {
    const Oid& oid = value_->AsOid();
    return {oid.agent(), oid.dbms(), oid.database(), oid.relation(),
            oid.number()};
  }
  const FactStore::PackedOid& p = store_->oids_[FactStore::PayloadOf(packed_)];
  const SymbolPool& symbols = store_->symbols_;
  return {symbols.view(p.agent), symbols.view(p.dbms),
          symbols.view(p.database), symbols.view(p.relation), p.number};
}

bool ValueHandle::Equals(const Value& other) const {
  return HandlesEqual(*this, ValueHandle(&other));
}

Value ValueHandle::Materialize() const {
  if (value_ != nullptr) return *value_;
  return store_->DecodeValue(packed_);
}

Oid ValueHandle::MaterializeOid() const {
  if (value_ != nullptr) return value_->AsOid();
  return store_->MaterializeOid(
      static_cast<std::uint32_t>(FactStore::PayloadOf(packed_)));
}

namespace {

bool OidViewsEqual(const OidView& a, const OidView& b) {
  return a.number == b.number && a.relation == b.relation &&
         a.database == b.database && a.dbms == b.dbms && a.agent == b.agent;
}

}  // namespace

bool HandlesEqual(const ValueHandle& a, const ValueHandle& b) {
  // Within one layer the dictionaries make ids exact; ids of two layers
  // (a segment and its overlay) are unrelated, so those compare content.
  if (a.store_ != nullptr && a.store_ == b.store_) {
    return a.store_->PackedEqualsPacked(a.packed_, b.packed_);
  }
  if (a.value_ != nullptr && b.value_ != nullptr) return *a.value_ == *b.value_;
  const ValueKind kind = a.kind();
  if (kind != b.kind()) return false;
  switch (kind) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBoolean:
      return a.AsBoolean() == b.AsBoolean();
    case ValueKind::kInteger:
      return a.AsInteger() == b.AsInteger();
    case ValueKind::kReal:
      return a.AsReal() == b.AsReal();  // IEEE, as Value::operator==
    case ValueKind::kCharacter:
      return a.AsCharacter() == b.AsCharacter();
    case ValueKind::kString:
      return a.AsString() == b.AsString();
    case ValueKind::kDate:
      return a.AsDate() == b.AsDate();
    case ValueKind::kOid:
      return OidViewsEqual(a.AsOid(), b.AsOid());
    case ValueKind::kSet: {
      const size_t n = a.set_size();
      if (n != b.set_size()) return false;
      for (size_t i = 0; i < n; ++i) {
        if (!HandlesEqual(a.set_element(i), b.set_element(i))) return false;
      }
      return true;
    }
  }
  return false;
}

bool HandleLess(const ValueHandle& a, const ValueHandle& b) {
  // Value::operator< is std::variant's: kind first, then the payloads'
  // own operator< (IEEE for reals, bytewise for strings, component-wise
  // for OIDs, lexicographic for sets). Symbol ids carry no order.
  const ValueKind kind = a.kind();
  const ValueKind other = b.kind();
  if (kind != other) return kind < other;
  switch (kind) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kBoolean:
      return a.AsBoolean() < b.AsBoolean();
    case ValueKind::kInteger:
      return a.AsInteger() < b.AsInteger();
    case ValueKind::kReal:
      return a.AsReal() < b.AsReal();
    case ValueKind::kCharacter:
      return a.AsCharacter() < b.AsCharacter();
    case ValueKind::kString:
      return a.AsString() < b.AsString();
    case ValueKind::kDate:
      return a.AsDate() < b.AsDate();
    case ValueKind::kOid: {
      const OidView x = a.AsOid();
      const OidView y = b.AsOid();
      if (x.agent != y.agent) return x.agent < y.agent;
      if (x.dbms != y.dbms) return x.dbms < y.dbms;
      if (x.database != y.database) return x.database < y.database;
      if (x.relation != y.relation) return x.relation < y.relation;
      return x.number < y.number;
    }
    case ValueKind::kSet: {
      const size_t n = a.set_size();
      const size_t m = b.set_size();
      for (size_t i = 0; i < n && i < m; ++i) {
        const ValueHandle x = a.set_element(i);
        const ValueHandle y = b.set_element(i);
        if (HandleLess(x, y)) return true;
        if (HandleLess(y, x)) return false;
      }
      return n < m;
    }
  }
  return false;
}

std::uint64_t HashHandle(const ValueHandle& v) {
  // HashValue's recipe (observable: skolem OIDs hash through it), over
  // in-place reads.
  std::uint64_t h = static_cast<std::uint64_t>(v.kind()) + 1;
  switch (v.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBoolean:
      h = HashCombine(h, v.AsBoolean() ? 1 : 0);
      break;
    case ValueKind::kInteger:
      h = HashCombine(h, static_cast<std::uint64_t>(v.AsInteger()));
      break;
    case ValueKind::kReal:
      h = HashCombine(h, RealBits(v.AsReal()));
      break;
    case ValueKind::kCharacter:
      h = HashCombine(h, static_cast<std::uint64_t>(v.AsCharacter()));
      break;
    case ValueKind::kString:
      h = HashCombine(h, HashString(v.AsString()));
      break;
    case ValueKind::kDate: {
      const Date d = v.AsDate();
      h = HashCombine(h, static_cast<std::uint64_t>(d.year) * 10000 +
                             static_cast<std::uint64_t>(d.month) * 100 +
                             static_cast<std::uint64_t>(d.day));
      break;
    }
    case ValueKind::kOid:
      h = HashCombine(h, HashOidView(v.AsOid()));
      break;
    case ValueKind::kSet:
      for (size_t i = 0; i < v.set_size(); ++i) {
        h = HashCombine(h, HashHandle(v.set_element(i)));
      }
      break;
  }
  return h;
}

// --- FactView --------------------------------------------------------------

FactId FactView::id() const { return store_->fact_base_ + local_; }

bool FactView::oid_empty() const {
  return store_->records_[local_].oid_id == kNoId;
}

size_t FactView::attr_count() const {
  return store_->records_[local_].attr_count;
}

std::string_view FactView::attr_name(size_t i) const {
  const auto& rec = store_->records_[local_];
  return store_->symbols_.view(store_->attr_names_[rec.attr_begin + i]);
}

ValueHandle FactView::attr_value(size_t i) const {
  const auto& rec = store_->records_[local_];
  return ValueHandle(store_, store_->attr_values_[rec.attr_begin + i]);
}

ValueHandle FactView::Find(std::string_view name) const {
  return FindSymbol(store_->symbols_.Find(name));
}

namespace {
const Value kEmptyOidValue = Value::OfOid(Oid());
}  // namespace

ValueHandle FactView::oid_handle() const {
  const std::uint32_t oid_id = store_->records_[local_].oid_id;
  if (oid_id == kNoId) return ValueHandle(&kEmptyOidValue);
  return ValueHandle(store_, FactStore::Pack(PackedTag::kOid, oid_id));
}

ValueHandle FactView::attr_name_handle(size_t i) const {
  const auto& rec = store_->records_[local_];
  return ValueHandle(store_, FactStore::Pack(PackedTag::kString,
                                             store_->attr_names_[rec.attr_begin + i]));
}

ValueHandle FactView::FindSymbol(std::uint32_t symbol) const {
  if (symbol == kNoId) return ValueHandle();
  const auto& rec = store_->records_[local_];
  for (std::uint32_t i = 0; i < rec.attr_count; ++i) {
    if (store_->attr_names_[rec.attr_begin + i] == symbol) {
      return ValueHandle(store_, store_->attr_values_[rec.attr_begin + i]);
    }
  }
  return ValueHandle();
}

// --- FactStore -------------------------------------------------------------

void FactStore::AttachSegment(std::shared_ptr<const FactStore> segment) {
  Clear();
  segment_ = std::move(segment);
  fact_base_ = static_cast<FactId>(segment_->size());
  // Mirror the segment's concepts in id order, so concept ids line up
  // and each extent's ordinals continue the segment's.
  for (ConceptId c = 0; c < segment_->concept_count(); ++c) {
    by_concept_[InternConcept(segment_->ConceptName(c))].base =
        static_cast<std::uint32_t>(segment_->CountOf(c));
  }
}

ConceptId FactStore::InternConcept(const std::string& name) {
  return concept_table_.FindOrInsert(
      HashString(name),
      [&](std::uint32_t id) {
        return symbols_.view(concept_symbols_[id]) == name;
      },
      [&] {
        concept_symbols_.push_back(symbols_.Intern(name));
        by_concept_.emplace_back();
        return static_cast<std::uint32_t>(concept_symbols_.size() - 1);
      });
}

ConceptId FactStore::FindConcept(const std::string& name) const {
  return concept_table_.Find(HashString(name), [&](std::uint32_t id) {
    return symbols_.view(concept_symbols_[id]) == name;
  });
}

const std::string& FactStore::ConceptName(ConceptId id) const {
  return symbols_.at(concept_symbols_[id]);
}

std::uint32_t FactStore::InternOid(const Oid& oid) {
  const std::uint32_t agent = symbols_.Intern(oid.agent());
  const std::uint32_t dbms = symbols_.Intern(oid.dbms());
  const std::uint32_t database = symbols_.Intern(oid.database());
  const std::uint32_t relation = symbols_.Intern(oid.relation());
  std::uint64_t h = MixCombine(agent, dbms);
  h = MixCombine(h, database);
  h = MixCombine(h, relation);
  h = MixCombine(h, oid.number()) & digest_mask_;
  return oid_table_.FindOrInsert(
      h,
      [&](std::uint32_t id) {
        const PackedOid& p = oids_[id];
        return p.agent == agent && p.dbms == dbms && p.database == database &&
               p.relation == relation && p.number == oid.number();
      },
      [&] {
        oids_.push_back({agent, dbms, database, relation, oid.number()});
        return static_cast<std::uint32_t>(oids_.size() - 1);
      });
}

std::uint32_t FactStore::FindOid(const Oid& oid) const {
  const std::uint32_t agent = symbols_.Find(oid.agent());
  const std::uint32_t dbms = symbols_.Find(oid.dbms());
  const std::uint32_t database = symbols_.Find(oid.database());
  const std::uint32_t relation = symbols_.Find(oid.relation());
  if (agent == kNoId || dbms == kNoId || database == kNoId ||
      relation == kNoId) {
    return kNoId;
  }
  std::uint64_t h = MixCombine(agent, dbms);
  h = MixCombine(h, database);
  h = MixCombine(h, relation);
  h = MixCombine(h, oid.number()) & digest_mask_;
  return oid_table_.Find(h, [&](std::uint32_t id) {
    const PackedOid& p = oids_[id];
    return p.agent == agent && p.dbms == dbms && p.database == database &&
           p.relation == relation && p.number == oid.number();
  });
}

Oid FactStore::MaterializeOid(std::uint32_t oid_id) const {
  const PackedOid& p = oids_[oid_id];
  return Oid(symbols_.at(p.agent), symbols_.at(p.dbms),
             symbols_.at(p.database), symbols_.at(p.relation), p.number);
}

PackedValue FactStore::EncodeValue(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kNull:
      return Pack(PackedTag::kNull, 0);
    case ValueKind::kBoolean:
      return Pack(PackedTag::kBool, value.AsBoolean() ? 1 : 0);
    case ValueKind::kCharacter:
      return Pack(PackedTag::kChar,
                  static_cast<unsigned char>(value.AsCharacter()));
    case ValueKind::kInteger: {
      const std::int64_t v = value.AsInteger();
      if (v >= kIntInlineMin && v <= kIntInlineMax) {
        return Pack(PackedTag::kIntInline, static_cast<std::uint64_t>(v));
      }
      const std::uint32_t id = int_table_.FindOrInsert(
          static_cast<std::uint64_t>(v),
          [&](std::uint32_t i) { return boxed_ints_[i] == v; },
          [&] {
            boxed_ints_.push_back(v);
            return static_cast<std::uint32_t>(boxed_ints_.size() - 1);
          });
      return Pack(PackedTag::kIntBoxed, id);
    }
    case ValueKind::kReal: {
      // Pooled by BIT PATTERN: -0.0 and 0.0 get distinct ids (their
      // digests must stay distinct — the reference store's behavior),
      // and every NaN payload its own id.
      const std::uint64_t bits = RealBits(value.AsReal());
      const std::uint32_t id = real_table_.FindOrInsert(
          bits, [&](std::uint32_t i) { return RealBits(reals_[i]) == bits; },
          [&] {
            reals_.push_back(value.AsReal());
            return static_cast<std::uint32_t>(reals_.size() - 1);
          });
      return Pack(PackedTag::kReal, id);
    }
    case ValueKind::kString:
      return Pack(PackedTag::kString, symbols_.Intern(value.AsString()));
    case ValueKind::kDate: {
      const Date& d = value.AsDate();
      if (DateFitsInline(d)) {
        const std::uint64_t payload =
            (static_cast<std::uint64_t>(d.year + kYearBias) << 16) |
            (static_cast<std::uint64_t>(d.month) << 8) |
            static_cast<std::uint64_t>(d.day);
        return Pack(PackedTag::kDateInline, payload);
      }
      std::uint64_t h = MixCombine(static_cast<std::uint64_t>(d.year),
                                   static_cast<std::uint64_t>(d.month));
      h = MixCombine(h, static_cast<std::uint64_t>(d.day));
      const std::uint32_t id = date_table_.FindOrInsert(
          h, [&](std::uint32_t i) { return boxed_dates_[i] == d; },
          [&] {
            boxed_dates_.push_back(d);
            return static_cast<std::uint32_t>(boxed_dates_.size() - 1);
          });
      return Pack(PackedTag::kDateBoxed, id);
    }
    case ValueKind::kOid:
      return Pack(PackedTag::kOid, InternOid(value.AsOid()));
    case ValueKind::kSet: {
      // Encode the elements first (recursion may append other runs),
      // then lay this set down as one contiguous run in element order
      // (order is part of set identity).
      std::vector<PackedValue> elements;
      elements.reserve(value.AsSet().size());
      for (const Value& e : value.AsSet()) elements.push_back(EncodeValue(e));
      const auto begin = static_cast<std::uint32_t>(set_elements_.size());
      set_elements_.insert(set_elements_.end(), elements.begin(),
                           elements.end());
      set_runs_.emplace_back(begin,
                             static_cast<std::uint32_t>(elements.size()));
      return Pack(PackedTag::kSet, set_runs_.size() - 1);
    }
  }
  return Pack(PackedTag::kNull, 0);
}

std::int64_t FactStore::DecodeInt(PackedValue v) const {
  if (TagOf(v) == PackedTag::kIntBoxed) return boxed_ints_[PayloadOf(v)];
  std::uint64_t payload = PayloadOf(v);
  if (payload & (1ull << 59)) payload |= ~kPayloadMask;  // sign-extend
  return static_cast<std::int64_t>(payload);
}

Date FactStore::DecodeDate(PackedValue v) const {
  if (TagOf(v) == PackedTag::kDateBoxed) return boxed_dates_[PayloadOf(v)];
  const std::uint64_t payload = PayloadOf(v);
  Date d;
  d.year = static_cast<int>((payload >> 16) & 0xffffff) - kYearBias;
  d.month = static_cast<int>((payload >> 8) & 0xff);
  d.day = static_cast<int>(payload & 0xff);
  return d;
}

Value FactStore::DecodeValue(PackedValue v) const {
  switch (TagOf(v)) {
    case PackedTag::kNull:
      return Value::Null();
    case PackedTag::kBool:
      return Value::Boolean(PayloadOf(v) != 0);
    case PackedTag::kChar:
      return Value::Character(static_cast<char>(
          static_cast<unsigned char>(PayloadOf(v))));
    case PackedTag::kIntInline:
    case PackedTag::kIntBoxed:
      return Value::Integer(DecodeInt(v));
    case PackedTag::kReal:
      return Value::Real(reals_[PayloadOf(v)]);
    case PackedTag::kString:
      return Value::String(symbols_.at(PayloadOf(v)));
    case PackedTag::kDateInline:
    case PackedTag::kDateBoxed:
      return Value::OfDate(DecodeDate(v));
    case PackedTag::kOid:
      return Value::OfOid(
          MaterializeOid(static_cast<std::uint32_t>(PayloadOf(v))));
    case PackedTag::kSet: {
      const auto& run = set_runs_[PayloadOf(v)];
      std::vector<Value> elements;
      elements.reserve(run.second);
      for (std::uint32_t i = 0; i < run.second; ++i) {
        elements.push_back(DecodeValue(set_elements_[run.first + i]));
      }
      return Value::Set(std::move(elements));
    }
  }
  return Value::Null();
}

bool FactStore::PackedEqualsPacked(PackedValue a, PackedValue b) const {
  const PackedTag ta = TagOf(a);
  const PackedTag tb = TagOf(b);
  if (KindOfTag(ta) != KindOfTag(tb)) return false;
  switch (ta) {
    case PackedTag::kNull:
      return true;
    case PackedTag::kBool:
    case PackedTag::kChar:
      return PayloadOf(a) == PayloadOf(b);
    case PackedTag::kIntInline:
    case PackedTag::kIntBoxed:
      return DecodeInt(a) == DecodeInt(b);
    case PackedTag::kReal:
      // IEEE ==, not id ==: -0.0 and 0.0 are distinct pool entries but
      // equal values; NaN is never equal (so NaN facts never
      // de-duplicate — the reference store's behavior).
      return reals_[PayloadOf(a)] == reals_[PayloadOf(b)];
    case PackedTag::kString:
    case PackedTag::kOid:
      return PayloadOf(a) == PayloadOf(b);  // dictionary ids are exact
    case PackedTag::kDateInline:
    case PackedTag::kDateBoxed:
      return DecodeDate(a) == DecodeDate(b);
    case PackedTag::kSet: {
      const auto& ra = set_runs_[PayloadOf(a)];
      const auto& rb = set_runs_[PayloadOf(b)];
      if (ra.second != rb.second) return false;
      for (std::uint32_t i = 0; i < ra.second; ++i) {
        if (!PackedEqualsPacked(set_elements_[ra.first + i],
                                set_elements_[rb.first + i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::uint64_t FactStore::ValueDigest(PackedValue v) const {
  std::uint64_t h = static_cast<std::uint64_t>(KindOfTag(TagOf(v))) + 1;
  switch (TagOf(v)) {
    case PackedTag::kNull:
      break;
    case PackedTag::kBool:
    case PackedTag::kChar:
      h = MixCombine(h, PayloadOf(v));
      break;
    case PackedTag::kIntInline:
    case PackedTag::kIntBoxed:
      h = MixCombine(h, static_cast<std::uint64_t>(DecodeInt(v)));
      break;
    case PackedTag::kReal:
      // Bit pattern, not value: keeps the -0.0 / 0.0 digest split.
      h = MixCombine(h, RealBits(reals_[PayloadOf(v)]));
      break;
    case PackedTag::kString:
    case PackedTag::kOid:
      h = MixCombine(h, PayloadOf(v));
      break;
    case PackedTag::kDateInline:
    case PackedTag::kDateBoxed: {
      const Date d = DecodeDate(v);
      h = MixCombine(h, static_cast<std::uint64_t>(d.year) * 10000 +
                            static_cast<std::uint64_t>(d.month) * 100 +
                            static_cast<std::uint64_t>(d.day));
      break;
    }
    case PackedTag::kSet: {
      const auto& run = set_runs_[PayloadOf(v)];
      for (std::uint32_t i = 0; i < run.second; ++i) {
        h = MixCombine(h, ValueDigest(set_elements_[run.first + i]));
      }
      break;
    }
  }
  return h;
}

bool FactStore::TryLookupDigest(const Value& value, std::uint64_t* out) const {
  std::uint64_t h = static_cast<std::uint64_t>(value.kind()) + 1;
  switch (value.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBoolean:
      h = MixCombine(h, value.AsBoolean() ? 1 : 0);
      break;
    case ValueKind::kCharacter:
      h = MixCombine(h,
                     static_cast<unsigned char>(value.AsCharacter()));
      break;
    case ValueKind::kInteger:
      h = MixCombine(h, static_cast<std::uint64_t>(value.AsInteger()));
      break;
    case ValueKind::kReal:
      h = MixCombine(h, RealBits(value.AsReal()));
      break;
    case ValueKind::kString: {
      const std::uint32_t id = symbols_.Find(value.AsString());
      if (id == kNoId) return false;  // never stored -> empty join
      h = MixCombine(h, id);
      break;
    }
    case ValueKind::kDate: {
      const Date& d = value.AsDate();
      h = MixCombine(h, static_cast<std::uint64_t>(d.year) * 10000 +
                            static_cast<std::uint64_t>(d.month) * 100 +
                            static_cast<std::uint64_t>(d.day));
      break;
    }
    case ValueKind::kOid: {
      const std::uint32_t id = FindOid(value.AsOid());
      if (id == kNoId) return false;
      h = MixCombine(h, id);
      break;
    }
    case ValueKind::kSet:
      for (const Value& e : value.AsSet()) {
        std::uint64_t eh = 0;
        if (!TryLookupDigest(e, &eh)) return false;
        h = MixCombine(h, eh);
      }
      break;
  }
  *out = h;
  return true;
}

std::uint64_t FactStore::AttrIndexKey(ConceptId concept_id,
                                      std::uint32_t attr_id,
                                      std::uint64_t value_digest) const {
  // Only the VALUE digest is masked by the collision-test knob: forced
  // collisions then stay within one (concept, attribute) pair, so a
  // colliding probe still yields valid ordinals of the probed concept
  // (false positives among values, which callers re-verify) and never
  // ordinals of a foreign extent.
  std::uint64_t key = MixCombine(concept_id, attr_id);
  return MixCombine(key, value_digest & digest_mask_);
}

FactId FactStore::Insert(Fact fact) {
  bool was_new = false;
  const FactId id = InsertOrFind(std::move(fact), &was_new);
  return was_new ? id : kNoFact;
}

FactId FactStore::FindExisting(const Fact& fact) const {
  if (segment_ != nullptr) {
    const FactId existing = segment_->FindExisting(fact);
    if (existing != kNoFact) return existing;
  }
  const ConceptId concept_id = FindConcept(fact.concept_name);
  if (concept_id == kNoConcept) return kNoFact;
  const std::uint32_t oid_id = fact.oid.empty() ? kNoId : FindOid(fact.oid);
  if (!fact.oid.empty() && oid_id == kNoId) return kNoFact;

  // The canonical digest Insert computes, via lookup-only access: a
  // miss on any component means the exact fact cannot be stored.
  std::uint64_t digest = MixCombine(0x84222325u, concept_id);
  digest = MixCombine(digest, oid_id == kNoId ? ~0ull : oid_id);
  for (const auto& [name, value] : fact.attrs) {
    const std::uint32_t attr_id = symbols_.Find(name);
    if (attr_id == kNoId) return kNoFact;
    std::uint64_t value_digest = 0;
    if (!TryLookupDigest(value, &value_digest)) return kNoFact;
    digest = MixCombine(digest, attr_id);
    digest = MixCombine(digest, value_digest);
  }
  digest &= digest_mask_;

  PostingsCursor bucket = dedup_.Find(digest);
  std::uint32_t candidate = 0;
  while (bucket.Next(&candidate)) {
    const FactRecord& rec = RecordOf(candidate);
    if (rec.concept_id != concept_id || rec.oid_id != oid_id ||
        rec.attr_count != fact.attrs.size()) {
      continue;
    }
    if (EquivalentAttrs(candidate, fact)) return candidate;
  }
  return kNoFact;
}

void FactStore::FactIdsWithOid(const Oid& oid, std::vector<FactId>* out) const {
  if (segment_ != nullptr) segment_->FactIdsWithOid(oid, out);
  const std::uint32_t oid_id = FindOid(oid);
  if (oid_id == kNoId) return;
  PostingsCursor cursor = by_oid_.Find(oid_id);
  std::uint32_t id = 0;
  while (cursor.Next(&id)) {
    // The by_oid_ key is a dictionary id: exact, but distinct ids may
    // share a postings slot on a 64-bit key collision — re-verify.
    if (RecordOf(id).oid_id == oid_id) out->push_back(id);
  }
}

FactId FactStore::InsertOrFind(Fact fact, bool* was_new) {
  if (was_new != nullptr) *was_new = false;
  if (segment_ != nullptr) {
    const FactId existing = segment_->FindExisting(fact);
    if (existing != kNoFact) return existing;  // duplicate of a base fact
  }
  const ConceptId concept_id = InternConcept(fact.concept_name);
  const std::uint32_t oid_id = fact.oid.empty() ? kNoId : InternOid(fact.oid);

  // Encoding a set appends a run even when an equal one is stored.
  const size_t set_runs = set_runs_.size();
  const size_t set_elements = set_elements_.size();
  scratch_attrs_.clear();
  for (const auto& [name, value] : fact.attrs) {
    // std::map iterates sorted by name, so the run is stored in
    // lexicographic name order — the iteration order FactView exposes.
    scratch_attrs_.emplace_back(symbols_.Intern(name), EncodeValue(value));
  }

  // Canonical digest over interned identities; bit-pattern reals keep
  // every distinction HashFactCanonical makes.
  std::uint64_t digest = MixCombine(0x84222325u, concept_id);
  digest = MixCombine(digest, oid_id == kNoId ? ~0ull : oid_id);
  for (const auto& [attr_id, packed] : scratch_attrs_) {
    digest = MixCombine(digest, attr_id);
    digest = MixCombine(digest, ValueDigest(packed));
  }
  digest &= digest_mask_;

  PostingsCursor bucket = dedup_.Find(digest);
  std::uint32_t candidate = 0;
  while (bucket.Next(&candidate)) {
    const FactRecord& rec = RecordOf(candidate);
    if (rec.concept_id != concept_id || rec.oid_id != oid_id ||
        rec.attr_count != scratch_attrs_.size()) {
      continue;
    }
    bool equal = true;
    for (std::uint32_t i = 0; i < rec.attr_count; ++i) {
      if (attr_names_[rec.attr_begin + i] != scratch_attrs_[i].first ||
          !PackedEqualsPacked(attr_values_[rec.attr_begin + i],
                              scratch_attrs_[i].second)) {
        equal = false;
        break;
      }
    }
    if (equal) {
      // A duplicate's other components were interned by the fact it
      // duplicates, so dropping the runs just appended leaves the store
      // as it was.
      set_runs_.resize(set_runs);
      set_elements_.resize(set_elements);
      return candidate;
    }
  }

  if (was_new != nullptr) *was_new = true;
  const auto id = static_cast<FactId>(size());
  const auto attr_begin = static_cast<std::uint32_t>(attr_names_.size());
  for (const auto& [attr_id, packed] : scratch_attrs_) {
    attr_names_.push_back(attr_id);
    attr_values_.push_back(packed);
  }
  Extent& extent = by_concept_[concept_id];
  const auto ordinal =
      static_cast<std::uint32_t>(extent.base + extent.ids.size());
  records_.push_back({concept_id, ordinal, oid_id, attr_begin,
                      static_cast<std::uint32_t>(scratch_attrs_.size())});
  extent.ids.push_back(id);

  dedup_.Add(digest, id);
  if (oid_id != kNoId) by_oid_.Add(oid_id, id);
  for (const auto& [attr_id, packed] : scratch_attrs_) {
    by_attr_.Add(AttrIndexKey(concept_id, attr_id, ValueDigest(packed)),
                 ordinal);
    if (TagOf(packed) == PackedTag::kSet) {
      // Sets are indexed element-wise too (the matcher's set-membership
      // convention).
      const auto& run = set_runs_[PayloadOf(packed)];
      for (std::uint32_t i = 0; i < run.second; ++i) {
        by_attr_.Add(
            AttrIndexKey(concept_id, attr_id,
                         ValueDigest(set_elements_[run.first + i])),
            ordinal);
      }
    }
  }
  return id;
}

size_t FactStore::CountOf(ConceptId id) const {
  if (id == kNoConcept || id >= by_concept_.size()) return 0;
  return by_concept_[id].base + by_concept_[id].ids.size();
}

Fact FactStore::BuildFact(std::uint32_t local) const {
  const FactRecord& rec = records_[local];
  Fact fact;
  fact.concept_name = symbols_.at(concept_symbols_[rec.concept_id]);
  if (rec.oid_id != kNoId) fact.oid = MaterializeOid(rec.oid_id);
  for (std::uint32_t i = 0; i < rec.attr_count; ++i) {
    fact.attrs.emplace_hint(fact.attrs.end(),
                            symbols_.at(attr_names_[rec.attr_begin + i]),
                            DecodeValue(attr_values_[rec.attr_begin + i]));
  }
  return fact;
}

const Fact* FactStore::Materialize(FactId id) const {
  if (id < fact_base_) return segment_->Materialize(id);
  const std::uint32_t local = id - fact_base_;
  std::lock_guard<std::mutex> lock(*cache_mu_);
  if (cache_.size() < records_.size()) cache_.resize(records_.size());
  std::unique_ptr<Fact>& slot = cache_[local];
  if (slot == nullptr) slot = std::make_unique<Fact>(BuildFact(local));
  return slot.get();
}

const Fact* FactStore::FactById(FactId id) const { return Materialize(id); }

const Fact* FactStore::FactAt(ConceptId id, std::uint32_t ordinal) const {
  return Materialize(IdAt(id, ordinal));
}

std::vector<const Fact*> FactStore::FactsOf(ConceptId id) const {
  std::vector<const Fact*> facts;
  const auto count = static_cast<std::uint32_t>(CountOf(id));
  facts.reserve(count);
  for (std::uint32_t ordinal = 0; ordinal < count; ++ordinal) {
    facts.push_back(Materialize(IdAt(id, ordinal)));
  }
  return facts;
}

std::vector<const Fact*> FactStore::FactsOf(const std::string& name) const {
  return FactsOf(FindConcept(name));
}

FactView FactStore::ViewByOid(const Oid& oid) const {
  if (oid.empty()) return FactView();
  if (segment_ != nullptr) {
    const FactView view = segment_->ViewByOid(oid);
    if (view.valid()) return view;
  }
  const std::uint32_t oid_id = FindOid(oid);
  if (oid_id == kNoId) return FactView();
  // Fact ids are appended ascending, so the first posting is the
  // first-inserted fact with this OID (the precedence contract).
  PostingsCursor cursor = by_oid_.Find(oid_id);
  std::uint32_t fid = 0;
  if (cursor.Next(&fid)) return ViewById(fid);
  return FactView();
}

PostingsCursor FactStore::Probe(ConceptId concept_id, const std::string& attr,
                                const Value& value) const {
  PostingsCursor own;
  const std::uint32_t attr_id = symbols_.Find(attr);
  std::uint64_t digest = 0;
  if (attr_id != kNoId && TryLookupDigest(value, &digest)) {
    own = by_attr_.Find(AttrIndexKey(concept_id, attr_id, digest));
  }
  if (segment_ == nullptr || concept_id >= segment_->concept_count()) {
    return own;
  }
  // Segment ordinals all precede the overlay's, so the chained stream
  // stays ascending.
  PostingsCursor layered = segment_->Probe(concept_id, attr, value);
  layered.Chain(own);
  return layered;
}

void FactStore::ProbeOid(ConceptId concept_id, const Oid& oid,
                         std::vector<std::uint32_t>* out) const {
  if (oid.empty()) return;
  if (segment_ != nullptr && concept_id < segment_->concept_count()) {
    segment_->ProbeOid(concept_id, oid, out);
  }
  const std::uint32_t oid_id = FindOid(oid);
  if (oid_id == kNoId) return;
  PostingsCursor cursor = by_oid_.Find(oid_id);
  std::uint32_t fid = 0;
  while (cursor.Next(&fid)) {
    const FactRecord& rec = RecordOf(fid);
    if (rec.concept_id == concept_id) out->push_back(rec.ordinal);
  }
}

bool FactStore::EquivalentAttrs(FactId id, const Fact& fact) const {
  if (id < fact_base_) return segment_->EquivalentAttrs(id, fact);
  const FactRecord& rec = RecordOf(id);
  if (symbols_.view(concept_symbols_[rec.concept_id]) != fact.concept_name) {
    return false;
  }
  if (rec.attr_count != fact.attrs.size()) return false;
  std::uint32_t i = 0;
  for (const auto& [name, value] : fact.attrs) {
    if (symbols_.view(attr_names_[rec.attr_begin + i]) != name) return false;
    if (!ValueHandle(this, attr_values_[rec.attr_begin + i]).Equals(value)) {
      return false;
    }
    ++i;
  }
  return true;
}

void FactStore::Clear() {
  symbols_.Clear();
  concept_symbols_.clear();
  concept_table_.Clear();
  oids_.clear();
  oid_table_.Clear();
  reals_.clear();
  real_table_.Clear();
  boxed_ints_.clear();
  int_table_.Clear();
  boxed_dates_.clear();
  date_table_.Clear();
  set_runs_.clear();
  set_elements_.clear();
  records_.clear();
  attr_names_.clear();
  attr_values_.clear();
  by_concept_.clear();
  by_attr_.Clear();
  by_oid_.Clear();
  dedup_.Clear();
  segment_.reset();
  fact_base_ = 0;
  std::lock_guard<std::mutex> lock(*cache_mu_);
  // Release capacity too, so memory().materialized_bytes drops to zero.
  std::vector<std::unique_ptr<Fact>>().swap(cache_);
}

FactStore::MemoryBreakdown FactStore::memory() const {
  MemoryBreakdown m;
  m.record_bytes = records_.capacity() * sizeof(FactRecord) +
                   by_concept_.capacity() * sizeof(Extent);
  for (const Extent& extent : by_concept_) {
    m.record_bytes += extent.ids.capacity() * sizeof(FactId);
  }
  m.attr_bytes = attr_names_.capacity() * sizeof(std::uint32_t) +
                 attr_values_.capacity() * sizeof(PackedValue);
  m.symbol_bytes = symbols_.ApproxBytes() +
                   concept_symbols_.capacity() * sizeof(std::uint32_t) +
                   concept_table_.ApproxBytes();
  m.value_pool_bytes =
      oids_.capacity() * sizeof(PackedOid) + oid_table_.ApproxBytes() +
      reals_.capacity() * sizeof(double) + real_table_.ApproxBytes() +
      boxed_ints_.capacity() * sizeof(std::int64_t) +
      int_table_.ApproxBytes() + boxed_dates_.capacity() * sizeof(Date) +
      date_table_.ApproxBytes() +
      set_runs_.capacity() * sizeof(set_runs_[0]) +
      set_elements_.capacity() * sizeof(PackedValue);
  m.attr_index_bytes = by_attr_.ApproxBytes();
  m.oid_index_bytes = by_oid_.ApproxBytes();
  m.dedup_bytes = dedup_.ApproxBytes();
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    m.materialized_bytes = cache_.capacity() * sizeof(cache_[0]);
    for (const std::unique_ptr<Fact>& fact : cache_) {
      if (fact != nullptr) m.materialized_bytes += MaterializedFactBytes(*fact);
    }
  }
  return m;
}

}  // namespace ooint
