#include "rules/columnar.h"

namespace ooint {

namespace {

std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint16_t LoadU16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

void StoreU16(std::uint8_t* p, std::uint16_t v) {
  std::memcpy(p, &v, sizeof(v));
}

// Block header layout (see PostingsPool class comment).
constexpr std::uint32_t kHeaderBytes = 8;
constexpr std::uint32_t kNextOffset = 0;
constexpr std::uint32_t kCapOffset = 4;
constexpr std::uint32_t kUsedOffset = 6;
constexpr std::uint16_t kFirstCap = 16;
constexpr std::uint16_t kMaxCap = 256;
// A LEB128 u32 needs at most 5 bytes.
constexpr std::uint32_t kMaxVarint = 5;

}  // namespace

std::uint32_t SymbolPool::Intern(std::string_view s) {
  const std::uint64_t hash = HashString(s);
  return table_.FindOrInsert(
      hash, [&](std::uint32_t id) { return strings_[id] == s; },
      [&] {
        strings_.emplace_back(s);
        return static_cast<std::uint32_t>(strings_.size() - 1);
      });
}

std::uint32_t SymbolPool::Find(std::string_view s) const {
  const std::uint64_t hash = HashString(s);
  return table_.Find(hash,
                     [&](std::uint32_t id) { return strings_[id] == s; });
}

size_t SymbolPool::ApproxBytes() const {
  size_t bytes = table_.ApproxBytes();
  for (const std::string& s : strings_) {
    bytes += sizeof(std::string) +
             (s.capacity() > sizeof(std::string) ? s.capacity() : 0);
  }
  return bytes;
}

void SymbolPool::Clear() {
  strings_.clear();
  table_.Clear();
}

std::uint32_t PostingsPool::AllocBlock(std::uint16_t payload_cap) {
  const std::uint32_t need = kHeaderBytes + payload_cap;
  if (chunk_used_ + need > kChunkSize) {
    chunks_.push_back(std::make_unique<std::uint8_t[]>(kChunkSize));
    chunk_used_ = 0;
  }
  const std::uint32_t block =
      (static_cast<std::uint32_t>(chunks_.size() - 1) << 16) | chunk_used_;
  chunk_used_ += need;
  std::uint8_t* p = chunks_.back().get() + (block & 0xffffu);
  StoreU32(p + kNextOffset, kNoBlock);
  StoreU16(p + kCapOffset, payload_cap);
  StoreU16(p + kUsedOffset, 0);
  return block;
}

void PostingsPool::Append(std::uint32_t list_id, std::uint32_t value) {
  List& list = lists_[list_id];
  const std::uint32_t delta = value - list.last;
  std::uint8_t buf[kMaxVarint];
  std::uint32_t len = 0;
  std::uint32_t v = delta;
  do {
    std::uint8_t byte = v & 0x7f;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    buf[len++] = byte;
  } while (v != 0);

  std::uint8_t* tail = nullptr;
  std::uint16_t cap = 0;
  std::uint16_t used = 0;
  if (list.tail != kNoBlock) {
    tail = chunks_[list.tail >> 16].get() + (list.tail & 0xffffu);
    cap = LoadU16(tail + kCapOffset);
    used = LoadU16(tail + kUsedOffset);
  }
  if (tail == nullptr || used + len > cap) {
    const std::uint16_t next_cap =
        tail == nullptr
            ? kFirstCap
            : static_cast<std::uint16_t>(cap * 2 > kMaxCap ? kMaxCap : cap * 2);
    const std::uint32_t block = AllocBlock(next_cap);
    if (tail != nullptr) {
      // Link after the new block is fully initialized, so a cursor
      // walking the chain never sees a half-built block.
      StoreU32(tail + kNextOffset, block);
    } else {
      list.head = block;
    }
    list.tail = block;
    tail = chunks_[block >> 16].get() + (block & 0xffffu);
    used = 0;
  }
  std::memcpy(tail + kHeaderBytes + used, buf, len);
  StoreU16(tail + kUsedOffset, static_cast<std::uint16_t>(used + len));
  list.last = value;
  ++list.count;
}

void PostingsCursor::Chain(const PostingsCursor& tail) {
  tail_pool_ = tail.pool_;
  tail_block_ = tail.block_;
  tail_inline_ = tail.inline_value_;
  tail_count_ = tail.remaining_;
}

bool PostingsCursor::Refill() {
  if (remaining_ != 0) return true;
  if (tail_count_ == 0) return false;
  pool_ = tail_pool_;
  block_ = tail_block_;
  inline_value_ = tail_inline_;
  remaining_ = tail_count_;
  tail_count_ = 0;
  pos_ = 0;
  last_ = 0;  // the chained list's deltas start from zero
  return true;
}

bool PostingsCursor::Next(std::uint32_t* out) {
  if (!Refill()) return false;
  if (pool_ == nullptr) {  // inlined single posting
    *out = inline_value_;
    --remaining_;
    ++decoded_;
    return true;
  }
  const std::uint8_t* block = pool_->BlockBytes(block_);
  // Move past exhausted blocks (a writer abandons a block's slack when
  // a varint does not fit; `used` of an abandoned block is final).
  while (pos_ >= LoadU16(block + kUsedOffset)) {
    block_ = LoadU32(block + kNextOffset);
    pos_ = 0;
    block = pool_->BlockBytes(block_);
  }
  std::uint32_t delta = 0;
  int shift = 0;
  const std::uint8_t* payload = block + kHeaderBytes;
  std::uint8_t byte;
  do {
    byte = payload[pos_++];
    delta |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
    shift += 7;
  } while (byte & 0x80);
  last_ += delta;
  *out = last_;
  --remaining_;
  ++decoded_;
  return true;
}

std::uint32_t PostingsCursor::NextRun(std::uint32_t* out, std::uint32_t cap) {
  if (cap == 0 || !Refill()) return 0;
  if (pool_ == nullptr) {  // inlined single posting
    out[0] = inline_value_;
    --remaining_;
    ++decoded_;
    return 1;
  }
  const std::uint8_t* block = pool_->BlockBytes(block_);
  while (pos_ >= LoadU16(block + kUsedOffset)) {
    block_ = LoadU32(block + kNextOffset);
    pos_ = 0;
    block = pool_->BlockBytes(block_);
  }
  const std::uint16_t used = LoadU16(block + kUsedOffset);
  const std::uint8_t* payload = block + kHeaderBytes;
  std::uint32_t n = 0;
  // Decode whole varints until the block's used bytes, the caller's
  // capacity or the snapshot's count runs out — whichever is first.
  while (pos_ < used && n < cap && remaining_ != 0) {
    std::uint32_t delta = 0;
    int shift = 0;
    std::uint8_t byte;
    do {
      byte = payload[pos_++];
      delta |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
      shift += 7;
    } while (byte & 0x80);
    last_ += delta;
    out[n++] = last_;
    --remaining_;
    ++decoded_;
  }
  return n;
}

size_t PostingsPool::ApproxBytes() const {
  return lists_.capacity() * sizeof(List) + chunks_.size() * kChunkSize +
         chunks_.capacity() * sizeof(chunks_[0]);
}

void PostingsPool::Clear() {
  lists_.clear();
  chunks_.clear();
  chunk_used_ = kChunkSize;
}

size_t PostingsIndex::SlotOf(std::uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = SplitMix64(key) & mask;
  while (slots_[i].ref != kEmptyRef && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void PostingsIndex::Grow() {
  const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{0, kEmptyRef});
  const size_t mask = cap - 1;
  for (const Slot& slot : old) {
    if (slot.ref == kEmptyRef) continue;
    size_t i = SplitMix64(slot.key) & mask;
    while (slots_[i].ref != kEmptyRef) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void PostingsIndex::Add(std::uint64_t key, std::uint32_t value) {
  if (slots_.empty() || (used_ + 1) * 10 >= slots_.size() * 7) Grow();
  const size_t i = SlotOf(key);
  Slot& slot = slots_[i];
  if (slot.ref == kEmptyRef) {
    slot.key = key;
    slot.ref = kInlineBit | value;  // ordinals/fact ids stay below 2^31
    ++used_;
    return;
  }
  if (slot.ref & kInlineBit) {
    const std::uint32_t first = slot.ref & ~kInlineBit;
    const std::uint32_t list = pool_.NewList();
    pool_.Append(list, first);
    slot.ref = list;
  }
  pool_.Append(slot.ref, value);
}

PostingsCursor PostingsIndex::Find(std::uint64_t key) const {
  if (used_ == 0) return PostingsCursor();
  const size_t i = SlotOf(key);
  const Slot& slot = slots_[i];
  if (slot.ref == kEmptyRef) return PostingsCursor();
  if (slot.ref & kInlineBit) return PostingsCursor(slot.ref & ~kInlineBit);
  return pool_.Cursor(slot.ref);
}

size_t PostingsIndex::ApproxBytes() const {
  return slots_.capacity() * sizeof(Slot) + pool_.ApproxBytes();
}

void PostingsIndex::Clear() {
  slots_.clear();
  used_ = 0;
  pool_.Clear();
}

}  // namespace ooint
