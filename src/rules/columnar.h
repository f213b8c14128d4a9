#ifndef OOINT_RULES_COLUMNAR_H_
#define OOINT_RULES_COLUMNAR_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace ooint {

/// Low-level building blocks of the columnar FactStore (DESIGN.md 4h):
/// open-addressing id tables for interning, a string symbol pool, and
/// delta/varint-packed posting lists in a bump-allocated block arena
/// with a streaming, snapshot-safe cursor.

inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// Open-addressing (linear probing) table mapping 64-bit hashes to
/// dense 32-bit ids whose elements live in an external pool. The table
/// caches the full hash per slot, so growth never re-hashes elements
/// and lookups only call `eq` on full-hash matches — which is also what
/// makes deliberate hash truncation (the collision tests) exercise the
/// exact-verification path instead of corrupting the table.
class IdTable {
 public:
  /// Returns the id whose element matches (`hash` equal and `eq(id)`
  /// true), or kNoId.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, const Eq& eq) const {
    if (used_ == 0) return kNoId;
    const size_t mask = ids_.size() - 1;
    for (size_t i = SplitMix64(hash) & mask;; i = (i + 1) & mask) {
      if (ids_[i] == kNoId) return kNoId;
      if (hashes_[i] == hash && eq(ids_[i])) return ids_[i];
    }
  }

  /// Returns the matching id, or calls `make()` to append a new element
  /// to the external pool and records its id.
  template <typename Eq, typename Make>
  std::uint32_t FindOrInsert(std::uint64_t hash, const Eq& eq,
                             const Make& make) {
    if (ids_.empty()) Grow();
    size_t mask = ids_.size() - 1;
    size_t i = SplitMix64(hash) & mask;
    for (; ids_[i] != kNoId; i = (i + 1) & mask) {
      if (hashes_[i] == hash && eq(ids_[i])) return ids_[i];
    }
    if ((used_ + 1) * 10 >= ids_.size() * 7) {
      Grow();
      mask = ids_.size() - 1;
      i = SplitMix64(hash) & mask;
      while (ids_[i] != kNoId) i = (i + 1) & mask;
    }
    const std::uint32_t id = make();
    ids_[i] = id;
    hashes_[i] = hash;
    ++used_;
    return id;
  }

  size_t size() const { return used_; }
  size_t ApproxBytes() const {
    return ids_.capacity() * sizeof(std::uint32_t) +
           hashes_.capacity() * sizeof(std::uint64_t);
  }
  void Clear() {
    ids_.clear();
    hashes_.clear();
    used_ = 0;
  }

 private:
  void Grow() {
    const size_t cap = ids_.empty() ? 16 : ids_.size() * 2;
    std::vector<std::uint32_t> old_ids = std::move(ids_);
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    ids_.assign(cap, kNoId);
    hashes_.assign(cap, 0);
    const size_t mask = cap - 1;
    for (size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] == kNoId) continue;
      size_t j = SplitMix64(old_hashes[i]) & mask;
      while (ids_[j] != kNoId) j = (j + 1) & mask;
      ids_[j] = old_ids[i];
      hashes_[j] = old_hashes[i];
    }
  }

  std::vector<std::uint32_t> ids_;
  std::vector<std::uint64_t> hashes_;
  size_t used_ = 0;
};

/// Interned strings with dense 32-bit ids: concept names, attribute
/// names, string values and OID components all share one pool, so a
/// name appearing in a million facts is stored once.
class SymbolPool {
 public:
  std::uint32_t Intern(std::string_view s);
  /// kNoId when `s` was never interned — the probe-miss path: a value
  /// absent from the pool cannot occur in any stored fact.
  std::uint32_t Find(std::string_view s) const;
  const std::string& at(std::uint32_t id) const { return strings_[id]; }
  std::string_view view(std::uint32_t id) const { return strings_[id]; }
  size_t size() const { return strings_.size(); }
  size_t ApproxBytes() const;
  void Clear();

 private:
  std::deque<std::string> strings_;
  IdTable table_;
};

inline constexpr std::uint32_t kNoBlock = 0xffffffffu;

class PostingsPool;

/// Streaming decoder over one posting list (or one inlined posting).
///
/// Snapshot contract (the Probe() lifetime fix): the cursor captures
/// the list's element count at creation time. Posting blocks are
/// allocated from stable 64 KiB arena chunks and are append-only, so
/// later inserts never move or rewrite the bytes a cursor reads — the
/// cursor simply stops after the captured count and never observes
/// appends that happened after the probe. A cursor therefore stays
/// valid across inserts for the lifetime of the store (unlike the old
/// `const std::vector<uint32_t>*`, which a rehash or push_back could
/// invalidate). Reads must not race a literally concurrent Append on
/// the same store; the evaluator appends only from the thread running
/// its fixpoint (or a delta batch), which callers serialize against
/// readers.
///
/// A cursor may carry a second list chained after the first (Chain):
/// a layered FactStore streams the base segment's postings and then
/// the overlay's as one ascending sequence.
class PostingsCursor {
 public:
  /// Empty cursor (no hits).
  PostingsCursor() = default;
  /// Single inlined posting.
  explicit PostingsCursor(std::uint32_t value)
      : inline_value_(value), remaining_(1) {}
  PostingsCursor(const PostingsPool* pool, std::uint32_t block,
                 std::uint32_t count)
      : pool_(pool), block_(block), remaining_(count) {}

  /// Total postings in the snapshot (including any not yet decoded).
  std::uint32_t count() const { return remaining_ + decoded_ + tail_count_; }
  bool empty() const { return count() == 0; }

  /// Streams `tail`'s postings after this cursor's. Both must be fresh
  /// (nothing decoded) and unchained, and every posting of `tail` must
  /// be >= every posting of this cursor, so the whole stream stays
  /// ascending.
  void Chain(const PostingsCursor& tail);

  /// Decodes the next (non-strictly ascending) posting; false at end.
  bool Next(std::uint32_t* out);

  /// Bulk decode: fills `out` with up to `cap` postings, stopping at a
  /// block boundary (or at the single inlined value) — the unit the
  /// join kernels consume. Never decodes across blocks in one call, so
  /// a caller sees the pool's chained 16→256-byte blocks one run at a
  /// time. Returns the number decoded; 0 means the snapshot is drained.
  std::uint32_t NextRun(std::uint32_t* out, std::uint32_t cap);

 private:
  /// Moves on to the chained list once the current one is drained;
  /// false when nothing is left.
  bool Refill();

  const PostingsPool* pool_ = nullptr;
  std::uint32_t block_ = kNoBlock;
  std::uint32_t pos_ = 0;       // byte offset into the block payload
  std::uint32_t last_ = 0;      // delta base
  std::uint32_t inline_value_ = 0;
  std::uint32_t remaining_ = 0;
  std::uint32_t decoded_ = 0;
  // The chained list (tail_count_ == 0: none).
  const PostingsPool* tail_pool_ = nullptr;
  std::uint32_t tail_block_ = kNoBlock;
  std::uint32_t tail_inline_ = 0;
  std::uint32_t tail_count_ = 0;
};

/// Bump-allocated posting lists: ascending u32 sequences stored as
/// LEB128 varints of consecutive deltas in chained blocks of doubling
/// payload capacity (16 → 256 bytes), carved out of 64 KiB arena
/// chunks. A block reference packs (chunk index << 16 | byte offset).
///
/// Block layout: [u32 next][u16 cap][u16 used][payload...]; all blocks
/// are 4-byte aligned and block bytes are never rewritten once used.
class PostingsPool {
 public:
  struct List {
    std::uint32_t head = kNoBlock;
    std::uint32_t tail = kNoBlock;
    std::uint32_t count = 0;
    std::uint32_t last = 0;  // last appended value (delta base)
  };

  std::uint32_t NewList() {
    lists_.emplace_back();
    return static_cast<std::uint32_t>(lists_.size() - 1);
  }
  /// Appends `value` to `list_id`. Values must be non-decreasing.
  void Append(std::uint32_t list_id, std::uint32_t value);
  std::uint32_t Count(std::uint32_t list_id) const {
    return lists_[list_id].count;
  }
  PostingsCursor Cursor(std::uint32_t list_id) const {
    const List& list = lists_[list_id];
    return PostingsCursor(this, list.head, list.count);
  }

  const std::uint8_t* BlockBytes(std::uint32_t block) const {
    return chunks_[block >> 16].get() + (block & 0xffffu);
  }

  size_t ApproxBytes() const;
  void Clear();

 private:
  friend class PostingsCursor;
  static constexpr std::uint32_t kChunkSize = 1u << 16;

  std::uint32_t AllocBlock(std::uint16_t payload_cap);

  std::vector<List> lists_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::uint32_t chunk_used_ = kChunkSize;  // forces first-chunk alloc
};

/// Hash index from 64-bit keys to posting lists: the representation
/// behind by_attr_, by_oid_ and the de-duplication buckets. Single
/// postings are inlined into the slot (high bit tagged), so the common
/// unique-value case costs 12 bytes of slot and zero arena bytes.
/// Distinct semantic keys that collide on the 64-bit key share one
/// posting list — callers exact-verify candidates, so a collision can
/// cost time but never correctness (same tolerance as the old
/// unordered_map-of-hashes design).
class PostingsIndex {
 public:
  /// Adds `value` under `key`; per-key values must be non-decreasing.
  void Add(std::uint64_t key, std::uint32_t value);
  /// Snapshot cursor over the key's postings; empty if absent.
  PostingsCursor Find(std::uint64_t key) const;

  size_t key_count() const { return used_; }
  size_t ApproxBytes() const;
  void Clear();

 private:
  static constexpr std::uint32_t kEmptyRef = 0xffffffffu;
  static constexpr std::uint32_t kInlineBit = 0x80000000u;

  struct Slot {
    std::uint64_t key;
    std::uint32_t ref;
  };

  size_t SlotOf(std::uint64_t key) const;
  void Grow();

  std::vector<Slot> slots_;
  size_t used_ = 0;
  PostingsPool pool_;
};

}  // namespace ooint

#endif  // OOINT_RULES_COLUMNAR_H_
