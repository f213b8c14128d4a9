#ifndef OOINT_COMMON_TOPK_H_
#define OOINT_COMMON_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace ooint {

/// A bounded top-k accumulator: holds at most `bound` items, the best
/// (smallest under Less) of everything offered so far. Backed by a
/// max-heap whose root is the worst held item, so each offer is O(log k)
/// plus — with de-duplication on, and only for an offer that beats the
/// worst held item — an O(k) equality scan.
///
/// `Less` must be a strict weak ordering that is *total* on the offered
/// items: incomparability (neither a<b nor b<a) is treated as equality.
/// The serving pipeline guarantees this by tie-breaking its sort key
/// with the full row ordering.
///
/// With `dedup` enabled, Push rejects items equal to a held one. The
/// in-bound scan is exact for distinct top-k even though evicted items
/// are forgotten: an item can only be evicted when `bound` strictly
/// better items are held, and held items only ever improve — so a
/// duplicate of an evicted item is itself rejected by the bound before
/// the missing equality check could matter.
template <typename T, typename Less>
class BoundedTopK {
 public:
  /// What Push did with the offered item.
  enum class Offer {
    /// Held; nothing was evicted.
    kKept,
    /// Held; the previously-held worst item was evicted to make room
    /// (written to `displaced` when provided).
    kKeptEvicted,
    /// Dropped: an equal item is already held (dedup mode only).
    kDuplicate,
    /// Dropped: the accumulator is full and the item is no better than
    /// the held worst.
    kRejected,
  };

  /// `bound` == 0 means unbounded (a full sort accumulator).
  BoundedTopK(size_t bound, Less less, bool dedup = true)
      : bound_(bound == 0 ? std::numeric_limits<size_t>::max() : bound),
        less_(std::move(less)),
        dedup_(dedup) {}

  Offer Push(T item, T* displaced = nullptr) {
    return Push(std::move(item), displaced, [](T&) {});
  }

  /// Same, and a kept item passes through `on_keep(T&)` once, just
  /// before it enters the heap, so a caller can annotate (say, size)
  /// only the items it keeps.
  ///
  /// The bound is tested first: an offer no better than the worst held
  /// item is dropped after at most two comparisons. With dedup it is a
  /// duplicate only if it equals that worst item, since every other held
  /// item is strictly better. Only an offer that beats the worst pays the
  /// in-heap duplicate scan.
  template <typename OnKeep>
  Offer Push(T item, T* displaced, OnKeep&& on_keep) {
    const bool full = heap_.size() >= bound_;
    if (full && !less_(item, heap_.front())) {
      if (dedup_ && !less_(heap_.front(), item)) return Offer::kDuplicate;
      ++evictions_;
      return Offer::kRejected;
    }
    if (dedup_) {
      for (const T& held : heap_) {
        if (!less_(held, item) && !less_(item, held)) return Offer::kDuplicate;
      }
    }
    on_keep(item);
    if (!full) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), less_);
      return Offer::kKept;
    }
    std::pop_heap(heap_.begin(), heap_.end(), less_);
    if (displaced != nullptr) *displaced = std::move(heap_.back());
    heap_.back() = std::move(item);
    std::push_heap(heap_.begin(), heap_.end(), less_);
    ++evictions_;
    return Offer::kKeptEvicted;
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Offered items the bound discarded (the offer itself or the held
  /// item it displaced), duplicates not counted.
  size_t evictions() const { return evictions_; }

  /// Destructively extracts the held items, best first (ascending under
  /// Less). The accumulator is empty afterwards.
  std::vector<T> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end(), less_);
    evictions_ = 0;
    return std::move(heap_);
  }

 private:
  size_t bound_;
  Less less_;
  bool dedup_;
  /// Max-heap under less_: front() is the worst held item.
  std::vector<T> heap_;
  size_t evictions_ = 0;
};

}  // namespace ooint

#endif  // OOINT_COMMON_TOPK_H_
