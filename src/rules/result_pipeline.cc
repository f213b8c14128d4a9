#include "rules/result_pipeline.h"

#include <algorithm>
#include <utility>

#include "rules/fact_store.h"

namespace ooint {

namespace {

size_t DecimalDigits(std::uint64_t n) {
  size_t digits = 1;
  for (; n >= 10; n /= 10) ++digits;
  return digits;
}

size_t ApproxValueBytes(const Value& value) {
  size_t bytes = sizeof(Value);
  switch (value.kind()) {
    case ValueKind::kString:
      bytes += value.AsString().size();
      break;
    case ValueKind::kOid: {
      // The length of Oid::ToString(): four components, four dots and
      // the number, without building the string.
      const Oid& oid = value.AsOid();
      bytes += oid.agent().size() + oid.dbms().size() +
               oid.database().size() + oid.relation().size() + 4 +
               DecimalDigits(oid.number());
      break;
    }
    case ValueKind::kSet:
      for (const Value& element : value.AsSet()) {
        bytes += ApproxValueBytes(element);
      }
      break;
    default:
      break;
  }
  return bytes;
}

std::uint64_t RowDigest(const Bindings& row) {
  std::uint64_t key = 0;
  for (const auto& [var, value] : row) {
    key = HashCombine(key, HashString(var));
    key = HashCombine(key, HashValue(value));
  }
  return key;
}

/// A row in the top-k heap with its sort value, looked up once (null
/// when the row lacks it). std::map moves keep their nodes, so the
/// pointer follows the row through the heap. `bytes` is the row's
/// ApproxBindingsBytes, charged when the heap keeps it.
struct HeldRow {
  Bindings row;
  const Value* key = nullptr;
  size_t bytes = 0;
};

/// RowOrder over held rows, without a lookup per comparison.
struct HeldRowOrder {
  const RowOrder* order;
  bool operator()(const HeldRow& a, const HeldRow& b) const {
    return order->KeyedLess(a.key, a.row, b.key, b.row);
  }
};

using HeldTopK = BoundedTopK<HeldRow, HeldRowOrder>;

}  // namespace

bool DistinctRows::Insert(Bindings row) {
  std::vector<size_t>& bucket = seen_[RowDigest(row)];
  for (size_t index : bucket) {
    if (rows_[index] == row) return false;
  }
  bucket.push_back(rows_.size());
  rows_.push_back(std::move(row));
  return true;
}

size_t ApproxBindingsBytes(const Bindings& row) {
  // Three pointers + color per red-black node, plus the key string.
  constexpr size_t kNodeOverhead = 4 * sizeof(void*);
  size_t bytes = sizeof(Bindings);
  for (const auto& [var, value] : row) {
    bytes += kNodeOverhead + var.size() + ApproxValueBytes(value);
  }
  return bytes;
}

bool RowOrder::operator()(const Bindings& a, const Bindings& b) const {
  const auto ia = a.find(order_by);
  const auto ib = b.find(order_by);
  return KeyedLess(ia != a.end() ? &ia->second : nullptr, a,
                   ib != b.end() ? &ib->second : nullptr, b);
}

bool RowOrder::KeyedLess(const Value* a_key, const Bindings& a,
                         const Value* b_key, const Bindings& b) const {
  // Rows missing the sort variable go last in either direction.
  if ((a_key != nullptr) != (b_key != nullptr)) return a_key != nullptr;
  if (a_key != nullptr && *a_key != *b_key) {
    return descending ? *b_key < *a_key : *a_key < *b_key;
  }
  // Deterministic tie-break on the full row (always ascending), which
  // also makes incomparability coincide with row equality.
  return a < b;
}

ResultPipeline::ResultPipeline(std::unique_ptr<RowSource> source,
                               PipelineSpec spec)
    : source_(std::move(source)), spec_(std::move(spec)) {}

void ResultPipeline::HoldBytes(size_t bytes) {
  held_bytes_ += bytes;
  stats_.peak_held_bytes = std::max(stats_.peak_held_bytes, held_bytes_);
}

void ResultPipeline::ReleaseBytes(size_t bytes) {
  held_bytes_ -= std::min(held_bytes_, bytes);
}

bool ResultPipeline::PassesFilters(const Bindings& row) const {
  for (const RowFilter& filter : spec_.filters) {
    const auto it = row.find(filter.var);
    if (it == row.end()) return false;
    const Result<bool> verdict = Compare(it->second, filter.op, filter.value);
    // Incomparable kinds under an inequality: the predicate is not
    // satisfied, the row is filtered (not an error — heterogeneous
    // concepts legitimately mix value kinds per attribute).
    if (!verdict.ok() || !verdict.value()) return false;
  }
  return true;
}

bool ResultPipeline::PullTransformed(Bindings* row) {
  Bindings raw;
  while (source_->Next(&raw)) {
    ++stats_.rows_in;
    if (!PassesFilters(raw)) {
      ++stats_.rows_filtered;
      continue;
    }
    if (spec_.project.empty()) {
      *row = std::move(raw);
      return true;
    }
    // Projection moves the kept bindings' nodes: no allocation, no copy.
    Bindings projected;
    for (const std::string& var : spec_.project) {
      auto node = raw.extract(var);
      if (!node.empty()) projected.insert(std::move(node));
    }
    *row = std::move(projected);
    return true;
  }
  return false;
}

bool ResultPipeline::DedupAdmit(const Bindings& row) {
  if (!distinct_.Insert(row)) return false;
  HoldBytes(ApproxBindingsBytes(row));
  return true;
}

bool ResultPipeline::Next(Bindings* row) {
  if (exhausted_) return false;
  if (spec_.limit > 0 && emitted_ >= spec_.limit) {
    exhausted_ = true;
    return false;
  }

  if (!spec_.order_by.empty()) {
    if (!sorted_ready_) {
      // Drain the upstream through the bounded heap: at most `limit`
      // rows (plus the one in flight) are ever held, however large the
      // answer set is. limit == 0 degrades to a full sort.
      const RowOrder order{spec_.order_by, spec_.descending};
      // With an unbounded sort the O(k) in-heap duplicate scan would be
      // quadratic; dedup up front through the digest store instead.
      const bool heap_dedup = spec_.distinct && spec_.limit > 0;
      HeldTopK topk(spec_.limit, HeldRowOrder{&order}, heap_dedup);
      // Only a row the heap keeps is sized; an evicted row gives back
      // what it was charged.
      const auto charge = [&](HeldRow& kept) {
        if (!heap_dedup) return;
        kept.bytes = ApproxBindingsBytes(kept.row);
        HoldBytes(kept.bytes);
      };
      HeldRow incoming;
      HeldRow displaced;
      while (PullTransformed(&incoming.row)) {
        if (spec_.distinct && !heap_dedup && !DedupAdmit(incoming.row)) {
          ++stats_.rows_deduped;
          continue;
        }
        const auto key = incoming.row.find(spec_.order_by);
        incoming.key = key != incoming.row.end() ? &key->second : nullptr;
        switch (topk.Push(std::move(incoming), &displaced, charge)) {
          case HeldTopK::Offer::kKept:
            break;
          case HeldTopK::Offer::kKeptEvicted:
            ReleaseBytes(displaced.bytes);
            break;
          case HeldTopK::Offer::kDuplicate:
            ++stats_.rows_deduped;
            break;
          case HeldTopK::Offer::kRejected:
            break;
        }
      }
      stats_.heap_evictions = topk.evictions();
      std::vector<HeldRow> held = topk.TakeSorted();
      sorted_.reserve(held.size());
      for (HeldRow& h : held) {
        // Without heap dedup, account the final sorted buffer (the
        // dedup store counted its rows as they were admitted).
        if (!heap_dedup && !spec_.distinct) {
          HoldBytes(ApproxBindingsBytes(h.row));
        }
        sorted_.push_back(std::move(h.row));
      }
      sorted_ready_ = true;
    }
    if (sorted_index_ >= sorted_.size()) {
      exhausted_ = true;
      return false;
    }
    *row = std::move(sorted_[sorted_index_++]);
    ++emitted_;
    ++stats_.rows_out;
    return true;
  }

  // Streaming path: one row at a time; only the dedup store (when
  // distinct) accumulates.
  Bindings candidate;
  while (PullTransformed(&candidate)) {
    if (spec_.distinct && !DedupAdmit(candidate)) {
      ++stats_.rows_deduped;
      continue;
    }
    if (!spec_.distinct) {
      const size_t bytes = ApproxBindingsBytes(candidate);
      HoldBytes(bytes);
      ReleaseBytes(bytes);
    }
    *row = std::move(candidate);
    ++emitted_;
    ++stats_.rows_out;
    return true;
  }
  exhausted_ = true;
  return false;
}

}  // namespace ooint
