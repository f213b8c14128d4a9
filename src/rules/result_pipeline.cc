#include "rules/result_pipeline.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/topk.h"

namespace ooint {

namespace {

/// Three pointers + color per red-black node, plus the key string.
constexpr size_t kNodeOverhead = 4 * sizeof(void*);

size_t DecimalDigits(std::uint64_t n) {
  size_t digits = 1;
  for (; n >= 10; n /= 10) ++digits;
  return digits;
}

/// What a value of this handle's kind and payload costs materialized.
size_t ApproxValueBytes(const ValueHandle& value) {
  size_t bytes = sizeof(Value);
  switch (value.kind()) {
    case ValueKind::kString:
      bytes += value.AsString().size();
      break;
    case ValueKind::kOid: {
      // The length of Oid::ToString(): four components, four dots and
      // the number, without building the string.
      const OidView oid = value.AsOid();
      bytes += oid.agent.size() + oid.dbms.size() + oid.database.size() +
               oid.relation.size() + 4 + DecimalDigits(oid.number);
      break;
    }
    case ValueKind::kSet:
      for (size_t i = 0; i < value.set_size(); ++i) {
        bytes += ApproxValueBytes(value.set_element(i));
      }
      break;
    default:
      break;
  }
  return bytes;
}

/// std::map's operator< over two rows of one variable list: present
/// slots are the (name, value) pairs in key order, compared pair by
/// pair, a prefix first.
bool RowLess(const ValueHandle* a, const ValueHandle* b, size_t width) {
  size_t i = 0;
  size_t j = 0;
  while (true) {
    while (i < width && !a[i].valid()) ++i;
    while (j < width && !b[j].valid()) ++j;
    if (i == width || j == width) return i == width && j < width;
    if (i != j) return i < j;  // a's next name sorts first
    if (HandleLess(a[i], b[j])) return true;
    if (HandleLess(b[j], a[i])) return false;
    ++i;
    ++j;
  }
}

/// std::map's operator== over two rows of one variable list.
bool RowsEqual(const ValueHandle* a, const ValueHandle* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (a[i].valid() != b[i].valid()) return false;
    if (a[i].valid() && !HandlesEqual(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool RowSource::NextBindings(Bindings* row) {
  const ValueHandle* cells = nullptr;
  if (!Next(&cells)) return false;
  *row = MaterializeRow(vars(), cells);
  return true;
}

Bindings MaterializeRow(const std::vector<std::string>& vars,
                        const ValueHandle* row) {
  Bindings out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (row[i].valid()) out.emplace_hint(out.end(), vars[i], row[i].Materialize());
  }
  return out;
}

QueryStream::QueryStream(OTerm pattern, FactMatcher matcher,
                         const FactStore* store,
                         const std::vector<std::uint8_t>* live_filter,
                         ConceptId concept_id,
                         std::vector<std::uint32_t> candidates)
    : pattern_(std::move(pattern)),
      compiled_(pattern_),
      matcher_(std::move(matcher)),
      store_(store),
      live_filter_(live_filter),
      concept_id_(concept_id),
      candidates_(std::move(candidates)) {
  frame_.Reset(&compiled_, nullptr);
}

bool QueryStream::Next(const ValueHandle** row) {
  const size_t width = compiled_.slot_count();
  while (true) {
    if (pending_index_ < pending_rows_) {
      *row = pending_.data() + pending_index_++ * width;
      return true;
    }
    if (next_candidate_ >= candidates_.size()) return false;
    const std::uint32_t ordinal = candidates_[next_candidate_++];
    if (live_filter_ != nullptr) {
      const FactId fid = store_->IdAt(concept_id_, ordinal);
      if (fid < live_filter_->size() && !(*live_filter_)[fid]) continue;
    }
    pending_.clear();
    pending_rows_ = 0;
    pending_index_ = 0;
    matcher_.Match(store_->ViewAt(concept_id_, ordinal), &frame_,
                   [&](const MatchFrame& match) {
                     for (size_t i = 0; i < width; ++i) {
                       pending_.push_back(match.slot(i));
                     }
                     ++pending_rows_;
                   });
  }
}

VectorRowSource::VectorRowSource(const std::vector<Bindings>* rows)
    : rows_(rows) {
  for (const Bindings& row : *rows) {
    // Rows of one pattern bind the same variables: only a row that
    // brings a new one pays the merge.
    const bool covered =
        std::all_of(row.begin(), row.end(), [&](const auto& entry) {
          return std::binary_search(vars_.begin(), vars_.end(), entry.first);
        });
    if (covered) continue;
    std::vector<std::string> keys;
    for (const auto& entry : row) keys.push_back(entry.first);
    std::vector<std::string> merged;
    std::set_union(vars_.begin(), vars_.end(), keys.begin(), keys.end(),
                   std::back_inserter(merged));
    vars_ = std::move(merged);
  }
  cells_.resize(vars_.size());
}

bool VectorRowSource::Next(const ValueHandle** row) {
  if (index_ >= rows_->size()) return false;
  const Bindings& bindings = (*rows_)[index_++];
  size_t slot = 0;
  for (const auto& [var, value] : bindings) {
    // Both sides are sorted: skip the variables this row lacks.
    while (vars_[slot] != var) cells_[slot++] = ValueHandle();
    cells_[slot++] = ValueHandle(&value);
  }
  while (slot < cells_.size()) cells_[slot++] = ValueHandle();
  *row = cells_.data();
  return true;
}

bool DistinctRows::Insert(const ValueHandle* row) {
  // The digest Bindings would get: each present (name, value) in order.
  const std::vector<std::string>& vars = *vars_;
  const size_t width = vars.size();
  std::uint64_t key = 0;
  for (size_t i = 0; i < width; ++i) {
    if (!row[i].valid()) continue;
    key = HashCombine(key, HashString(vars[i]));
    key = HashCombine(key, HashHandle(row[i]));
  }
  std::vector<std::uint32_t>& bucket = index_[key];
  for (const std::uint32_t kept : bucket) {
    if (RowsEqual(cells_.data() + kept * width, row, width)) return false;
  }
  bucket.push_back(static_cast<std::uint32_t>(rows_++));
  cells_.insert(cells_.end(), row, row + width);
  return true;
}

std::vector<Bindings> DistinctRows::TakeRows() const {
  std::vector<Bindings> rows;
  rows.reserve(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    rows.push_back(MaterializeRow(*vars_, cells_.data() + r * vars_->size()));
  }
  return rows;
}

size_t ApproxBindingsBytes(const Bindings& row) {
  size_t bytes = sizeof(Bindings);
  for (const auto& [var, value] : row) {
    bytes += kNodeOverhead + var.size() + ApproxValueBytes(ValueHandle(&value));
  }
  return bytes;
}

bool RowOrder::operator()(const Bindings& a, const Bindings& b) const {
  const auto ia = a.find(order_by);
  const auto ib = b.find(order_by);
  // Rows missing the sort variable go last in either direction.
  if ((ia != a.end()) != (ib != b.end())) return ia != a.end();
  if (ia != a.end() && ia->second != ib->second) {
    return descending ? ib->second < ia->second : ia->second < ib->second;
  }
  // Deterministic tie-break on the full row (always ascending), which
  // also makes incomparability coincide with row equality.
  return a < b;
}

/// A row in the top-k heap: its run in held_, or kInFlight for the
/// offer being classified (its cells are in_flight_). `bytes` is what
/// the row was charged when the heap kept it.
struct ResultPipeline::HeldRow {
  std::uint32_t row = kInFlight;
  size_t bytes = 0;
};

struct ResultPipeline::HeldRowOrder {
  const ResultPipeline* pipeline;
  bool operator()(const HeldRow& a, const HeldRow& b) const {
    return pipeline->Precedes(pipeline->Cells(a.row), pipeline->Cells(b.row));
  }
};

ResultPipeline::ResultPipeline(std::unique_ptr<RowSource> source,
                               PipelineSpec spec)
    : source_(std::move(source)), spec_(std::move(spec)) {
  const std::vector<std::string>& source_vars = source_->vars();
  auto slot_of = [&](const std::string& var) {
    auto it = std::lower_bound(source_vars.begin(), source_vars.end(), var);
    return it != source_vars.end() && *it == var
               ? static_cast<std::uint32_t>(it - source_vars.begin())
               : kNoSlot;
  };
  for (const RowFilter& filter : spec_.filters) {
    filter_slots_.push_back(slot_of(filter.var));
  }
  identity_ = spec_.project.empty();
  if (identity_) {
    vars_ = source_vars;
  } else {
    // Projected variables the source never binds are absent from every
    // row, so they are not output slots at all.
    for (const std::string& var : spec_.project) {
      if (slot_of(var) != kNoSlot) vars_.push_back(var);
    }
    std::sort(vars_.begin(), vars_.end());
    vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
    for (const std::string& var : vars_) project_.push_back(slot_of(var));
    projected_.resize(vars_.size());
  }
  if (!spec_.order_by.empty()) {
    auto it = std::lower_bound(vars_.begin(), vars_.end(), spec_.order_by);
    if (it != vars_.end() && *it == spec_.order_by) {
      order_slot_ = static_cast<std::uint32_t>(it - vars_.begin());
    }
  }
  distinct_ = DistinctRows(&vars_);
}

ResultPipeline::~ResultPipeline() = default;

void ResultPipeline::HoldBytes(size_t bytes) {
  held_bytes_ += bytes;
  stats_.peak_held_bytes = std::max(stats_.peak_held_bytes, held_bytes_);
}

void ResultPipeline::ReleaseBytes(size_t bytes) {
  held_bytes_ -= std::min(held_bytes_, bytes);
}

size_t ResultPipeline::ApproxRowBytes(const ValueHandle* row) const {
  size_t bytes = sizeof(Bindings);
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (!row[i].valid()) continue;
    bytes += kNodeOverhead + vars_[i].size() + ApproxValueBytes(row[i]);
  }
  return bytes;
}

bool ResultPipeline::Precedes(const ValueHandle* a,
                              const ValueHandle* b) const {
  if (order_slot_ != kNoSlot) {
    const ValueHandle& a_key = a[order_slot_];
    const ValueHandle& b_key = b[order_slot_];
    // Rows missing the sort variable go last in either direction.
    if (a_key.valid() != b_key.valid()) return a_key.valid();
    if (a_key.valid() && !HandlesEqual(a_key, b_key)) {
      return spec_.descending ? HandleLess(b_key, a_key)
                              : HandleLess(a_key, b_key);
    }
  }
  return RowLess(a, b, vars_.size());
}

bool ResultPipeline::PassesFilters(const ValueHandle* row) const {
  for (size_t f = 0; f < spec_.filters.size(); ++f) {
    const RowFilter& filter = spec_.filters[f];
    const std::uint32_t slot = filter_slots_[f];
    if (slot == kNoSlot || !row[slot].valid()) return false;
    // Only the filtered value is built, never the row. Incomparable
    // kinds under an inequality: the predicate is not satisfied, the row
    // is filtered (not an error — heterogeneous concepts legitimately mix
    // value kinds per attribute).
    const Result<bool> verdict =
        Compare(row[slot].Materialize(), filter.op, filter.value);
    if (!verdict.ok() || !verdict.value()) return false;
  }
  return true;
}

bool ResultPipeline::PullTransformed(const ValueHandle** row) {
  const ValueHandle* raw = nullptr;
  while (source_->Next(&raw)) {
    ++stats_.rows_in;
    if (!PassesFilters(raw)) {
      ++stats_.rows_filtered;
      continue;
    }
    if (identity_) {
      *row = raw;
      return true;
    }
    for (size_t i = 0; i < project_.size(); ++i) projected_[i] = raw[project_[i]];
    *row = projected_.data();
    return true;
  }
  return false;
}

bool ResultPipeline::DedupAdmit(const ValueHandle* row) {
  if (!distinct_.Insert(row)) return false;
  HoldBytes(ApproxRowBytes(row));
  return true;
}

void ResultPipeline::DrainSorted() {
  using HeldTopK = BoundedTopK<HeldRow, HeldRowOrder>;
  // Drain the upstream through the bounded heap: at most `limit` rows
  // (plus the one in flight) are ever held, however large the answer
  // set is. limit == 0 degrades to a full sort.
  // With an unbounded sort the O(k) in-heap duplicate scan would be
  // quadratic; dedup up front through the digest store instead.
  const bool heap_dedup = spec_.limit > 0;
  HeldTopK topk(spec_.limit, HeldRowOrder{this}, heap_dedup);
  const size_t width = vars_.size();
  // An offer is classified against the heap in place; only a row the
  // heap keeps is copied into a held run, and only such a row is sized.
  const auto keep = [&](HeldRow& kept) {
    if (!free_.empty()) {
      kept.row = free_.back();
      free_.pop_back();
      std::copy(in_flight_, in_flight_ + width, held_.begin() + kept.row * width);
    } else {
      kept.row = held_count_++;
      held_.insert(held_.end(), in_flight_, in_flight_ + width);
    }
    if (!heap_dedup) return;
    kept.bytes = ApproxRowBytes(in_flight_);
    HoldBytes(kept.bytes);
  };
  HeldRow displaced;
  while (PullTransformed(&in_flight_)) {
    if (!heap_dedup && !DedupAdmit(in_flight_)) {
      ++stats_.rows_deduped;
      continue;
    }
    switch (topk.Push(HeldRow{}, &displaced, keep)) {
      case HeldTopK::Offer::kKept:
        break;
      case HeldTopK::Offer::kKeptEvicted:
        // An evicted row gives back what it was charged, and its run.
        ReleaseBytes(displaced.bytes);
        free_.push_back(displaced.row);
        break;
      case HeldTopK::Offer::kDuplicate:
        ++stats_.rows_deduped;
        break;
      case HeldTopK::Offer::kRejected:
        break;
    }
  }
  in_flight_ = nullptr;
  stats_.heap_evictions = topk.evictions();
  // Without heap dedup the dedup store counted the rows as it admitted
  // them.
  for (const HeldRow& held : topk.TakeSorted()) sorted_.push_back(held.row);
}

bool ResultPipeline::Next(Bindings* row) {
  if (exhausted_) return false;
  if (spec_.limit > 0 && emitted_ >= spec_.limit) {
    exhausted_ = true;
    return false;
  }

  if (!spec_.order_by.empty()) {
    if (!sorted_ready_) {
      DrainSorted();
      sorted_ready_ = true;
    }
    if (sorted_index_ >= sorted_.size()) {
      exhausted_ = true;
      return false;
    }
    *row = MaterializeRow(vars_, Cells(sorted_[sorted_index_++]));
    ++emitted_;
    ++stats_.rows_out;
    return true;
  }

  // Streaming path: one row at a time; only the dedup store
  // accumulates.
  const ValueHandle* candidate = nullptr;
  while (PullTransformed(&candidate)) {
    if (!DedupAdmit(candidate)) {
      ++stats_.rows_deduped;
      continue;
    }
    *row = MaterializeRow(vars_, candidate);
    ++emitted_;
    ++stats_.rows_out;
    return true;
  }
  exhausted_ = true;
  return false;
}

}  // namespace ooint
