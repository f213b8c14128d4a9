// Unit coverage for the streaming result pipeline (DESIGN.md §4k):
// filter → project → distinct → sort/limit composition, the bounded
// top-k heap (exact distinct top-k in O(k) memory), the total row
// order the sort stage relies on, and the peak-held-bytes memory
// accounting the E17 experiment reads. The pipeline ranks and
// de-duplicates handle rows and builds only the rows it emits; a seeded
// sweep holds it to the all-Bindings pipeline it replaced, kept below
// as the reference, over Value-backed and two-layer packed sources.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/topk.h"
#include "rules/fact_store.h"
#include "rules/result_pipeline.h"

namespace ooint {
namespace {

Bindings Row(std::initializer_list<std::pair<std::string, Value>> pairs) {
  Bindings row;
  for (const auto& [var, value] : pairs) row.emplace(var, value);
  return row;
}

std::vector<Bindings> Drain(ResultPipeline* pipeline) {
  std::vector<Bindings> rows;
  Bindings row;
  while (pipeline->Next(&row)) rows.push_back(row);
  return rows;
}

std::vector<Bindings> NumberedRows(int n) {
  std::vector<Bindings> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({{"x", Value::Integer(i)},
                        {"name", Value::String("row" + std::to_string(i))}}));
  }
  return rows;
}

std::unique_ptr<ResultPipeline> MakePipeline(const std::vector<Bindings>* rows,
                                             PipelineSpec spec) {
  return std::make_unique<ResultPipeline>(
      std::make_unique<VectorRowSource>(rows), std::move(spec));
}

TEST(PipelineFilterTest, ComparisonOpsAndMissingVars) {
  const std::vector<Bindings> rows = NumberedRows(10);
  PipelineSpec spec;
  spec.filters.push_back({"x", CompareOp::kGe, Value::Integer(3)});
  spec.filters.push_back({"x", CompareOp::kLt, Value::Integer(7)});
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  ASSERT_EQ(out.size(), 4u);  // 3, 4, 5, 6
  EXPECT_EQ(out.front().at("x"), Value::Integer(3));
  EXPECT_EQ(out.back().at("x"), Value::Integer(6));
  EXPECT_EQ(pipeline->stats().rows_in, 10u);
  EXPECT_EQ(pipeline->stats().rows_filtered, 6u);
  EXPECT_EQ(pipeline->stats().rows_out, 4u);

  // A filter on a variable the rows lack passes nothing.
  PipelineSpec missing;
  missing.filters.push_back({"absent", CompareOp::kEq, Value::Integer(1)});
  auto empty = MakePipeline(&rows, missing);
  EXPECT_TRUE(Drain(empty.get()).empty());

  // Incomparable kinds under an inequality filter the row out rather
  // than erroring the stream.
  PipelineSpec mixed;
  mixed.filters.push_back({"name", CompareOp::kLt, Value::Integer(5)});
  auto incomparable = MakePipeline(&rows, mixed);
  EXPECT_TRUE(Drain(incomparable.get()).empty());
}

TEST(PipelineProjectTest, ProjectionKeepsOnlyNamedVars) {
  const std::vector<Bindings> rows = NumberedRows(3);
  PipelineSpec spec;
  spec.project = {"name"};
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  ASSERT_EQ(out.size(), 3u);
  for (const Bindings& row : out) {
    EXPECT_EQ(row.size(), 1u);
    EXPECT_TRUE(row.count("name"));
  }
  // Projecting a variable no row has just leaves it absent.
  PipelineSpec ghost;
  ghost.project = {"name", "absent"};
  auto partial = MakePipeline(&rows, ghost);
  for (const Bindings& row : Drain(partial.get())) {
    EXPECT_EQ(row.size(), 1u);
  }
}

TEST(PipelineDistinctTest, ProjectionDuplicatesCollapse) {
  // Distinct x values 0..4, each present twice via distinct names.
  std::vector<Bindings> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row({{"x", Value::Integer(i % 5)},
                        {"name", Value::String("n" + std::to_string(i))}}));
  }
  PipelineSpec spec;
  spec.project = {"x"};
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(pipeline->stats().rows_deduped, 5u);
}

TEST(PipelineSortTest, TopKIsSortedPrefixBothDirections) {
  std::vector<Bindings> rows = NumberedRows(20);
  // Shuffle deterministically so stream order is not sorted order.
  std::reverse(rows.begin(), rows.begin() + 13);
  for (const bool descending : {false, true}) {
    PipelineSpec spec;
    spec.order_by = "x";
    spec.descending = descending;
    spec.limit = 5;
    auto pipeline = MakePipeline(&rows, spec);
    const std::vector<Bindings> out = Drain(pipeline.get());
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      const int expected = descending ? 19 - i : i;
      EXPECT_EQ(out[i].at("x"), Value::Integer(expected))
          << "descending=" << descending << " position " << i;
    }
    EXPECT_GT(pipeline->stats().heap_evictions, 0u);
  }
}

TEST(PipelineSortTest, FullSortWhenUnlimited) {
  std::vector<Bindings> rows = NumberedRows(8);
  std::reverse(rows.begin(), rows.end());
  PipelineSpec spec;
  spec.order_by = "x";
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].at("x"), Value::Integer(i));
  }
}

TEST(PipelineSortTest, MissingSortVarSortsLast) {
  std::vector<Bindings> rows = {
      Row({{"x", Value::Integer(2)}}),
      Row({{"y", Value::Integer(0)}}),  // no "x"
      Row({{"x", Value::Integer(1)}}),
  };
  for (const bool descending : {false, true}) {
    PipelineSpec spec;
    spec.order_by = "x";
    spec.descending = descending;
    auto pipeline = MakePipeline(&rows, spec);
    const std::vector<Bindings> out = Drain(pipeline.get());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out.back().count("x"), 0u)
        << "missing-key row must sort last, descending=" << descending;
  }
}

TEST(PipelineSortTest, DistinctTopKWithDuplicatesIsExact) {
  // Every value appears three times; distinct top-k must still be the
  // distinct sorted prefix even though the in-heap dedup scan forgets
  // evicted rows.
  std::vector<Bindings> rows;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 9; i >= 0; --i) {
      rows.push_back(Row({{"x", Value::Integer(i)}}));
    }
  }
  PipelineSpec spec;
  spec.order_by = "x";
  spec.limit = 4;
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].at("x"), Value::Integer(i));
  }
}

TEST(PipelineLimitTest, LimitWithoutSortTruncatesStream) {
  const std::vector<Bindings> rows = NumberedRows(10);
  PipelineSpec spec;
  spec.limit = 3;
  auto pipeline = MakePipeline(&rows, spec);
  EXPECT_EQ(Drain(pipeline.get()).size(), 3u);
  EXPECT_EQ(pipeline->stats().rows_out, 3u);
}

TEST(PipelineMemoryTest, BoundedTopKHoldsFarLessThanMaterialization) {
  const std::vector<Bindings> rows = NumberedRows(500);
  size_t whole_bytes = 0;
  for (const Bindings& row : rows) whole_bytes += ApproxBindingsBytes(row);

  PipelineSpec spec;
  spec.order_by = "x";
  spec.limit = 5;
  auto pipeline = MakePipeline(&rows, spec);
  EXPECT_EQ(Drain(pipeline.get()).size(), 5u);
  const size_t peak = pipeline->stats().peak_held_bytes;
  EXPECT_GT(peak, 0u);
  // The heap holds ~limit rows plus one in flight: far under the full
  // materialization the whole-answer path would retain.
  EXPECT_LT(peak, whole_bytes / 10);
}

TEST(PipelineMemoryTest, OidSizedAsItsDottedForm) {
  const size_t null_row = ApproxBindingsBytes(Row({{"o", Value::Null()}}));
  for (const std::uint64_t number :
       {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{10},
        std::uint64_t{12345}, std::numeric_limits<std::uint64_t>::max()}) {
    const Oid oid("agent-1", "ooint", "S1db", "brother", number);
    EXPECT_EQ(ApproxBindingsBytes(Row({{"o", Value::OfOid(oid)}})) - null_row,
              oid.ToString().size());
  }
}

TEST(PipelineRowOrderTest, TotalOrderTieBreaksOnFullRow) {
  const Bindings a = Row({{"x", Value::Integer(1)}, {"y", Value::Integer(1)}});
  const Bindings b = Row({{"x", Value::Integer(1)}, {"y", Value::Integer(2)}});
  RowOrder order{"x", false};
  // Equal sort keys: the full-row tie-break must order them, one way.
  EXPECT_NE(order(a, b), order(b, a));
  EXPECT_FALSE(order(a, a));
  RowOrder desc{"x", true};
  EXPECT_NE(desc(a, b), desc(b, a));
}

TEST(BoundedTopKTest, OfferOutcomesAndEvictionCount) {
  const auto less = [](int a, int b) { return a < b; };
  BoundedTopK<int, decltype(less)> topk(3, less);
  using Offer = BoundedTopK<int, decltype(less)>::Offer;
  EXPECT_EQ(topk.Push(5), Offer::kKept);
  EXPECT_EQ(topk.Push(1), Offer::kKept);
  EXPECT_EQ(topk.Push(9), Offer::kKept);
  EXPECT_EQ(topk.Push(5), Offer::kDuplicate);
  int displaced = 0;
  EXPECT_EQ(topk.Push(2, &displaced), Offer::kKeptEvicted);
  EXPECT_EQ(displaced, 9);
  EXPECT_EQ(topk.Push(100), Offer::kRejected);
  EXPECT_EQ(topk.evictions(), 2u);  // one eviction + one rejection
  const std::vector<int> sorted = topk.TakeSorted();
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 5}));
}

TEST(BoundedTopKTest, UnboundedKeepsEverything) {
  const auto less = [](int a, int b) { return a < b; };
  BoundedTopK<int, decltype(less)> topk(0, less, /*dedup=*/false);
  for (int i = 31; i >= 0; --i) topk.Push(i);
  EXPECT_EQ(topk.size(), 32u);
  EXPECT_EQ(topk.evictions(), 0u);
  const std::vector<int> sorted = topk.TakeSorted();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(BoundedTopKTest, FullHeapOfferedItsWorstIsADuplicate) {
  const auto less = [](int a, int b) { return a < b; };
  using Offer = BoundedTopK<int, decltype(less)>::Offer;
  BoundedTopK<int, decltype(less)> topk(3, less);
  topk.Push(5);
  topk.Push(1);
  topk.Push(9);
  EXPECT_EQ(topk.Push(9), Offer::kDuplicate);
  EXPECT_EQ(topk.evictions(), 0u);
  // Without dedup the same offer is a plain rejection.
  BoundedTopK<int, decltype(less)> keep_all(3, less, /*dedup=*/false);
  keep_all.Push(5);
  keep_all.Push(1);
  keep_all.Push(9);
  EXPECT_EQ(keep_all.Push(9), Offer::kRejected);
  EXPECT_EQ(keep_all.evictions(), 1u);
}

/// A test-local copy of BoundedTopK::Push as it was before the bound
/// check moved ahead of the duplicate scan: the reference for outcomes,
/// evictions and comparison counts.
template <typename T, typename Less>
class ScanFirstTopK {
 public:
  using Offer = typename BoundedTopK<T, Less>::Offer;

  ScanFirstTopK(size_t bound, Less less, bool dedup)
      : bound_(bound == 0 ? std::numeric_limits<size_t>::max() : bound),
        less_(std::move(less)),
        dedup_(dedup) {}

  Offer Push(T item, T* displaced = nullptr) {
    if (dedup_) {
      for (const T& held : heap_) {
        if (!less_(held, item) && !less_(item, held)) return Offer::kDuplicate;
      }
    }
    if (heap_.size() < bound_) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), less_);
      return Offer::kKept;
    }
    if (!less_(item, heap_.front())) {
      ++evictions_;
      return Offer::kRejected;
    }
    std::pop_heap(heap_.begin(), heap_.end(), less_);
    if (displaced != nullptr) *displaced = std::move(heap_.back());
    heap_.back() = std::move(item);
    std::push_heap(heap_.begin(), heap_.end(), less_);
    ++evictions_;
    return Offer::kKeptEvicted;
  }

  size_t evictions() const { return evictions_; }

  std::vector<T> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end(), less_);
    return std::move(heap_);
  }

 private:
  size_t bound_;
  Less less_;
  bool dedup_;
  std::vector<T> heap_;
  size_t evictions_ = 0;
};

struct CountingLess {
  size_t* calls;
  bool operator()(int a, int b) const {
    ++*calls;
    return a < b;
  }
};

TEST(BoundedTopKTest, BoundRejectedOfferCostsAtMostTwoComparisons) {
  constexpr size_t kBound = 8;
  for (const bool dedup : {true, false}) {
    size_t calls = 0;
    BoundedTopK<int, CountingLess> topk(kBound, CountingLess{&calls}, dedup);
    size_t reference_calls = 0;
    ScanFirstTopK<int, CountingLess> reference(
        kBound, CountingLess{&reference_calls}, dedup);
    for (int i = 0; i < static_cast<int>(kBound); ++i) {
      topk.Push(i);
      reference.Push(i);
    }
    calls = 0;
    reference_calls = 0;
    using Offer = BoundedTopK<int, CountingLess>::Offer;
    EXPECT_EQ(topk.Push(100), Offer::kRejected);
    reference.Push(100);
    EXPECT_LE(calls, dedup ? 2u : 1u);
    // The scan-first Push compared the offer with every held item first.
    if (dedup) {
      EXPECT_GE(reference_calls, kBound + 1);
    }
  }
}

TEST(BoundedTopKTest, SeededStreamMatchesTheScanFirstPush) {
  const auto less = [](int a, int b) { return a < b; };
  using Offer = BoundedTopK<int, decltype(less)>::Offer;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t bound = 1 + rng() % 12;
    const bool dedup = rng() % 4 != 0;
    BoundedTopK<int, decltype(less)> topk(bound, less, dedup);
    ScanFirstTopK<int, decltype(less)> reference(bound, less, dedup);
    for (int i = 0; i < 300; ++i) {
      const int item = static_cast<int>(rng() % 60);
      int displaced = -1;
      int reference_displaced = -1;
      const Offer got = topk.Push(item, &displaced);
      const Offer want = reference.Push(item, &reference_displaced);
      ASSERT_EQ(got, want) << "seed " << seed << " offer " << i;
      ASSERT_EQ(displaced, reference_displaced);
      ASSERT_EQ(topk.evictions(), reference.evictions());
    }
    EXPECT_EQ(topk.TakeSorted(), reference.TakeSorted());
  }
}

/// serve_live's top-k read: 256 families, two children each, streamed in
/// a seeded order as rows {_self, kid, who}; a few rows repeat and a few
/// lack the sort variable. The cursor projects to {who, kid}, keeps
/// distinct rows and orders by kid.
std::vector<Bindings> ServeLiveShapedStream() {
  std::vector<Bindings> rows;
  for (int family = 0; family < 256; ++family) {
    for (const char child : {'a', 'b'}) {
      Bindings row;
      row.emplace("_self",
                  Value::OfOid(Oid("derived", "ooint", "global", "uncle",
                                   static_cast<std::uint64_t>(rows.size()))));
      row.emplace("who", Value::String("U" + std::to_string(family)));
      if (rows.size() % 61 != 7) {
        row.emplace("kid", Value::String("C" + std::to_string(family) + child));
      }
      rows.push_back(std::move(row));
    }
  }
  std::mt19937_64 rng(11);
  std::shuffle(rows.begin(), rows.end(), rng);
  // Projection drops _self, so these become duplicate rows.
  for (size_t i = 0; i < 6; ++i) rows[100 + i] = rows[300 + 7 * i];
  return rows;
}

TEST(PipelineSortTest, ServeLiveShapedTopKMatchesTheWholeSort) {
  const std::vector<Bindings> stream = ServeLiveShapedStream();
  ASSERT_EQ(stream.size(), 512u);
  std::vector<Bindings> projected;
  for (const Bindings& row : stream) {
    Bindings p = row;
    p.erase("_self");
    projected.push_back(std::move(p));
  }
  for (const size_t limit : {size_t{10}, size_t{0}}) {
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "limit " << limit << " descending " << descending);
      const RowOrder order{"kid", descending};
      // The answer: the whole projected stream, distinct, sorted.
      std::vector<Bindings> sorted = projected;
      std::sort(sorted.begin(), sorted.end(), order);
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      if (limit > 0) sorted.resize(limit);

      // The stats the scan-first heap gives on the same stream.
      PipelineStats want;
      want.rows_in = stream.size();
      want.rows_out = sorted.size();
      size_t held = 0;
      if (limit > 0) {
        ScanFirstTopK<Bindings, RowOrder> reference(limit, order, true);
        for (const Bindings& row : projected) {
          const size_t bytes = ApproxBindingsBytes(row);
          Bindings displaced;
          switch (reference.Push(row, &displaced)) {
            case BoundedTopK<Bindings, RowOrder>::Offer::kKept:
            case BoundedTopK<Bindings, RowOrder>::Offer::kKeptEvicted:
              held += bytes;
              want.peak_held_bytes = std::max(want.peak_held_bytes, held);
              held -= displaced.empty() ? 0 : ApproxBindingsBytes(displaced);
              break;
            case BoundedTopK<Bindings, RowOrder>::Offer::kDuplicate:
              ++want.rows_deduped;
              break;
            case BoundedTopK<Bindings, RowOrder>::Offer::kRejected:
              break;
          }
        }
        want.heap_evictions = reference.evictions();
        EXPECT_EQ(reference.TakeSorted(), sorted);
      } else {
        // Unbounded: the digest store dedups up front and is what is held.
        std::vector<Bindings> seen;
        for (const Bindings& row : projected) {
          if (std::find(seen.begin(), seen.end(), row) != seen.end()) {
            ++want.rows_deduped;
            continue;
          }
          seen.push_back(row);
          want.peak_held_bytes += ApproxBindingsBytes(row);
        }
      }

      PipelineSpec spec;
      spec.project = {"who", "kid"};
        spec.order_by = "kid";
      spec.descending = descending;
      spec.limit = limit;
      auto pipeline = MakePipeline(&stream, spec);
      std::vector<Bindings> pages;
      Bindings row;
      while (pipeline->Next(&row)) pages.push_back(row);
      EXPECT_TRUE(pages == sorted);
      if (limit == 0) {
        // Rows without the sort variable come last in both directions.
        EXPECT_EQ(pages.back().count("kid"), 0u);
        EXPECT_EQ(pages.front().count("kid"), 1u);
      }
      const PipelineStats& got = pipeline->stats();
      EXPECT_EQ(got.rows_in, want.rows_in);
      EXPECT_EQ(got.rows_filtered, 0u);
      EXPECT_EQ(got.rows_deduped, want.rows_deduped);
      EXPECT_EQ(got.heap_evictions, want.heap_evictions);
      EXPECT_EQ(got.rows_out, want.rows_out);
      EXPECT_EQ(got.peak_held_bytes, want.peak_held_bytes);
    }
  }
}

/// The pipeline before rows became handles: every row a Bindings from
/// the source on, projected by moving map nodes, de-duplicated by a
/// digest map verified by Bindings equality and ranked by RowOrder —
/// the reference for rows and every PipelineStats field.
class BindingsPipeline {
 public:
  BindingsPipeline(const std::vector<Bindings>* rows, PipelineSpec spec)
      : rows_(rows), spec_(std::move(spec)) {}

  const PipelineStats& stats() const { return stats_; }

  bool Next(Bindings* row) {
    if (exhausted_) return false;
    if (spec_.limit > 0 && emitted_ >= spec_.limit) {
      exhausted_ = true;
      return false;
    }
    if (!spec_.order_by.empty()) {
      if (!sorted_ready_) Sort();
      if (sorted_index_ >= sorted_.size()) {
        exhausted_ = true;
        return false;
      }
      *row = std::move(sorted_[sorted_index_++]);
      ++emitted_;
      ++stats_.rows_out;
      return true;
    }
    Bindings candidate;
    while (PullTransformed(&candidate)) {
      if (!DedupAdmit(candidate)) {
        ++stats_.rows_deduped;
        continue;
      }
      *row = std::move(candidate);
      ++emitted_;
      ++stats_.rows_out;
      return true;
    }
    exhausted_ = true;
    return false;
  }

 private:
  struct HeldRow {
    Bindings row;
    size_t bytes = 0;
  };
  struct HeldRowOrder {
    RowOrder order;
    bool operator()(const HeldRow& a, const HeldRow& b) const {
      return order(a.row, b.row);
    }
  };

  void Sort() {
    using HeldTopK = BoundedTopK<HeldRow, HeldRowOrder>;
    const bool heap_dedup = spec_.limit > 0;
    HeldTopK topk(spec_.limit,
                  HeldRowOrder{RowOrder{spec_.order_by, spec_.descending}},
                  heap_dedup);
    const auto charge = [&](HeldRow& kept) {
      if (!heap_dedup) return;
      kept.bytes = ApproxBindingsBytes(kept.row);
      HoldBytes(kept.bytes);
    };
    HeldRow incoming;
    HeldRow displaced;
    while (PullTransformed(&incoming.row)) {
      if (!heap_dedup && !DedupAdmit(incoming.row)) {
        ++stats_.rows_deduped;
        continue;
      }
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
    for (HeldRow& h : topk.TakeSorted()) sorted_.push_back(std::move(h.row));
    sorted_ready_ = true;
  }

  bool PassesFilters(const Bindings& row) const {
    for (const RowFilter& filter : spec_.filters) {
      const auto it = row.find(filter.var);
      if (it == row.end()) return false;
      const Result<bool> verdict = Compare(it->second, filter.op, filter.value);
      if (!verdict.ok() || !verdict.value()) return false;
    }
    return true;
  }

  bool PullTransformed(Bindings* row) {
    while (index_ < rows_->size()) {
      Bindings raw = (*rows_)[index_++];
      ++stats_.rows_in;
      if (!PassesFilters(raw)) {
        ++stats_.rows_filtered;
        continue;
      }
      if (spec_.project.empty()) {
        *row = std::move(raw);
        return true;
      }
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

  bool DedupAdmit(const Bindings& row) {
    std::uint64_t digest = 0;
    for (const auto& [var, value] : row) {
      digest = HashCombine(digest, HashString(var));
      digest = HashCombine(digest, HashValue(value));
    }
    std::vector<size_t>& bucket = seen_[digest];
    for (size_t index : bucket) {
      if (kept_[index] == row) return false;
    }
    bucket.push_back(kept_.size());
    kept_.push_back(row);
    HoldBytes(ApproxBindingsBytes(row));
    return true;
  }

  void HoldBytes(size_t bytes) {
    held_bytes_ += bytes;
    stats_.peak_held_bytes = std::max(stats_.peak_held_bytes, held_bytes_);
  }
  void ReleaseBytes(size_t bytes) { held_bytes_ -= std::min(held_bytes_, bytes); }

  const std::vector<Bindings>* rows_;
  size_t index_ = 0;
  PipelineSpec spec_;
  PipelineStats stats_;
  bool sorted_ready_ = false;
  std::vector<Bindings> sorted_;
  size_t sorted_index_ = 0;
  std::map<std::uint64_t, std::vector<size_t>> seen_;
  std::vector<Bindings> kept_;
  size_t emitted_ = 0;
  size_t held_bytes_ = 0;
  bool exhausted_ = false;
};

/// Rows rendered value by value, so NaN rows compare as text.
std::string RowsText(const std::vector<Bindings>& rows) {
  std::string text;
  for (const Bindings& row : rows) {
    text += "{";
    for (const auto& [var, value] : row) {
      text += var + "=" + value.ToString() + " ";
    }
    text += "}\n";
  }
  return text;
}

std::string StatsText(const PipelineStats& s) {
  return "in=" + std::to_string(s.rows_in) +
         " filtered=" + std::to_string(s.rows_filtered) +
         " deduped=" + std::to_string(s.rows_deduped) +
         " evictions=" + std::to_string(s.heap_evictions) +
         " out=" + std::to_string(s.rows_out) +
         " peak=" + std::to_string(s.peak_held_bytes);
}

/// Draws row values from small pools — so repeats, ties and both
/// zeros are common — and strings in an order unrelated to their text,
/// so a store's symbol ids disagree with the string order.
class RowDraw {
 public:
  explicit RowDraw(std::uint64_t seed) : rng_(seed) {}

  Value Scalar() {
    static const char* const kStrings[] = {"pear", "apple", "mango", "fig",
                                           "banana"};
    switch (Pick(6)) {
      case 0:
        return Value::Integer(static_cast<std::int64_t>(Pick(4)));
      case 1:
      case 2:
        return Value::String(kStrings[Pick(5)]);
      case 3: {
        static constexpr double kReals[] = {
            -0.0, 0.0, 1.5, std::numeric_limits<double>::quiet_NaN()};
        return Value::Real(kReals[Pick(4)]);
      }
      case 4:
        return Value::OfOid(Oid(Pick(2) == 0 ? "b0" : "a1", "ooint", "db",
                                "r", Pick(3)));
      default:
        return Pick(4) == 0 ? Value::Null() : Value::Character('a' + Pick(3));
    }
  }

  Value Any() {
    if (Pick(6) != 0) return Scalar();
    std::vector<Value> elements;
    for (size_t i = Pick(3); i > 0; --i) elements.push_back(Scalar());
    return Value::Set(std::move(elements));
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

 private:
  std::mt19937_64 rng_;
};

/// A two-layer store of R facts {a, b, c} (some re-stated in the overlay
/// under their segment OIDs) and the stream of <o : R | a: x, b: y, c: z>.
class PackedRows {
 public:
  PackedRows(RowDraw* draw, size_t facts) {
    pattern_.object = TermArg::Variable("o");
    pattern_.class_name = "R";
    pattern_.attrs = {{"a", false, TermArg::Variable("x")},
                      {"b", false, TermArg::Variable("y")},
                      {"c", false, TermArg::Variable("z")}};
    auto segment = std::make_shared<FactStore>();
    std::vector<Fact> drawn;
    for (size_t i = 0; i < facts; ++i) {
      Fact fact;
      fact.concept_name = "R";
      fact.oid = Oid("agent", "ooint", "db", "r", draw->Pick(facts));
      fact.attrs = {{"a", draw->Any()}, {"b", draw->Any()}, {"c", draw->Any()}};
      drawn.push_back(fact);
      if (i < facts / 2) segment->Insert(std::move(fact));
    }
    store_.AttachSegment(std::move(segment));
    for (size_t i = facts / 2; i < facts; ++i) store_.Insert(drawn[i]);
    for (size_t i = 0; i < facts / 4; ++i) {
      Fact restated = drawn[draw->Pick(facts / 2)];
      restated.attrs["d"] = draw->Scalar();
      store_.Insert(std::move(restated));
    }
  }

  std::unique_ptr<RowSource> Stream() const {
    const ConceptId concept_id = store_.FindConcept("R");
    std::vector<std::uint32_t> ordinals(store_.CountOf(concept_id));
    for (std::uint32_t i = 0; i < ordinals.size(); ++i) ordinals[i] = i;
    return std::make_unique<QueryStream>(
        pattern_,
        FactMatcher([this](const Oid& oid) { return store_.ViewByOid(oid); },
                    nullptr),
        &store_, nullptr, concept_id, std::move(ordinals));
  }

 private:
  OTerm pattern_;
  FactStore store_;
};

/// Every spec the sweep runs: filters × projection × order × direction ×
/// limit.
std::vector<PipelineSpec> AllSpecs() {
  const std::vector<std::vector<RowFilter>> filters = {
      {},
      {{"x", CompareOp::kGe, Value::Integer(1)}},
      {{"y", CompareOp::kNe, Value::String("fig")},
       {"z", CompareOp::kLt, Value::String("mango")}}};
  const std::vector<std::vector<std::string>> projections = {
      {}, {"x", "y"}, {"y", "absent", "y"}, {"z"}};
  std::vector<PipelineSpec> specs;
  for (const auto& f : filters) {
    for (const auto& project : projections) {
      for (const char* order_by : {"", "x", "y", "absent"}) {
        for (const bool descending : {false, true}) {
          for (const size_t limit : {size_t{0}, size_t{3}}) {
            if (order_by[0] == '\0' && descending) continue;
            PipelineSpec spec;
            spec.filters = f;
            spec.project = project;
            spec.order_by = order_by;
            spec.descending = descending;
            spec.limit = limit;
            specs.push_back(std::move(spec));
          }
        }
      }
    }
  }
  return specs;
}

std::string SpecText(const PipelineSpec& spec) {
  std::string text = "filters=" + std::to_string(spec.filters.size()) +
                     " project=" + std::to_string(spec.project.size()) +
                     " order_by=" + spec.order_by +
                     " descending=" + std::to_string(spec.descending) +
                     " limit=" + std::to_string(spec.limit);
  return text;
}

/// Runs `spec` over the first `n` rows of `stream` both ways; the source
/// factory must yield exactly those rows.
void ExpectSameAsReference(
    const std::vector<Bindings>& stream, size_t n, const PipelineSpec& spec,
    const std::function<std::unique_ptr<RowSource>()>& source) {
  const std::vector<Bindings> prefix(stream.begin(), stream.begin() + n);
  BindingsPipeline reference(&prefix, spec);
  std::vector<Bindings> want;
  Bindings row;
  while (reference.Next(&row)) want.push_back(row);
  ResultPipeline pipeline(source(), spec);
  std::vector<Bindings> got;
  while (pipeline.Next(&row)) got.push_back(row);
  ASSERT_EQ(RowsText(got), RowsText(want)) << SpecText(spec) << " n=" << n;
  ASSERT_EQ(StatsText(pipeline.stats()), StatsText(reference.stats()))
      << SpecText(spec) << " n=" << n;
}

/// Feeds only the first `n` rows of another source.
class PrefixSource : public RowSource {
 public:
  PrefixSource(std::unique_ptr<RowSource> source, size_t n)
      : source_(std::move(source)), left_(n) {}
  const std::vector<std::string>& vars() const override {
    return source_->vars();
  }
  bool Next(const ValueHandle** row) override {
    if (left_ == 0) return false;
    --left_;
    return source_->Next(row);
  }

 private:
  std::unique_ptr<RowSource> source_;
  size_t left_;
};

TEST(PipelineEquivalenceTest, SeededStreamsMatchTheBindingsPipeline) {
  const std::vector<PipelineSpec> specs = AllSpecs();
  size_t heap_offers = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    RowDraw draw(seed);
    // Demand-shaped: a cached outcome's rows, some lacking a variable.
    std::vector<Bindings> outcome_rows;
    for (size_t i = 0; i < 40; ++i) {
      Bindings row;
      for (const char* var : {"x", "y", "z"}) {
        if (draw.Pick(8) != 0) row.emplace(var, draw.Any());
      }
      outcome_rows.push_back(std::move(row));
    }
    for (size_t i = 0; i < 6; ++i) {
      outcome_rows[draw.Pick(40)] = outcome_rows[draw.Pick(40)];
    }
    // Packed: a two-layer store's stream, and its rows as the reference
    // input.
    const PackedRows packed(&draw, 24);
    std::vector<Bindings> packed_rows;
    {
      std::unique_ptr<RowSource> stream = packed.Stream();
      Bindings row;
      while (stream->NextBindings(&row)) packed_rows.push_back(row);
    }
    ASSERT_GT(packed_rows.size(), 10u);

    for (const PipelineSpec& spec : specs) {
      const bool top_k = !spec.order_by.empty() && spec.limit > 0;
      // Top-k runs every prefix too: equal rows and stats after each
      // offer mean each offer was kept, evicted, rejected or found a
      // duplicate exactly as the reference's Push classified it.
      for (size_t n = top_k ? 0 : outcome_rows.size(); n <= outcome_rows.size();
           ++n) {
        ExpectSameAsReference(outcome_rows, n, spec, [&] {
          return std::make_unique<PrefixSource>(
              std::make_unique<VectorRowSource>(&outcome_rows), n);
        });
        if (::testing::Test::HasFatalFailure()) return;
      }
      for (size_t n = top_k ? 0 : packed_rows.size(); n <= packed_rows.size();
           ++n) {
        ExpectSameAsReference(packed_rows, n, spec, [&] {
          return std::make_unique<PrefixSource>(packed.Stream(), n);
        });
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (top_k) heap_offers += outcome_rows.size() + packed_rows.size();
    }
  }
  EXPECT_GT(heap_offers, 10000u);
}

}  // namespace
}  // namespace ooint
