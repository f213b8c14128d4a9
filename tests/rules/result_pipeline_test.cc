// Unit coverage for the streaming result pipeline (DESIGN.md §4k):
// filter → project → distinct → sort/limit composition, the bounded
// top-k heap (exact distinct top-k in O(k) memory), the total row
// order the sort stage relies on, and the peak-held-bytes memory
// accounting the E17 experiment reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/topk.h"
#include "rules/result_pipeline.h"

namespace ooint {
namespace {

Bindings Row(std::initializer_list<std::pair<std::string, Value>> pairs) {
  Bindings row;
  for (const auto& [var, value] : pairs) row.emplace(var, value);
  return row;
}

std::vector<Bindings> Drain(RowSource* source) {
  std::vector<Bindings> rows;
  Bindings row;
  while (source->Next(&row)) rows.push_back(row);
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
  spec.distinct = true;
  auto pipeline = MakePipeline(&rows, spec);
  const std::vector<Bindings> out = Drain(pipeline.get());
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(pipeline->stats().rows_deduped, 5u);

  // Without distinct the duplicates stream through.
  PipelineSpec keep;
  keep.project = {"x"};
  auto dup = MakePipeline(&rows, keep);
  EXPECT_EQ(Drain(dup.get()).size(), 10u);
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
    spec.distinct = true;
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
  spec.distinct = true;
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
  spec.distinct = true;
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
      spec.distinct = true;
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

}  // namespace
}  // namespace ooint
