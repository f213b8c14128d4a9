#ifndef OOINT_RULES_RESULT_PIPELINE_H_
#define OOINT_RULES_RESULT_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/topk.h"
#include "model/value.h"
#include "rules/matcher.h"

namespace ooint {

/// A pull-based row stream (the RediSearch result_processor idiom):
/// each Next() yields one answer row, false at end of stream. Sources
/// are single-consumer and not thread-safe; the serving layer
/// serializes cursor access.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// Fills *row and returns true, or returns false at end of stream.
  virtual bool Next(Bindings* row) = 0;
};

/// Adapts a borrowed, already-materialized row vector. The vector must
/// outlive the source — the demand serving path hands in rows owned by
/// a cached DemandOutcome the cursor keeps alive.
class VectorRowSource : public RowSource {
 public:
  explicit VectorRowSource(const std::vector<Bindings>* rows) : rows_(rows) {}
  bool Next(Bindings* row) override {
    if (index_ >= rows_->size()) return false;
    *row = (*rows_)[index_++];
    return true;
  }

 private:
  const std::vector<Bindings>* rows_;
  size_t index_ = 0;
};

/// Distinct rows in first-arrival order: each row is keyed by a 64-bit
/// digest and verified by row equality, so no per-row key strings. The
/// one row-dedup store of the answer path — Evaluator::Query() drains
/// its stream into one, and ResultPipeline's streaming dedup keeps one.
class DistinctRows {
 public:
  /// Keeps `row` unless an equal row is held; true when kept.
  bool Insert(Bindings row);
  /// The kept rows, in the order they first arrived.
  std::vector<Bindings> TakeRows() { return std::move(rows_); }

 private:
  std::unordered_map<std::uint64_t, std::vector<size_t>> seen_;
  std::vector<Bindings> rows_;
};

/// One comparison predicate over a result variable. A row that lacks
/// the variable, or whose value is not comparable to `value` (mixed
/// kinds under an inequality), does not pass.
struct RowFilter {
  std::string var;
  CompareOp op = CompareOp::kEq;
  Value value;
};

/// Declarative pipeline shape: filter → project → dedup → sort/limit →
/// (the caller paginates by pulling).
struct PipelineSpec {
  std::vector<RowFilter> filters;
  /// Variables to keep (empty = identity projection). Variables absent
  /// from a row are simply absent from its projection.
  std::vector<std::string> project;
  /// Exact de-duplication of the (projected) output rows. The serving
  /// layer always enables this so pages reproduce Run()'s distinct
  /// answer semantics; projection can otherwise manufacture duplicates.
  bool distinct = false;
  /// Sort variable (empty = stream order, no sort). Rows missing the
  /// variable sort after all rows that have it, in either direction;
  /// ties break on the full row ordering (ascending), making the sort
  /// a deterministic total order.
  std::string order_by;
  bool descending = false;
  /// Maximum rows the pipeline emits overall (0 = unlimited). With
  /// `order_by` this is the top-k bound — the sort stage holds at most
  /// `limit` rows at any instant.
  size_t limit = 0;
};

/// Pipeline instrumentation, including the measured memory proxy for
/// the bounded-top-k claim (EXPERIMENTS E17): `peak_held_bytes` is the
/// largest approximate row-payload footprint the pipeline retained at
/// any instant (top-k heap + dedup store + in-flight row). It counts
/// `sizeof(Value)` per bound value, so it moves with the Value layout.
struct PipelineStats {
  size_t rows_in = 0;
  size_t rows_filtered = 0;
  size_t rows_deduped = 0;
  size_t heap_evictions = 0;
  size_t rows_out = 0;
  size_t peak_held_bytes = 0;
};

/// Approximate heap footprint of one row: map nodes, variable names,
/// and value payloads.
size_t ApproxBindingsBytes(const Bindings& row);

/// Orders rows by `order_by` (missing-last, optional descending), tie
/// broken by the full Bindings ordering — the total order BoundedTopK
/// requires (incomparable == identical row). Exposed so oracles can
/// reproduce the serving sort exactly.
struct RowOrder {
  std::string order_by;
  bool descending = false;
  bool operator()(const Bindings& a, const Bindings& b) const;
  /// The same order over rows whose `order_by` values were looked up
  /// already (null for a row that lacks the variable).
  bool KeyedLess(const Value* a_key, const Bindings& a, const Value* b_key,
                 const Bindings& b) const;
};

/// The composed pipeline, itself a RowSource. With `order_by` set the
/// first Next() drains the upstream through a bounded top-k heap (at
/// most `limit` rows held; `limit` == 0 degrades to a full sort) and
/// then emits in order; without it rows stream through one at a time
/// and only the dedup store (when `distinct`) accumulates.
class ResultPipeline : public RowSource {
 public:
  ResultPipeline(std::unique_ptr<RowSource> source, PipelineSpec spec);
  bool Next(Bindings* row) override;
  const PipelineStats& stats() const { return stats_; }

 private:
  /// Pulls one upstream row through filter + project. False at EOS.
  bool PullTransformed(Bindings* row);
  bool PassesFilters(const Bindings& row) const;
  /// True when `row` is new, and then holds a copy in the dedup store.
  bool DedupAdmit(const Bindings& row);
  void HoldBytes(size_t bytes);
  void ReleaseBytes(size_t bytes);

  std::unique_ptr<RowSource> source_;
  PipelineSpec spec_;
  PipelineStats stats_;

  /// Sorted path: built on first Next(), then drained front to back.
  bool sorted_ready_ = false;
  std::vector<Bindings> sorted_;
  size_t sorted_index_ = 0;

  /// Streaming dedup store (also the unbounded sort's up-front dedup).
  DistinctRows distinct_;

  size_t emitted_ = 0;
  size_t held_bytes_ = 0;
  bool exhausted_ = false;
};

}  // namespace ooint

#endif  // OOINT_RULES_RESULT_PIPELINE_H_
