#ifndef OOINT_RULES_RESULT_PIPELINE_H_
#define OOINT_RULES_RESULT_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/value.h"
#include "rules/fact_store.h"
#include "rules/matcher.h"

namespace ooint {

/// A pull-based row stream (the RediSearch result_processor idiom).
/// Rows travel as value handles (DESIGN.md §4k): slot i of a row binds
/// vars()[i], and an invalid handle marks a variable the row lacks.
/// Bindings are built only for a row that leaves the answer path
/// (MaterializeRow). Sources are single-consumer and not thread-safe;
/// the serving layer serializes cursor access.
class RowSource {
 public:
  virtual ~RowSource() = default;
  /// The variables of every row, sorted and unique, fixed for the
  /// source's life.
  virtual const std::vector<std::string>& vars() const = 0;
  /// Points *row at the next row's vars().size() handles, valid until
  /// the next call, or returns false at end of stream.
  virtual bool Next(const ValueHandle** row) = 0;
  /// The next row, materialized, or false at end of stream.
  bool NextBindings(Bindings* row);
};

/// The Bindings of handle row `row` over `vars`: every present slot,
/// materialized. The one place an answer row is built.
Bindings MaterializeRow(const std::vector<std::string>& vars,
                        const ValueHandle* row);

/// The answer path's row source: the rows of one O-term pattern over
/// chosen candidate facts of a store. The pattern is compiled once; each
/// pull matches the next candidate into a frame of handles. A candidate
/// can match several ways (set attributes match element-wise), so its
/// rows — copies of the frame's slots, no values — drain first. Rows
/// are not de-duplicated. Borrows `store` and `live_filter` (a
/// FactId-indexed liveness column; null admits every fact), and the
/// store must not gain facts while the stream is open.
class QueryStream : public RowSource {
 public:
  QueryStream(OTerm pattern, FactMatcher matcher, const FactStore* store,
              const std::vector<std::uint8_t>* live_filter,
              ConceptId concept_id, std::vector<std::uint32_t> candidates);
  // compiled_ points into pattern_, and frame_ at compiled_.
  QueryStream(const QueryStream&) = delete;
  QueryStream& operator=(const QueryStream&) = delete;

  const std::vector<std::string>& vars() const override {
    return compiled_.vars();
  }
  bool Next(const ValueHandle** row) override;

 private:
  OTerm pattern_;
  CompiledOTerm compiled_;
  FactMatcher matcher_;
  MatchFrame frame_;
  const FactStore* store_;
  const std::vector<std::uint8_t>* live_filter_;
  ConceptId concept_id_;
  std::vector<std::uint32_t> candidates_;
  size_t next_candidate_ = 0;
  std::vector<ValueHandle> pending_;
  size_t pending_rows_ = 0;
  size_t pending_index_ = 0;
};

/// Adapts a borrowed, already-materialized row vector: its rows are
/// handed out as handles into the vector's values, not copied. The
/// vector must outlive the source — the demand serving path hands in
/// rows owned by a cached DemandOutcome the cursor keeps alive. vars()
/// is the union of the rows' variables.
class VectorRowSource : public RowSource {
 public:
  explicit VectorRowSource(const std::vector<Bindings>* rows);
  const std::vector<std::string>& vars() const override { return vars_; }
  bool Next(const ValueHandle** row) override;

 private:
  const std::vector<Bindings>* rows_;
  std::vector<std::string> vars_;
  std::vector<ValueHandle> cells_;
  size_t index_ = 0;
};

/// Distinct handle rows in first-arrival order: each row is keyed by the
/// 64-bit digest of its Bindings and verified by row equality, so no
/// per-row key strings and no Bindings until TakeRows. The one row-dedup
/// store of the answer path — Evaluator::Query() drains its stream into
/// one, and ResultPipeline's streaming dedup keeps one. The kept handles
/// must stay valid until TakeRows.
class DistinctRows {
 public:
  DistinctRows() = default;
  /// Rows over `vars`, which must outlive the store.
  explicit DistinctRows(const std::vector<std::string>* vars) : vars_(vars) {}
  /// Keeps a copy of `row`'s handles unless an equal row is held; true
  /// when kept.
  bool Insert(const ValueHandle* row);
  /// The kept rows, materialized, in the order they first arrived.
  std::vector<Bindings> TakeRows() const;

 private:
  const std::vector<std::string>* vars_ = nullptr;
  size_t rows_ = 0;
  std::vector<ValueHandle> cells_;  // row r is [r * width, (r + 1) * width)
  /// Kept rows by digest.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
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
/// (the caller paginates by pulling). The (projected) output rows are
/// always distinct, so pages reproduce Run()'s answer semantics;
/// projection can otherwise manufacture duplicates.
struct PipelineSpec {
  std::vector<RowFilter> filters;
  /// Variables to keep (empty = identity projection). Variables absent
  /// from a row are simply absent from its projection.
  std::vector<std::string> project;
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
/// any instant (top-k heap + dedup store + in-flight row). Each row is
/// charged what ApproxBindingsBytes charges its Bindings, whether or not
/// they were built; it counts `sizeof(Value)` per bound value, so it
/// moves with the Value layout.
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
/// requires (incomparable == identical row). The pipeline ranks handle
/// rows by the same order; oracles use this to reproduce the serving
/// sort exactly.
struct RowOrder {
  std::string order_by;
  bool descending = false;
  bool operator()(const Bindings& a, const Bindings& b) const;
};

/// The composed pipeline over a RowSource. With `order_by` set the first
/// Next() drains the upstream through a bounded top-k heap of handle
/// rows (at most `limit` rows held; `limit` == 0 degrades to a full
/// sort) and then emits in order; without it rows stream through one at
/// a time and only the dedup store accumulates.
/// A row is materialized only when Next() emits it, so a row the filter,
/// the dedup or the heap discards is never built.
class ResultPipeline {
 public:
  ResultPipeline(std::unique_ptr<RowSource> source, PipelineSpec spec);
  ResultPipeline(const ResultPipeline&) = delete;
  ResultPipeline& operator=(const ResultPipeline&) = delete;
  ~ResultPipeline();

  /// Fills *row with the next output row, or returns false at end.
  bool Next(Bindings* row);
  const PipelineStats& stats() const { return stats_; }

 private:
  struct HeldRow;
  struct HeldRowOrder;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kInFlight = 0xffffffffu;

  /// Pulls one upstream row through filter + project. False at EOS.
  bool PullTransformed(const ValueHandle** row);
  bool PassesFilters(const ValueHandle* row) const;
  /// True when `row` is new, and then the dedup store holds it.
  bool DedupAdmit(const ValueHandle* row);
  /// Drains the upstream through the top-k heap into sorted_.
  void DrainSorted();
  /// The sort order over output rows: RowOrder's.
  bool Precedes(const ValueHandle* a, const ValueHandle* b) const;
  /// What ApproxBindingsBytes charges the row's Bindings.
  size_t ApproxRowBytes(const ValueHandle* row) const;
  /// A held row's cells, or the in-flight row's.
  const ValueHandle* Cells(std::uint32_t held) const {
    return held == kInFlight ? in_flight_ : held_.data() + held * vars_.size();
  }
  void HoldBytes(size_t bytes);
  void ReleaseBytes(size_t bytes);

  std::unique_ptr<RowSource> source_;
  PipelineSpec spec_;
  PipelineStats stats_;

  /// Output rows' variables: the projection's (or the source's), sorted.
  std::vector<std::string> vars_;
  bool identity_ = true;
  std::vector<std::uint32_t> project_;  // source slot of each output slot
  std::vector<std::uint32_t> filter_slots_;  // source slot per filter
  std::uint32_t order_slot_ = kNoSlot;       // output slot of order_by
  std::vector<ValueHandle> projected_;

  /// Sorted path: the heap's rows live in held_ (one run of
  /// vars_.size() handles each, runs of evicted rows reused), built on
  /// first Next(), then emitted in sorted_ order.
  const ValueHandle* in_flight_ = nullptr;
  std::vector<ValueHandle> held_;
  std::vector<std::uint32_t> free_;
  std::uint32_t held_count_ = 0;
  bool sorted_ready_ = false;
  std::vector<std::uint32_t> sorted_;
  size_t sorted_index_ = 0;

  /// Streaming dedup store (also the unbounded sort's up-front dedup).
  DistinctRows distinct_;

  size_t emitted_ = 0;
  size_t held_bytes_ = 0;
  bool exhausted_ = false;
};

}  // namespace ooint

#endif  // OOINT_RULES_RESULT_PIPELINE_H_
