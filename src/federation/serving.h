#ifndef OOINT_FEDERATION_SERVING_H_
#define OOINT_FEDERATION_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rules/evaluator.h"
#include "rules/result_pipeline.h"

namespace ooint {

class FsmClient;

/// Shape of one cursor-served query (FsmClient::OpenCursor): pagination,
/// an optional result pipeline (filter → project → top-k sort/limit),
/// and the cursor's idle lifetime.
struct ServingOptions {
  /// Rows per NextPage() call. Must be positive.
  size_t page_size = 100;
  /// Total rows the cursor serves across all pages (0 = unlimited).
  /// With `order_by` this is the top-k bound: the pipeline holds at
  /// most `limit` rows however large the answer set is.
  size_t limit = 0;
  /// Comparison filters applied to each row before projection.
  std::vector<RowFilter> filters;
  /// Variables to keep (empty = all). Pages always contain *distinct*
  /// rows of the projected shape, matching Run()'s answer semantics.
  std::vector<std::string> project;
  /// Sort variable (empty = stream order). Missing-last, ties broken on
  /// the full row ordering — see RowOrder.
  std::string order_by;
  bool descending = false;
  /// Virtual milliseconds (FsmClient::AdvanceServingClock) the cursor
  /// may sit idle between NextPage() calls before it expires; landing
  /// exactly on the bound survives, strictly exceeding it expires
  /// (the CancelToken boundary rule). 0 = never expires.
  double idle_expiry_ms = 0;
};

/// One page of answers. `degraded` is the degradation record of the
/// evaluation the cursor streams from and is carried on *every* page —
/// a deadline-truncated answer must flag page 7 as loudly as page 0.
struct Page {
  std::vector<Bindings> rows;
  size_t page_index = 0;
  /// More rows remain; NextPage() again to fetch them. A cursor whose
  /// rows are exhausted keeps answering empty pages with has_more ==
  /// false (pagination is idempotent at the end, not an error).
  bool has_more = false;
  DegradedInfo degraded;
};

/// Cumulative serving counters of one FsmClient connection, surfaced
/// through Explain() and FsmClient::serving_stats().
struct ServingStats {
  size_t cursors_opened = 0;
  size_t cursors_closed = 0;
  size_t cursors_expired = 0;
  size_t pages_served = 0;
  size_t rows_streamed = 0;
  /// Rows the bounded top-k heap discarded across all cursors.
  size_t heap_evictions = 0;
  /// Demand evaluations coalesced into a concurrent leader's pass vs.
  /// passes led (the single-flight window every demand miss enters).
  size_t coalesce_hits = 0;
  size_t coalesce_leaders = 0;
};

/// A resumable, explicitly-closed answer cursor over one query.
///
/// Lifetime and pinning rules (tested in tests/federation/serving_test):
///  - A demand-mode cursor pages the rows of the query's DemandOutcome
///    (the rows Run() returns) and therefore has *snapshot semantics*:
///    ApplyDelta after open does not change (or invalidate) its pages.
///    The shared outcome keeps those rows alive even after the client's
///    cache evicts it.
///  - A materialized cursor streams from the live derived store; any
///    ApplyDelta after open fails subsequent NextPage() calls with
///    kFailedPrecondition ("cursor epoch expired") — the documented
///    epoch error. Reconnect (Connect/Refresh) expires cursors of
///    either mode the same way.
///  - NextPage() is deadline-aware: the degradation record of the
///    underlying evaluation (including deadline_truncated) rides on
///    every page, and truncated outcomes are never cached (so the next
///    OpenCursor/Run recomputes — the PR 7 rule).
///
/// A cursor is single-consumer (serialize NextPage externally) and must
/// not outlive its FsmClient. Close() is idempotent; the destructor
/// closes implicitly.
class ServingCursor {
 public:
  ~ServingCursor();
  ServingCursor(const ServingCursor&) = delete;
  ServingCursor& operator=(const ServingCursor&) = delete;

  /// Serves the next page. Errors: kFailedPrecondition after Close()
  /// or an epoch expiry, kDeadlineExceeded after idle expiry.
  Result<Page> NextPage();

  /// Releases the pipeline and the pinned snapshot. Idempotent.
  void Close();
  bool closed() const { return closed_; }

  /// Instrumentation of this cursor's pipeline (peak held bytes, heap
  /// evictions, rows in/out).
  const PipelineStats& pipeline_stats() const;

 private:
  friend class FsmClient;
  ServingCursor(const FsmClient* client, ServingOptions options,
                std::shared_ptr<const Evaluator::DemandOutcome> outcome,
                std::unique_ptr<ResultPipeline> pipeline,
                DegradedInfo degraded, std::uint64_t fault_epoch,
                size_t delta_batches);

  const FsmClient* client_;
  ServingOptions options_;
  /// Demand mode: the pinned snapshot whose rows the pipeline pages
  /// (null on materialized cursors, which pin the delta epoch instead).
  std::shared_ptr<const Evaluator::DemandOutcome> outcome_;
  std::unique_ptr<ResultPipeline> pipeline_;
  /// Kept so pipeline_stats() stays readable after Close().
  PipelineStats final_stats_;
  DegradedInfo degraded_;
  std::uint64_t fault_epoch_;
  /// The delta epoch at open; checked only without `outcome_`.
  size_t delta_batches_;
  size_t page_index_ = 0;
  /// One-row lookahead so has_more is exact without overserving.
  bool lookahead_valid_ = false;
  Bindings lookahead_;
  bool exhausted_ = false;
  bool closed_ = false;
  /// Serving-clock bookkeeping for idle expiry.
  double last_use_ms_ = 0;
  /// Heap evictions already folded into the client's counters.
  size_t reported_evictions_ = 0;
};

}  // namespace ooint

#endif  // OOINT_FEDERATION_SERVING_H_
