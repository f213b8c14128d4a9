#include "federation/serving.h"

#include <shared_mutex>
#include <utility>

#include "common/string_util.h"
#include "federation/fsm_client.h"

namespace ooint {

ServingCursor::ServingCursor(
    const FsmClient* client, ServingOptions options,
    std::shared_ptr<const Evaluator::DemandOutcome> outcome,
    std::unique_ptr<ResultPipeline> pipeline, DegradedInfo degraded,
    std::uint64_t fault_epoch, size_t delta_batches)
    : client_(client),
      options_(std::move(options)),
      outcome_(std::move(outcome)),
      pipeline_(std::move(pipeline)),
      degraded_(std::move(degraded)),
      fault_epoch_(fault_epoch),
      delta_batches_(delta_batches),
      last_use_ms_(client->serving_now_ms()) {}

ServingCursor::~ServingCursor() { Close(); }

void ServingCursor::Close() {
  if (closed_) return;
  closed_ = true;
  if (pipeline_ != nullptr) {
    final_stats_ = pipeline_->stats();
    // Fold the not-yet-reported evictions into the connection counter.
    client_->heap_evictions_.fetch_add(
        final_stats_.heap_evictions - reported_evictions_,
        std::memory_order_relaxed);
    reported_evictions_ = final_stats_.heap_evictions;
  }
  pipeline_.reset();
  outcome_.reset();
  client_->cursors_closed_.fetch_add(1, std::memory_order_relaxed);
}

const PipelineStats& ServingCursor::pipeline_stats() const {
  return pipeline_ != nullptr ? pipeline_->stats() : final_stats_;
}

Result<Page> ServingCursor::NextPage() {
  if (closed_) {
    return Status::FailedPrecondition("cursor is closed");
  }
  // Idle expiry on the serving clock: strictly exceeding the allowance
  // expires; landing exactly on it survives (the CancelToken pinned
  // boundary rule).
  const double now = client_->serving_now_ms();
  if (options_.idle_expiry_ms > 0 &&
      now - last_use_ms_ > options_.idle_expiry_ms) {
    client_->cursors_expired_.fetch_add(1, std::memory_order_relaxed);
    Close();
    return Status::DeadlineExceeded(
        StrCat("cursor idle for ", now - last_use_ms_,
               "ms (allowance ", options_.idle_expiry_ms, "ms)"));
  }
  last_use_ms_ = now;

  // Shared against ApplyDelta / Connect (writers): a page is drained
  // from a quiescent world, never mid-delta.
  std::shared_lock<std::shared_mutex> data_lock(client_->data_mu_);
  if (client_->fault_epoch() != fault_epoch_) {
    return Status::FailedPrecondition(
        "cursor epoch expired: the connection was re-established after "
        "this cursor was opened");
  }
  if (outcome_ == nullptr &&
      client_->delta_batches_.load(std::memory_order_relaxed) !=
          delta_batches_) {
    // The documented epoch error of materialized cursors: the derived
    // store moved under the stream. Demand cursors never take this
    // branch — their pinned DemandOutcome is a snapshot.
    return Status::FailedPrecondition(
        "cursor epoch expired: a live update was applied after this "
        "cursor was opened; re-open to read the new state");
  }

  Page page;
  page.page_index = page_index_++;
  page.degraded = degraded_;
  if (!exhausted_) {
    page.rows.reserve(options_.page_size);
    if (lookahead_valid_) {
      page.rows.push_back(std::move(lookahead_));
      lookahead_valid_ = false;
    }
    Bindings row;
    while (page.rows.size() < options_.page_size && pipeline_->Next(&row)) {
      page.rows.push_back(std::move(row));
    }
    // One-row lookahead makes has_more exact: the last page reports
    // false even when it is exactly full.
    if (page.rows.size() == options_.page_size && pipeline_->Next(&row)) {
      lookahead_ = std::move(row);
      lookahead_valid_ = true;
      page.has_more = true;
    } else {
      exhausted_ = true;
    }
  }
  data_lock.unlock();

  client_->pages_served_.fetch_add(1, std::memory_order_relaxed);
  client_->rows_streamed_.fetch_add(page.rows.size(),
                                    std::memory_order_relaxed);
  const size_t evictions = pipeline_->stats().heap_evictions;
  client_->heap_evictions_.fetch_add(evictions - reported_evictions_,
                                     std::memory_order_relaxed);
  reported_evictions_ = evictions;
  return page;
}

}  // namespace ooint
