#include "federation/agent_connection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"

namespace ooint {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "Closed";
    case BreakerState::kOpen:
      return "Open";
    case BreakerState::kHalfOpen:
      return "HalfOpen";
  }
  return "Unknown";
}

AgentConnection::AgentConnection(std::string agent_name,
                                 const InstanceStore* store,
                                 RetryPolicy retry, BreakerPolicy breaker,
                                 FaultInjector* injector)
    : agent_name_(std::move(agent_name)),
      store_(store),
      retry_(retry),
      breaker_(breaker),
      injector_(injector),
      jitter_state_(retry.jitter_seed ^ HashString(agent_name_)),
      retry_tokens_(retry.retry_budget_max) {}

void AgentConnection::Wait(double ms, const CancelToken& token) {
  now_ms_ += ms;
  token.Charge(ms);
  if (retry_.real_time_scale > 0 && ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms * retry_.real_time_scale));
  }
}

void AgentConnection::RefillRetryBudget() {
  if (retry_.retry_budget_max <= 0) return;
  const double elapsed_ms = now_ms_ - budget_refilled_at_ms_;
  if (elapsed_ms <= 0) return;
  retry_tokens_ =
      std::min(retry_.retry_budget_max,
               retry_tokens_ +
                   elapsed_ms * retry_.retry_budget_refill_per_sec / 1000.0);
  budget_refilled_at_ms_ = now_ms_;
}

double AgentConnection::NextJitter() {
  const double unit =
      static_cast<double>(SplitMix64Next(&jitter_state_) >> 11) * 0x1.0p-53;
  return 0.5 + 0.5 * unit;
}

Status AgentConnection::Attempt(const std::string& class_name,
                                double deadline_ms, const CancelToken& token,
                                std::vector<const Object*>* out) {
  Fault fault = injector_ != nullptr
                    ? injector_->Next(agent_name_)
                    : Fault{FaultKind::kNone, 0, 0};
  // Boundary rule (see RetryPolicy): latency strictly greater than the
  // effective deadline times out; latency exactly on it succeeds.
  if (fault.kind == FaultKind::kDeadlineExceeded ||
      fault.latency_ms > deadline_ms) {
    // The caller waits out the whole per-attempt deadline before giving
    // up.
    Wait(deadline_ms, token);
    return Status::DeadlineExceeded(
        StrCat("agent '", agent_name_, "' exceeded the ", deadline_ms,
               "ms per-call deadline"));
  }
  Wait(fault.latency_ms, token);
  if (fault.kind == FaultKind::kUnavailable) {
    return Status::Unavailable(
        StrCat("agent '", agent_name_, "' is unavailable"));
  }

  Result<std::vector<Oid>> extent = store_->Extent(class_name);
  if (!extent.ok()) return extent.status();  // permanent; never retried
  out->clear();
  out->reserve(extent.value().size());
  for (const Oid& oid : extent.value()) {
    const Object* object = store_->Find(oid);
    if (object != nullptr) out->push_back(object);
  }
  if (fault.kind == FaultKind::kTruncatedExtent && out->size() > fault.keep) {
    // A short read: we got a prefix but know the payload was cut off.
    // Surfacing the partial payload would silently drop facts, so the
    // attempt counts as a transient failure and is retried.
    out->resize(fault.keep);
    return Status::Unavailable(
        StrCat("truncated extent of '", class_name, "' from agent '",
               agent_name_, "'"));
  }
  return Status::OK();
}

void AgentConnection::RecordSuccess() {
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen &&
      ++half_open_successes_ >= breaker_.half_open_successes) {
    state_ = BreakerState::kClosed;
  }
}

bool AgentConnection::RecordFailure() {
  ++consecutive_failures_;
  const bool trip =
      state_ == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kClosed &&
       consecutive_failures_ >= breaker_.failure_threshold);
  if (trip) {
    state_ = BreakerState::kOpen;
    opened_at_ms_ = now_ms_;
    consecutive_failures_ = 0;
    ++stats_.trips;
  }
  return trip;
}

Result<std::vector<const Object*>> AgentConnection::FetchExtent(
    const std::string& class_name) {
  return FetchExtent(class_name, CancelToken());
}

Result<std::vector<const Object*>> AgentConnection::FetchExtent(
    const std::string& class_name, const CancelToken& token) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;

  if (token.Expired()) {
    // The query is already out of time: reject without an attempt, a
    // fault draw, or any breaker movement.
    ++stats_.failures;
    return Status::DeadlineExceeded(
        StrCat("query deadline expired before calling agent '", agent_name_,
               "'"));
  }

  if (state_ == BreakerState::kOpen) {
    if (now_ms_ - opened_at_ms_ < breaker_.open_cooldown_ms) {
      ++stats_.breaker_rejections;
      ++stats_.failures;
      return Status::Unavailable(
          StrCat("circuit open for agent '", agent_name_, "' (cooling down)"));
    }
    state_ = BreakerState::kHalfOpen;
    half_open_successes_ = 0;
  }

  const double call_start_ms = now_ms_;
  double backoff = retry_.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    ++stats_.attempts;
    if (attempt > 1) ++stats_.retries;
    // The effective per-attempt deadline: the static cap, tightened by
    // whatever the query has left. An attempt never waits past the
    // point the whole query would be declared dead anyway.
    double deadline_ms = retry_.per_call_deadline_ms;
    const double remaining_ms = token.remaining_ms();
    if (remaining_ms != CancelToken::kNoDeadline &&
        remaining_ms < deadline_ms) {
      deadline_ms = remaining_ms;
    }
    std::vector<const Object*> objects;
    const Status status = Attempt(class_name, deadline_ms, token, &objects);
    if (status.ok()) {
      RecordSuccess();
      ++stats_.successes;
      return objects;
    }
    const bool tripped = RecordFailure();
    if (tripped || !IsTransientCode(status.code())) {
      ++stats_.failures;
      return status;
    }
    if (attempt >= retry_.max_attempts) {
      ++stats_.failures;
      return Status(status.code(),
                    StrCat(status.message(), " (after ", attempt,
                           " attempts)"));
    }
    if (token.Expired()) {
      // The failed attempt consumed the query's remaining budget;
      // retrying would wait on the agent past the query's own death.
      ++stats_.failures;
      return Status::DeadlineExceeded(
          StrCat("query deadline exhausted during retries against agent '",
                 agent_name_, "'; last error: ", status.ToString()));
    }
    if (retry_.retry_budget_max > 0) {
      // The per-agent retry-storm brake: one token per retry, shared by
      // every concurrent caller of this connection.
      RefillRetryBudget();
      if (retry_tokens_ < 1.0) {
        ++stats_.retries_denied_budget;
        ++stats_.failures;
        return Status(status.code(),
                      StrCat(status.message(),
                             " (retry denied: agent retry budget empty)"));
      }
      retry_tokens_ -= 1.0;
    }
    const double sleep =
        std::min(backoff, retry_.max_backoff_ms) * NextJitter();
    // Boundary rule (see RetryPolicy): a sleep landing exactly on the
    // total deadline is taken; only strictly exceeding it fails.
    if (now_ms_ - call_start_ms + sleep > retry_.total_deadline_ms) {
      ++stats_.failures;
      return Status::DeadlineExceeded(
          StrCat("retry budget (", retry_.total_deadline_ms,
                 "ms) exhausted for agent '", agent_name_,
                 "'; last error: ", status.ToString()));
    }
    Wait(sleep, token);
    backoff *= retry_.backoff_multiplier;
  }
}

Status AgentConnection::AcceptDelta(const ExtentDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (delta.epoch <= delta_epoch_) {
    return Status::InvalidArgument(
        StrCat("stale delta for agent '", agent_name_, "': epoch ",
               delta.epoch, " does not advance past ", delta_epoch_));
  }
  delta_epoch_ = delta.epoch;
  ++stats_.deltas_accepted;
  stats_.delta_objects_inserted += delta.inserted.size();
  stats_.delta_objects_deleted += delta.deleted.size();
  return Status::OK();
}

std::string AgentHealth::ToString() const {
  std::string out =
      StrCat(agent_name, ": state=", BreakerStateName(breaker_state),
             " calls=", stats.calls, " attempts=", stats.attempts,
             " retries=", stats.retries, " failures=", stats.failures,
             " rejections=", stats.breaker_rejections,
             " trips=", stats.trips);
  if (stats.deltas_accepted > 0) {
    out += StrCat(" deltas=", stats.deltas_accepted, " (+",
                  stats.delta_objects_inserted, "/-",
                  stats.delta_objects_deleted, " objects)");
  }
  return out;
}

}  // namespace ooint
