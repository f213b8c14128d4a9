#ifndef OOINT_FEDERATION_AGENT_CONNECTION_H_
#define OOINT_FEDERATION_AGENT_CONNECTION_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "federation/fault_injector.h"
#include "model/instance_store.h"
#include "rules/evaluator.h"

namespace ooint {

/// Retry/backoff/deadline parameters of one agent connection. All times
/// are *virtual* milliseconds on the connection's deterministic clock —
/// nothing here ever sleeps a real thread (the in-process stores answer
/// instantly); the clock exists so deadlines, backoff schedules and
/// breaker cooldowns compose reproducibly under fault injection.
///
/// Deadline boundary rule (pinned; regression-tested): virtual time
/// that lands *exactly on* a deadline still succeeds — only strictly
/// exceeding it fails. Concretely: an attempt whose latency equals
/// `per_call_deadline_ms` succeeds (latency > deadline times out), and
/// a backoff sleep that would bring the call exactly to
/// `total_deadline_ms` is taken (only a sleep that would strictly
/// exceed it fails the call). CancelToken mirrors the same rule for
/// query-wide deadlines: the wait that reaches the budget completes,
/// nothing new starts at or past it.
struct RetryPolicy {
  /// Total tries per call, the first attempt included.
  int max_attempts = 4;
  /// Backoff before the second attempt; doubles (×`backoff_multiplier`)
  /// per retry, capped by `max_backoff_ms`, scaled by a deterministic
  /// jitter factor in [0.5, 1).
  double initial_backoff_ms = 10;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 200;
  /// One attempt may take this long before it counts as timed out.
  /// When the call carries a CancelToken with a smaller remaining query
  /// budget, the *effective* per-attempt deadline is that remainder —
  /// derived per attempt, so a query never waits on an agent longer
  /// than the query itself has left to live.
  double per_call_deadline_ms = 50;
  /// The whole call — attempts plus backoff sleeps — must fit in this
  /// budget; exceeding it fails the call with kDeadlineExceeded even if
  /// retries remain.
  double total_deadline_ms = 500;
  /// Token-bucket retry budget shared by every call (and every
  /// concurrent caller) of one connection: each retry past the first
  /// attempt consumes one token, and an empty bucket makes the call
  /// fail fast with its last error instead of retrying — the per-agent
  /// brake that stops retry storms when many queries hammer one
  /// flapping agent at once. 0 (the default) disables budgeting
  /// entirely. The bucket starts full and refills at
  /// `retry_budget_refill_per_sec` tokens per *virtual* second, capped
  /// at `retry_budget_max`.
  double retry_budget_max = 0;
  double retry_budget_refill_per_sec = 1;
  /// Seed of the jitter stream (deterministic per connection).
  std::uint64_t jitter_seed = 0x5deece66dULL;
  /// Real seconds slept per virtual millisecond waited (latency and
  /// backoff alike). 0 — the default — keeps every wait instantaneous,
  /// preserving the deterministic instant-answer behaviour; benchmarks
  /// set a small scale so overlapped fetching shows real wall-clock
  /// savings without inflating run times.
  double real_time_scale = 0;
};

/// Circuit-breaker thresholds (closed → open → half-open → closed).
struct BreakerPolicy {
  /// Consecutive failed attempts that trip the breaker.
  int failure_threshold = 3;
  /// Virtual ms an open breaker rejects calls before allowing a
  /// half-open probe.
  double open_cooldown_ms = 1000;
  /// Successful half-open probes required to close again.
  int half_open_successes = 1;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// One live update to a single agent's extents (DESIGN.md §4j): the
/// objects inserted into and removed from the agent's InstanceStore
/// since the previous delta, stamped with a per-agent epoch that must
/// increase strictly — a replayed or reordered feed is rejected, never
/// double-applied. Deleted objects are the *pre-removal* copies (their
/// attribute values drive fact identity downstream); an insert and a
/// delete of the same object in one delta is a net no-op.
struct ExtentDelta {
  /// The agent's schema name (AgentConnection::agent_name()).
  std::string agent_name;
  /// Strictly increasing per agent; a natural stamp is the store's
  /// InstanceStore::data_epoch() after the mutations.
  std::uint64_t epoch = 0;
  std::vector<Object> inserted;
  std::vector<Object> deleted;
};

/// The fault-tolerant channel between the evaluator/FSM and one
/// FSM-agent's InstanceStore (Fig. 1's middle layer made failure-aware).
///
/// Every extent read goes through Call semantics:
///   1. An open breaker rejects the call immediately (kUnavailable)
///      until its cooldown elapses, then admits one half-open probe.
///   2. Each attempt consults the FaultInjector (when configured); slow
///      responses past the per-call deadline become kDeadlineExceeded,
///      truncated payloads are treated as transient failures.
///   3. Transient failures (kUnavailable / kDeadlineExceeded) retry
///      under exponential backoff with deterministic jitter, while the
///      total virtual time stays inside `retry.total_deadline_ms`.
///   4. Consecutive attempt failures trip the breaker; a failed
///      half-open probe re-opens it, `half_open_successes` successful
///      probes close it.
///
/// The connection implements the evaluator's ExtentSource, so a
/// federated Evaluator can treat remote-ish agents and local stores
/// uniformly; per-connection counters expose the health the FSM client
/// reports.
class AgentConnection : public ExtentSource {
 public:
  AgentConnection(std::string agent_name, const InstanceStore* store,
                  RetryPolicy retry = {}, BreakerPolicy breaker = {},
                  FaultInjector* injector = nullptr);

  const std::string& agent_name() const { return agent_name_; }

  // ExtentSource:
  const Schema& schema() const override { return store_->schema(); }
  /// Token-aware fetch: every virtual wait (latency, backoff) is
  /// charged to `token`, the per-attempt deadline is capped by the
  /// token's remaining budget, an expired token is rejected up front
  /// with kDeadlineExceeded (no attempt, no breaker movement), and
  /// expiry between retries stops the retry loop.
  Result<std::vector<const Object*>> FetchExtent(
      const std::string& class_name, const CancelToken& token) override;
  /// The token-aware fetch with a never-expiring token, for callers
  /// outside a query (probes, connection tests).
  Result<std::vector<const Object*>> FetchExtent(
      const std::string& class_name);
  /// The agent store's InstanceStore::data_epoch(), which every insert
  /// and remove bumps — unlike a delta feed's epoch, which only the
  /// feed moves.
  std::uint64_t data_epoch() const override { return store_->data_epoch(); }

  BreakerState breaker_state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// Validates and records one delta feed stamp: `delta.epoch` must
  /// strictly exceed the last accepted epoch (gaps are fine — feeds may
  /// batch several store mutations), else kInvalidArgument and no state
  /// change. The connection only bookkeeps the stamp; applying the
  /// delta to derived state is the client's job (FsmClient::ApplyDelta
  /// calls this first, so a stale feed is rejected before any
  /// maintenance work).
  Status AcceptDelta(const ExtentDelta& delta);

  /// Observability counters (monotonic over the connection's life).
  struct Stats {
    /// Logical calls (FetchExtent invocations).
    std::size_t calls = 0;
    /// Physical attempts (a call may retry several times).
    std::size_t attempts = 0;
    std::size_t successes = 0;
    /// Calls that ultimately failed (after retries or fast-failed).
    std::size_t failures = 0;
    /// Attempts beyond the first, across all calls.
    std::size_t retries = 0;
    /// Calls rejected immediately by an open breaker.
    std::size_t breaker_rejections = 0;
    /// closed→open (or half-open→open) transitions.
    std::size_t trips = 0;
    /// Retries not taken because the shared retry budget was empty
    /// (the call failed fast with its last error instead).
    std::size_t retries_denied_budget = 0;
    /// Delta feeds accepted (AcceptDelta with a fresh epoch) and the
    /// object-level changes they carried.
    std::size_t deltas_accepted = 0;
    std::size_t delta_objects_inserted = 0;
    std::size_t delta_objects_deleted = 0;
  };
  /// Snapshot of the counters; taken under the connection lock so it is
  /// internally consistent even while other threads call FetchExtent.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// The connection's virtual clock (ms since construction).
  double now_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return now_ms_;
  }

  /// Advances the virtual clock — lets tests (and callers modeling idle
  /// time) let an open breaker's cooldown elapse.
  void AdvanceClock(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ms_ += ms;
  }

 private:
  /// One attempt against the underlying store, fault schedule applied.
  /// Advances the clock by the attempt's latency, clamped to
  /// `deadline_ms` (the static per-call deadline, possibly tightened by
  /// the query token's remaining budget).
  Status Attempt(const std::string& class_name, double deadline_ms,
                 const CancelToken& token, std::vector<const Object*>* out);

  /// Advances the virtual clock by `ms`, charges the wait to `token`,
  /// and, when `real_time_scale` is set, sleeps the calling thread for
  /// ms × scale real milliseconds. Called with mu_ held: calls to one
  /// agent are serial by contract, so sleeping under the connection's
  /// own lock blocks nobody who could otherwise make progress against
  /// this agent.
  void Wait(double ms, const CancelToken& token);

  /// Refills the shared retry token bucket from the virtual clock.
  /// Called with mu_ held; no-op when budgeting is disabled.
  void RefillRetryBudget();

  void RecordSuccess();
  /// Returns true when the failure tripped (or re-opened) the breaker.
  bool RecordFailure();

  /// Deterministic jitter factor in [0.5, 1).
  double NextJitter();

  std::string agent_name_;
  const InstanceStore* store_;
  RetryPolicy retry_;
  BreakerPolicy breaker_;
  FaultInjector* injector_;

  /// Guards all mutable state below. FetchExtent holds it end to end, so
  /// concurrent callers of one connection serialize (the overlapped
  /// fetcher only parallelizes across *distinct* connections, keeping
  /// each agent's fault/jitter/breaker evolution identical to serial).
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double opened_at_ms_ = 0;
  double now_ms_ = 0;
  std::uint64_t jitter_state_;
  /// Retry-budget token bucket (shared across calls and callers; only
  /// meaningful when retry_.retry_budget_max > 0). Starts full.
  double retry_tokens_ = 0;
  double budget_refilled_at_ms_ = 0;
  /// Last accepted live-update epoch (strictly increasing).
  std::uint64_t delta_epoch_ = 0;
  Stats stats_;
};

/// Per-agent health snapshot the FSM client exposes.
struct AgentHealth {
  std::string agent_name;
  BreakerState breaker_state = BreakerState::kClosed;
  AgentConnection::Stats stats;

  std::string ToString() const;
};

}  // namespace ooint

#endif  // OOINT_FEDERATION_AGENT_CONNECTION_H_
