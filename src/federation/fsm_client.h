#ifndef OOINT_FEDERATION_FSM_CLIENT_H_
#define OOINT_FEDERATION_FSM_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "federation/explain.h"
#include "federation/fsm.h"
#include "federation/serving.h"
#include "rules/incremental.h"

namespace ooint {

/// A conjunctive query against the global schema, e.g. the paper's
/// ?-uncle(John, y): pattern class "IS(...uncle...)" with Ussn# bound to
/// "John" and niece_nephew projected into variable y.
class Query {
 public:
  explicit Query(std::string class_name) {
    pattern_.object = TermArg::Variable("_self");
    pattern_.class_name = std::move(class_name);
  }

  /// Constrains attribute `name` to equal `value`.
  Query& Where(const std::string& name, Value value) {
    pattern_.attrs.push_back({name, false, TermArg::Constant(std::move(value))});
    return *this;
  }

  /// Projects attribute `name` into variable `var`.
  Query& Select(const std::string& name, const std::string& var) {
    pattern_.attrs.push_back({name, false, TermArg::Variable(var)});
    return *this;
  }

  /// Binds the object position to `var` (to retrieve OIDs).
  Query& SelectObject(const std::string& var) {
    pattern_.object = TermArg::Variable(var);
    return *this;
  }

  const OTerm& pattern() const { return pattern_; }

 private:
  OTerm pattern_;
};

/// The FSM-client layer (Fig. 1, top): the application-facing facade.
/// Connects to an Fsm, triggers global-schema construction, and runs
/// queries against the federated evaluator, transparently combining
/// local extents and derived (virtual) objects.
///
/// Every agent is reached through a fault-tolerant AgentConnection; a
/// client connected with FailurePolicy::kPartial keeps answering when
/// agents are down, and degraded() says exactly what the answers are
/// missing. Run/Extent before a successful Connect() (or after a failed
/// one) return kFailedPrecondition instead of touching a null evaluator.
///
/// With FederationOptions::query_mode == QueryMode::kDemandDriven,
/// Connect() skips the eager fixpoint: each Run()/Extent() evaluates
/// goal-directed (magic-set rewritten, relevance-pruned — see
/// Evaluator::EvaluateDemand) and memoizes the outcome in a query cache
/// keyed on the pattern's text. A cached answer is served only while
/// the *fault epoch* its miss began at and the breaker-state signature
/// it was computed under still hold, and while every extent it read is
/// still at the data epoch it was read at (Evaluator::ReadsCurrent):
/// Connect() bumps the epoch, BumpFaultEpoch() lets callers invalidate
/// on external fault-schedule changes, any breaker transition (trip,
/// recovery) changes the signature — so a degraded answer is never
/// replayed as healthy or vice versa — and any insert or remove at an
/// agent store the answer read retires it, announced or not. Concurrent
/// misses on one goal share one evaluation (the single-flight window,
/// DESIGN.md §4k). Note that in demand mode agent faults surface per
/// query, not at Connect(); degraded() reports the last served query's
/// record.
class FsmClient {
 public:
  explicit FsmClient(Fsm* fsm) : fsm_(fsm) {}

  /// Builds (or rebuilds) the global schema and its evaluator. On
  /// failure the client reverts to the disconnected state. Under
  /// options.failure_policy == kPartial, Connect succeeds even when
  /// agents are unreachable (check degraded()); under kStrict the first
  /// agent error — e.g. kUnavailable, kDeadlineExceeded — is returned.
  Status Connect(Fsm::Strategy strategy = Fsm::Strategy::kAccumulation,
                 const FederationOptions& options = {});

  bool connected() const { return evaluator_ != nullptr; }

  /// The degradation record of the last successful Connect(): which
  /// agents were skipped and which global concepts are incomplete.
  /// Empty when fully connected (or not connected at all). Returned by
  /// value: in demand mode the record tracks the last served query and
  /// may be rewritten by concurrent queries.
  DegradedInfo degraded() const;

  /// Per-agent connection health (retry/trip/failure counters and
  /// breaker states), in agent registration order.
  std::vector<AgentHealth> ConnectionHealth() const;

  const GlobalSchema& global() const { return global_; }

  /// The integrated class name a local class is represented by.
  Result<std::string> GlobalNameOf(const std::string& schema_name,
                                   const std::string& class_name) const;

  /// Runs a query; each result row maps the query's variables to values.
  Result<std::vector<Bindings>> Run(const Query& query) const;

  /// All facts (local + derived) of a global concept. In demand mode
  /// they are the FactsOf() of the unbound goal's outcome sub-evaluator,
  /// materialized on first ask into its boundary cache. The returned
  /// pointers stay valid until the cache entry that owns them is
  /// invalidated (reconnect, epoch bump, breaker change, a change at an
  /// agent store it read, InvalidateQueryCache) or evicted. An outcome
  /// the cache does not keep (a deadline-truncated one) has no entry:
  /// its facts are freed when Extent() returns.
  Result<std::vector<const Fact*>> Extent(const std::string& concept_name) const;

  /// The plan for `query`, annotated with the connection's mode and,
  /// on a demand connection, the adornment, fallback reason and
  /// contacted and relevance-pruned agents of the Evaluator::PlanDemand
  /// a miss on it runs — plus, when this exact query has a cached
  /// demand outcome, its measured evaluation counters.
  Result<QueryPlan> Explain(const Query& query) const;

  /// Opens a resumable answer cursor over `query` (DESIGN.md §4k): the
  /// evaluation runs (or is served from the demand cache / coalesced
  /// into a concurrent leader's pass) now, and rows stream out page by
  /// page through a filter → project → top-k pipeline instead of being
  /// copied into one answer vector. See ServingCursor for the snapshot
  /// vs. epoch-error pinning rules. Takes an admission slot like Run().
  Result<std::unique_ptr<ServingCursor>> OpenCursor(
      const Query& query, const ServingOptions& options = {}) const;

  /// Cumulative serving counters (cursors, pages, rows, heap evictions,
  /// coalescing) since Connect().
  ServingStats serving_stats() const;

  /// Advances the serving clock cursors age against (virtual ms, the
  /// AgentConnection idiom). Idle expiry is opt-in per cursor via
  /// ServingOptions::idle_expiry_ms.
  void AdvanceServingClock(double ms);
  double serving_now_ms() const {
    return serving_now_ms_.load(std::memory_order_acquire);
  }

  /// Applies one live extent delta (DESIGN.md §4j). The feed's epoch
  /// must strictly advance the agent's last accepted one (stale feeds
  /// are rejected with kInvalidArgument before any state changes). On a
  /// kMaterialized connection made with FederationOptions::live_updates
  /// the counting/DRed engine maintains the derived store so queries
  /// answer exactly as a from-scratch fixpoint over the new base state
  /// would; a demand-driven connection needs no maintenance (queries
  /// re-fetch) and only takes the cache sweep. Either way the sweep
  /// evicts every demand cache entry that read the delta's agent (an
  /// in-place attribute edit moves no data epoch) or whose reads are
  /// no longer current; every other entry stays warm. Delta
  /// application serializes against concurrent Run / Extent / Explain
  /// calls (writer vs. shared readers), so serving threads see each
  /// batch atomically.
  Status ApplyDelta(const ExtentDelta& delta);

  /// Full rebuild: re-runs Connect() with the last Connect's strategy
  /// and options (re-integrates, re-fetches every extent, re-runs the
  /// fixpoint, drops every cached outcome). The periodic-rebuild
  /// baseline the incremental path is benchmarked against, and the
  /// recovery lever when a maintenance step failed mid-batch.
  Status Refresh();

  /// Whether this connection maintains its derived store incrementally
  /// (connected kMaterialized with FederationOptions::live_updates).
  bool live_updates() const { return engine_ != nullptr; }

  /// Cumulative counting/DRed maintenance stats since Connect (empty
  /// on demand-driven or non-live connections).
  DeltaMaintenanceStats maintenance_stats() const {
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    return engine_ == nullptr ? DeltaMaintenanceStats() : engine_->cumulative();
  }

  /// Hit/miss/invalidation counters of the demand-mode query cache.
  struct QueryCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t invalidations = 0;
  };
  /// Snapshot of the cache counters (atomics internally, so concurrent
  /// queries tick them without the cache lock).
  QueryCacheStats query_cache_stats() const {
    QueryCacheStats stats;
    stats.hits = cache_hits_.load(std::memory_order_relaxed);
    stats.misses = cache_misses_.load(std::memory_order_relaxed);
    stats.invalidations = cache_invalidations_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Admission-control snapshot of the serving path (all zeros when the
  /// connection has admission disabled).
  AdmissionController::Stats admission_stats() const {
    return admission_ == nullptr ? AdmissionController::Stats{}
                                 : admission_->stats();
  }

  /// The per-query deadline of the active connection (virtual ms;
  /// CancelToken::kNoDeadline when unbounded).
  double query_deadline_ms() const { return query_deadline_ms_; }

  /// Drops every cached query outcome (counts one invalidation).
  void InvalidateQueryCache() const;

  /// Declares that the fault environment changed mid-session (e.g. a
  /// new fault schedule was scripted into the injector): every cached
  /// outcome predates the change and will be recomputed.
  void BumpFaultEpoch();
  std::uint64_t fault_epoch() const {
    return fault_epoch_.load(std::memory_order_acquire);
  }

  /// Worker threads of the connection's federation runtime (1 when the
  /// client was connected without a pool).
  int num_threads() const {
    return evaluator_ == nullptr ? 1 : evaluator_->thread_count();
  }

 private:
  friend class ServingCursor;

  /// One memoized demand evaluation. The outcome is shared so Extent()
  /// pointers and a demand cursor's rows survive until the last user
  /// lets go.
  struct CacheEntry {
    std::shared_ptr<const Evaluator::DemandOutcome> outcome;
    /// The fault epoch the miss began at.
    std::uint64_t epoch = 0;
    /// Breaker states of every connection when the outcome was stored;
    /// a mismatch at lookup time means the fault environment moved.
    std::string health_signature;
  };

  /// One in-flight demand evaluation of the coalescing window: the
  /// leader publishes its outcome here and wakes the joiners.
  struct InFlight {
    /// The fault epoch the leader's miss began at; only misses that
    /// began at the same epoch join.
    std::uint64_t epoch = 0;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const Evaluator::DemandOutcome> outcome;
  };

  /// Evaluates `pattern` demand-driven through the cache and the
  /// single-flight window. Caller must hold data_mu_ (shared).
  Result<std::shared_ptr<const Evaluator::DemandOutcome>> Demand(
      const OTerm& pattern) const;
  /// One evaluation for a miss that began at fault epoch `epoch`:
  /// evaluate, record degradation, and store in the cache unless the
  /// answer is truncated or the epoch moved meanwhile. Caller must hold
  /// data_mu_ (shared).
  Result<std::shared_ptr<const Evaluator::DemandOutcome>> EvaluateAndCache(
      const OTerm& pattern, const std::string& key,
      std::uint64_t epoch) const;
  std::string HealthSignature() const;
  AgentConnection* FindConnection(const std::string& agent_name) const;
  /// Whether `entry` may answer a request made at fault epoch `epoch`:
  /// same epoch, same breaker states, and its reads still current.
  bool Servable(const CacheEntry& entry, std::uint64_t epoch) const;

  Fsm* fsm_;
  GlobalSchema global_;
  std::unique_ptr<Evaluator> evaluator_;
  /// The counting/DRed maintenance engine of a live-updates connection
  /// (null otherwise). Declared after evaluator_ so it is destroyed
  /// first — its destructor detaches the liveness filter it installed.
  std::unique_ptr<IncrementalEvaluator> engine_;
  /// Owned by evaluator_; kept for health reporting.
  std::vector<AgentConnection*> connections_;
  QueryMode query_mode_ = QueryMode::kMaterialized;
  /// Arguments of the last Connect(), replayed by Refresh().
  Fsm::Strategy last_strategy_ = Fsm::Strategy::kAccumulation;
  FederationOptions last_options_;
  bool connected_once_ = false;
  /// Per-query deadline of the active connection (virtual ms;
  /// kNoDeadline = unbounded). Demand queries mint a CancelToken with
  /// this budget; materialized connections spend it at Connect().
  double query_deadline_ms_ = CancelToken::kNoDeadline;
  /// Admission controller of the serving path (null when the connection
  /// was made without admission control). Run/Extent acquire a slot
  /// before doing any work and shed with kResourceExhausted; Explain is
  /// deliberately exempt so overload can be observed *during* overload.
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<std::uint64_t> fault_epoch_{0};
  /// Reader/writer lock over cache_ and demand_degraded_: concurrent
  /// queries share the lock for lookups and take it exclusively only to
  /// store a freshly computed outcome. Demand evaluation itself runs
  /// outside the lock; racing misses on one key share the single-flight
  /// window's evaluation, and where two evaluate anyway (a joiner that
  /// cannot adopt) the later store wins. Connect/InvalidateQueryCache
  /// are writer operations.
  mutable std::shared_mutex cache_mu_;
  mutable std::map<std::string, CacheEntry> cache_;
  mutable std::atomic<size_t> cache_hits_{0};
  mutable std::atomic<size_t> cache_misses_{0};
  mutable std::atomic<size_t> cache_invalidations_{0};
  /// Reader/writer lock between delta application (writer) and the
  /// serving path (shared readers: Run / Extent / Explain / demand
  /// evaluation). Always acquired before cache_mu_ when both are
  /// needed. Connect / Refresh are writer operations too.
  mutable std::shared_mutex data_mu_;
  /// Live-update counters: batches applied, and the per-delta cache
  /// sweep outcomes (entries found warm and kept vs. evicted), cumulative
  /// since Connect.
  std::atomic<size_t> delta_batches_{0};
  mutable std::atomic<size_t> cache_delta_retained_{0};
  mutable std::atomic<size_t> cache_delta_evicted_{0};
  /// Degradation of the most recently served demand query.
  mutable DegradedInfo demand_degraded_;
  /// The single-flight window: pattern key -> the in-flight evaluation
  /// later arrivals join. Guarded by flight_mu_ (leaf lock: never held
  /// while taking data_mu_ or cache_mu_).
  mutable std::mutex flight_mu_;
  mutable std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  /// Serving counters (see ServingStats). Atomics so cursors and
  /// concurrent queries tick them without a lock.
  mutable std::atomic<size_t> cursors_opened_{0};
  mutable std::atomic<size_t> cursors_closed_{0};
  mutable std::atomic<size_t> cursors_expired_{0};
  mutable std::atomic<size_t> pages_served_{0};
  mutable std::atomic<size_t> rows_streamed_{0};
  mutable std::atomic<size_t> heap_evictions_{0};
  mutable std::atomic<size_t> coalesce_hits_{0};
  mutable std::atomic<size_t> coalesce_leaders_{0};
  /// The virtual serving clock cursors age against (idle expiry).
  std::atomic<double> serving_now_ms_{0};
};

}  // namespace ooint

#endif  // OOINT_FEDERATION_FSM_CLIENT_H_
