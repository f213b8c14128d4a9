#include "federation/fsm_client.h"

#include <algorithm>
#include <mutex>

#include "common/string_util.h"

namespace ooint {

Status FsmClient::Connect(Fsm::Strategy strategy,
                          const FederationOptions& options) {
  // Serving drains before the world is swapped out under it.
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  last_strategy_ = strategy;
  last_options_ = options;
  connected_once_ = true;
  // A failed (re)connect must leave the client safely disconnected, not
  // holding a stale or half-built evaluator. The engine detaches its
  // liveness filter on destruction, so it goes before the evaluator.
  engine_.reset();
  evaluator_.reset();
  connections_.clear();
  admission_.reset();
  query_deadline_ms_ = CancelToken::kNoDeadline;
  delta_batches_.store(0, std::memory_order_relaxed);
  cache_delta_retained_.store(0, std::memory_order_relaxed);
  cache_delta_evicted_.store(0, std::memory_order_relaxed);
  // Serving state restarts with the connection. No in-flight leaders
  // can exist here (they hold data_mu_ shared), so the window is empty.
  {
    std::lock_guard<std::mutex> flight_lock(flight_mu_);
    inflight_.clear();
  }
  cursors_opened_.store(0, std::memory_order_relaxed);
  cursors_closed_.store(0, std::memory_order_relaxed);
  cursors_expired_.store(0, std::memory_order_relaxed);
  pages_served_.store(0, std::memory_order_relaxed);
  rows_streamed_.store(0, std::memory_order_relaxed);
  heap_evictions_.store(0, std::memory_order_relaxed);
  coalesce_hits_.store(0, std::memory_order_relaxed);
  coalesce_leaders_.store(0, std::memory_order_relaxed);
  // Cached outcomes hold pointers into the old evaluator's sources and
  // predate whatever made the caller reconnect: always a new epoch.
  InvalidateQueryCache();
  fault_epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    demand_degraded_ = DegradedInfo();
  }
  query_mode_ = options.query_mode;
  Result<GlobalSchema> global = fsm_->IntegrateAll(strategy);
  if (!global.ok()) return global.status();
  global_ = std::move(global).value();
  Result<FederatedEvaluator> fed =
      fsm_->MakeFederatedEvaluator(global_, options);
  if (!fed.ok()) return fed.status();
  evaluator_ = std::move(fed.value().evaluator);
  connections_ = std::move(fed.value().connections);
  query_deadline_ms_ = options.query_deadline_ms;
  if (options.admission.max_concurrent > 0) {
    admission_ = std::make_unique<AdmissionController>(options.admission);
  }
  if (options.live_updates && query_mode_ == QueryMode::kMaterialized) {
    // The eager fixpoint was skipped above; the engine does the counted
    // initial load instead (strictly — see FederationOptions).
    Result<std::unique_ptr<IncrementalEvaluator>> engine =
        IncrementalEvaluator::Adopt(evaluator_.get());
    if (!engine.ok()) {
      evaluator_.reset();
      connections_.clear();
      admission_.reset();
      return engine.status();
    }
    engine_ = std::move(engine).value();
  }
  return Status::OK();
}

DegradedInfo FsmClient::degraded() const {
  if (evaluator_ == nullptr) return DegradedInfo();
  if (query_mode_ == QueryMode::kDemandDriven) {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    return demand_degraded_;
  }
  return evaluator_->degraded();
}

std::vector<AgentHealth> FsmClient::ConnectionHealth() const {
  std::vector<AgentHealth> health;
  health.reserve(connections_.size());
  for (const AgentConnection* connection : connections_) {
    health.push_back({connection->agent_name(), connection->breaker_state(),
                      connection->stats()});
  }
  return health;
}

Result<std::string> FsmClient::GlobalNameOf(
    const std::string& schema_name, const std::string& class_name) const {
  for (const auto& [global_name, sources] : global_.ground_sources) {
    for (const ClassRef& source : sources) {
      if (source.schema == schema_name && source.class_name == class_name) {
        return global_name;
      }
    }
  }
  return Status::NotFound(StrCat("no global class integrates ", schema_name,
                                 ".", class_name));
}

std::string FsmClient::HealthSignature() const {
  std::string signature;
  for (const AgentConnection* connection : connections_) {
    signature += StrCat(connection->agent_name(), "=",
                        BreakerStateName(connection->breaker_state()), ";");
  }
  return signature;
}

void FsmClient::InvalidateQueryCache() const {
  {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    cache_.clear();
  }
  cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void FsmClient::BumpFaultEpoch() {
  fault_epoch_.fetch_add(1, std::memory_order_acq_rel);
  cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

AgentConnection* FsmClient::FindConnection(
    const std::string& agent_name) const {
  for (AgentConnection* connection : connections_) {
    if (connection->agent_name() == agent_name) return connection;
  }
  return nullptr;
}

bool FsmClient::Servable(const CacheEntry& entry, std::uint64_t epoch) const {
  return entry.epoch == epoch && entry.health_signature == HealthSignature() &&
         Evaluator::ReadsCurrent(entry.outcome->reads);
}

Status FsmClient::ApplyDelta(const ExtentDelta& delta) {
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  if (evaluator_ == nullptr) {
    return Status::FailedPrecondition("call Connect() before ApplyDelta()");
  }
  AgentConnection* connection = FindConnection(delta.agent_name);
  if (connection == nullptr) {
    return Status::NotFound(
        StrCat("no agent connection named '", delta.agent_name, "'"));
  }
  if (query_mode_ == QueryMode::kMaterialized && engine_ == nullptr) {
    return Status::FailedPrecondition(
        "materialized connection cannot maintain its derived store; "
        "Connect() with FederationOptions::live_updates to accept deltas");
  }
  // Epoch validation happens before any state changes: a stale feed is
  // rejected with the connection (and the derived store) untouched.
  Status accepted = connection->AcceptDelta(delta);
  if (!accepted.ok()) return accepted;
  if (engine_ != nullptr) {
    Result<DeltaMaintenanceStats> batch = engine_->ApplyExtentDelta(
        delta.agent_name, delta.inserted, delta.deleted);
    if (!batch.ok()) return batch.status();
  }
  delta_batches_.fetch_add(1, std::memory_order_relaxed);
  // Sweep the demand cache: entries that read this delta's agent go
  // cold even when no data epoch moved (an attribute edited in place),
  // and so do entries no lookup could serve any more; everything else
  // stays warm. Eviction releases their sub-evaluators and segments.
  std::unique_lock<std::shared_mutex> cache_lock(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end();) {
    const std::vector<ExtentRead>& reads = it->second.outcome->reads;
    const bool read_agent =
        std::any_of(reads.begin(), reads.end(), [&](const ExtentRead& read) {
          return read.source == connection;
        });
    if (read_agent || !Evaluator::ReadsCurrent(reads)) {
      it = cache_.erase(it);
      cache_delta_evicted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
      cache_delta_retained_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status FsmClient::Refresh() {
  if (!connected_once_) {
    return Status::FailedPrecondition("call Connect() before Refresh()");
  }
  return Connect(last_strategy_, last_options_);
}

Result<std::shared_ptr<const Evaluator::DemandOutcome>> FsmClient::Demand(
    const OTerm& pattern) const {
  const std::string key = pattern.ToString();
  const std::uint64_t epoch = fault_epoch();
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && Servable(it->second, epoch)) {
      std::shared_ptr<const Evaluator::DemandOutcome> outcome =
          it->second.outcome;
      lock.unlock();
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::shared_mutex> write(cache_mu_);
      demand_degraded_ = outcome->degraded;
      return outcome;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  // Single-flight window (DESIGN.md §4k): the first miss on a key
  // leads; concurrent misses on the same key join and adopt the
  // leader's outcome instead of re-running the magic-set pass over the
  // same seeds. A flight that began before a fault-epoch bump is not
  // joined: this miss leads a fresh one in its place. Everyone here
  // already holds data_mu_ shared, so a joiner waiting on the leader
  // cannot deadlock against a delta writer: the leader needs no further
  // lock to finish.
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    std::shared_ptr<InFlight>& slot = inflight_[key];
    if (slot == nullptr || slot->epoch != epoch) {
      slot = std::make_shared<InFlight>();
      slot->epoch = epoch;
      leader = true;
    }
    flight = slot;
  }
  if (!leader) {
    coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> wait_lock(flight->mu);
    flight->cv.wait(wait_lock, [&flight] { return flight->done; });
    const Status status = flight->status;
    const std::shared_ptr<const Evaluator::DemandOutcome> adopted =
        flight->outcome;
    wait_lock.unlock();
    // Adopt healthy outcomes only. A deadline-truncated answer is
    // served once, to the leader, and never replayed (the PR 7 rule);
    // a failed leader tells us nothing about our own fault draw.
    // Either way this joiner evaluates for itself.
    if (status.ok() && adopted != nullptr &&
        !adopted->degraded.deadline_truncated) {
      std::unique_lock<std::shared_mutex> write(cache_mu_);
      demand_degraded_ = adopted->degraded;
      return adopted;
    }
    return EvaluateAndCache(pattern, key, epoch);
  }
  coalesce_leaders_.fetch_add(1, std::memory_order_relaxed);
  Result<std::shared_ptr<const Evaluator::DemandOutcome>> result =
      EvaluateAndCache(pattern, key, epoch);
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->status = result.ok() ? Status::OK() : result.status();
    flight->outcome = result.ok() ? result.value() : nullptr;
  }
  flight->cv.notify_all();
  {
    // Close the window: later misses start a fresh flight (the cache
    // answers them unless something invalidated this outcome already).
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second == flight) inflight_.erase(it);
  }
  return result;
}

Result<std::shared_ptr<const Evaluator::DemandOutcome>>
FsmClient::EvaluateAndCache(const OTerm& pattern, const std::string& key,
                            std::uint64_t epoch) const {
  // Evaluate outside the lock so concurrent queries for different keys
  // overlap. Each miss runs under its own fresh deadline token (a cache
  // hit costs no budget; only real evaluation does).
  const CancelToken token =
      query_deadline_ms_ == CancelToken::kNoDeadline
          ? CancelToken()
          : CancelToken::WithBudget(query_deadline_ms_);
  Result<Evaluator::DemandOutcome> outcome =
      evaluator_->EvaluateDemand(pattern, token);
  if (!outcome.ok()) return outcome.status();
  auto shared = std::make_shared<const Evaluator::DemandOutcome>(
      std::move(outcome).value());
  // The signature is taken *after* evaluation: if this very run tripped
  // a breaker, entries stored under the old signature (including this
  // one's contemporaries) will miss and recompute.
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  demand_degraded_ = shared->degraded;
  // A deadline-truncated answer is sound for *this* query's budget but
  // must never be replayed to a later query as the full answer —
  // truncated outcomes are served once and recomputed. An answer whose
  // miss began before a fault-epoch bump could never be served, and
  // storing it could displace a current one.
  if (!shared->degraded.deadline_truncated && epoch == fault_epoch()) {
    cache_[key] = CacheEntry{shared, epoch, HealthSignature()};
  }
  return shared;
}

Result<std::vector<Bindings>> FsmClient::Run(const Query& query) const {
  if (evaluator_ == nullptr) {
    return Status::FailedPrecondition("call Connect() before Run()");
  }
  // Admission first: a shed query does no evaluation work at all, and a
  // queued one must not block delta application while it waits.
  const AdmissionSlot slot(admission_.get());
  if (!slot.status().ok()) return slot.status();
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);
  if (query_mode_ == QueryMode::kDemandDriven) {
    OOINT_ASSIGN_OR_RETURN(auto outcome, Demand(query.pattern()));
    return outcome->rows;
  }
  return evaluator_->Query(query.pattern());
}

Result<std::vector<const Fact*>> FsmClient::Extent(
    const std::string& concept_name) const {
  if (evaluator_ == nullptr) {
    return Status::FailedPrecondition("call Connect() before Extent()");
  }
  const AdmissionSlot slot(admission_.get());
  if (!slot.status().ok()) return slot.status();
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);
  if (query_mode_ == QueryMode::kDemandDriven) {
    // The unbound pattern: demand degenerates to the full (but still
    // relevance-restricted) closure of the concept, which is exactly
    // its materialized extent.
    OTerm pattern;
    pattern.object = TermArg::Variable("_self");
    pattern.class_name = concept_name;
    OOINT_ASSIGN_OR_RETURN(auto outcome, Demand(pattern));
    return outcome->sub->FactsOf(concept_name);
  }
  return evaluator_->FactsOf(concept_name);
}

Result<QueryPlan> FsmClient::Explain(const Query& query) const {
  if (evaluator_ == nullptr) {
    return Status::FailedPrecondition("call Connect() before Explain()");
  }
  // Deliberately no admission slot (overload must stay observable
  // during overload), but the data lock keeps the plan's maintenance
  // stats consistent with a concurrent delta batch.
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);
  OOINT_ASSIGN_OR_RETURN(QueryPlan plan,
                         ExplainQuery(global_, query.pattern().class_name));
  plan.demand_mode = query_mode_ == QueryMode::kDemandDriven;
  plan.num_threads = num_threads();
  plan.query_deadline_ms = query_deadline_ms_;
  if (admission_ != nullptr) {
    plan.admission_enabled = true;
    plan.admission_policy = admission_->policy();
    plan.admission = admission_->stats();
  }
  plan.serving = serving_stats();
  plan.live_updates = engine_ != nullptr;
  plan.delta_batches = delta_batches_.load(std::memory_order_relaxed);
  plan.cache_entries_retained =
      cache_delta_retained_.load(std::memory_order_relaxed);
  plan.cache_entries_evicted =
      cache_delta_evicted_.load(std::memory_order_relaxed);
  if (engine_ != nullptr) plan.maintenance = engine_->cumulative();
  if (!plan.demand_mode) {
    // Connect() fetched every extent, so nothing was pruned; the
    // evaluator's counters say how much latency the overlapped batch hid
    // and whether the load re-encoded the extents or overlaid a segment.
    // A live-updates engine did its own load, which they do not count.
    plan.pruned_agents.clear();
    plan.MarkDegraded(degraded());
    plan.counters.present = engine_ == nullptr;
    plan.counters.stats = evaluator_->StatsSnapshot();
    const Evaluator::Stats& stats = plan.counters.stats;
    plan.fetch_overlap_saved_ms =
        std::max(0.0, stats.fetch_ms_sum - stats.fetch_wall_ms);
    return plan;
  }

  // The step a miss on this query begins with: the plan shown is the
  // plan the miss runs.
  const Evaluator::DemandPlan demand = evaluator_->PlanDemand(query.pattern());
  plan.magic_applied = demand.program.applied;
  plan.goal_adornment = demand.program.goal_adornment;
  plan.fallback_reason = demand.program.fallback_reason;
  plan.agents = demand.contacted_agents;
  plan.pruned_agents = demand.pruned_agents;
  plan.MarkDegraded(degraded());

  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  auto it = cache_.find(query.pattern().ToString());
  if (it != cache_.end()) {
    const Evaluator::DemandOutcome& outcome = *it->second.outcome;
    plan.counters.present = true;
    plan.counters.from_cache = Servable(it->second, fault_epoch());
    plan.counters.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    plan.counters.stats = outcome.stats;
    plan.fetch_overlap_saved_ms = std::max(
        0.0, outcome.stats.fetch_ms_sum - outcome.stats.fetch_wall_ms);
  }
  return plan;
}

Result<std::unique_ptr<ServingCursor>> FsmClient::OpenCursor(
    const Query& query, const ServingOptions& options) const {
  if (evaluator_ == nullptr) {
    return Status::FailedPrecondition("call Connect() before OpenCursor()");
  }
  if (options.page_size == 0) {
    return Status::InvalidArgument("ServingOptions::page_size must be > 0");
  }
  if (options.idle_expiry_ms < 0) {
    return Status::InvalidArgument(
        "ServingOptions::idle_expiry_ms must be >= 0");
  }
  // The evaluation happens at open (or is coalesced / cache-served), so
  // the admission slot guards this call, like Run(). NextPage() only
  // drains the pipeline and is deliberately exempt.
  const AdmissionSlot slot(admission_.get());
  if (!slot.status().ok()) return slot.status();
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);

  PipelineSpec spec;
  spec.filters = options.filters;
  spec.project = options.project;
  // The pipeline de-duplicates, so pages carry Run()'s distinct rows
  // although the raw query stream is duplicate-inclusive (see
  // OpenQueryStream).
  spec.order_by = options.order_by;
  spec.descending = options.descending;
  spec.limit = options.limit;

  std::unique_ptr<RowSource> source;
  std::shared_ptr<const Evaluator::DemandOutcome> outcome;
  DegradedInfo degraded;
  if (query_mode_ == QueryMode::kDemandDriven) {
    OOINT_ASSIGN_OR_RETURN(outcome, Demand(query.pattern()));
    degraded = outcome->degraded;
    // Page the rows Run() returns; the shared outcome keeps them alive —
    // snapshot semantics across later deltas.
    source = std::make_unique<VectorRowSource>(&outcome->rows);
  } else {
    // Materialized cursors read the live derived store; they pin the
    // delta epoch and fail with the documented epoch error once
    // ApplyDelta moves the store under them.
    degraded = evaluator_->degraded();
    OOINT_ASSIGN_OR_RETURN(source,
                           evaluator_->OpenQueryStream(query.pattern()));
  }
  auto pipeline =
      std::make_unique<ResultPipeline>(std::move(source), std::move(spec));
  cursors_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ServingCursor>(new ServingCursor(
      this, options, std::move(outcome), std::move(pipeline),
      std::move(degraded), fault_epoch(),
      delta_batches_.load(std::memory_order_relaxed)));
}

ServingStats FsmClient::serving_stats() const {
  ServingStats stats;
  stats.cursors_opened = cursors_opened_.load(std::memory_order_relaxed);
  stats.cursors_closed = cursors_closed_.load(std::memory_order_relaxed);
  stats.cursors_expired = cursors_expired_.load(std::memory_order_relaxed);
  stats.pages_served = pages_served_.load(std::memory_order_relaxed);
  stats.rows_streamed = rows_streamed_.load(std::memory_order_relaxed);
  stats.heap_evictions = heap_evictions_.load(std::memory_order_relaxed);
  stats.coalesce_hits = coalesce_hits_.load(std::memory_order_relaxed);
  stats.coalesce_leaders = coalesce_leaders_.load(std::memory_order_relaxed);
  return stats;
}

void FsmClient::AdvanceServingClock(double ms) {
  if (ms <= 0) return;
  double now = serving_now_ms_.load(std::memory_order_relaxed);
  while (!serving_now_ms_.compare_exchange_weak(now, now + ms,
                                                std::memory_order_acq_rel)) {
  }
}

}  // namespace ooint
