#ifndef OOINT_FEDERATION_EXPLAIN_H_
#define OOINT_FEDERATION_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "federation/fsm.h"
#include "federation/serving.h"
#include "rules/incremental.h"

namespace ooint {

/// A federated query plan: which component databases a query against a
/// global concept touches, and through which rules — the "automatic
/// decomposition and translation of queries submitted to an integrated
/// schema" the paper's conclusion points at.
struct QueryPlan {
  /// The queried global concept.
  std::string concept_name;
  /// Its RuleGraph::Closure: every concept the evaluated rules read for
  /// it (itself included), breadth-first.
  std::vector<std::string> concepts;
  /// The ground (agent schema, class) extents that will be scanned.
  std::vector<ClassRef> ground_scans;
  /// Indexes into GlobalSchema::rules of the rules involved.
  std::vector<size_t> rules;
  /// Agents contacted (schema names, sorted): those of the scans, or on
  /// a demand connection those its Evaluator::PlanDemand fetches from.
  std::vector<std::string> agents;
  /// When a DegradedInfo was supplied: the plan's agents that are
  /// currently skipped, and the plan's concepts whose extents are
  /// therefore incomplete. Empty for a healthy federation.
  std::vector<std::string> skipped_agents;
  std::vector<std::string> incomplete_concepts;
  /// Agents registered with ground sources that the plan does *not*
  /// touch: a demand-driven query never contacts them (relevance
  /// pruning). Unlike skipped_agents this loses nothing — the answer is
  /// identical to a full evaluation's. Empty on a materialized client.
  std::vector<std::string> pruned_agents;

  /// Demand-mode annotations, filled by FsmClient::Explain from the
  /// Evaluator::PlanDemand a miss runs (QueryMode::kDemandDriven).
  bool demand_mode = false;
  bool magic_applied = false;
  std::string goal_adornment;
  std::string fallback_reason;
  /// Measured evaluation counters (present == true when there are
  /// some). On a demand connection: the client's cached outcome for
  /// this exact query, when one exists; `from_cache` says whether a
  /// lookup would serve the outcome now, and `cache_hits` is the
  /// client's running hit count. On a materialized connection without
  /// live updates: the connect's own evaluation.
  struct Counters {
    bool present = false;
    bool from_cache = false;
    size_t cache_hits = 0;
    /// The evaluation counters: base facts loaded, facts derived,
    /// extents fetched, join-kernel work (DESIGN.md §4l) and whether the
    /// load overlaid a base segment an earlier load encoded (§4f).
    Evaluator::Stats stats;
  };
  Counters counters;

  /// Runtime parallelism annotations (FsmClient::Explain). The overlap
  /// saving is the summed per-agent fetch time minus the measured batch
  /// wall time — how much latency concurrent fetching hid; 0 when the
  /// client runs single-threaded or nothing was fetched overlapped.
  int num_threads = 1;
  double fetch_overlap_saved_ms = 0;

  /// Overload-control annotations (FsmClient::Explain): the query
  /// deadline every query runs under, the admission policy and a
  /// snapshot of the admission controller (queue depth, wait time, shed
  /// counts). `admission_policy` and `admission` are meaningful only
  /// when admission_enabled.
  double query_deadline_ms = CancelToken::kNoDeadline;
  bool admission_enabled = false;
  AdmissionPolicy admission_policy;
  AdmissionController::Stats admission;

  /// Live-update annotations (FsmClient::Explain on a connection that
  /// has seen ApplyDelta): the cumulative counting/DRed maintenance
  /// story, and how the demand cache sweep fared — entries retained
  /// (still warm) vs. evicted across all deltas so far.
  bool live_updates = false;
  size_t delta_batches = 0;
  DeltaMaintenanceStats maintenance;
  size_t cache_entries_retained = 0;
  size_t cache_entries_evicted = 0;

  /// Serving-pipeline annotations (FsmClient::Explain): the connection's
  /// cumulative cursor / streaming / coalescing counters (DESIGN.md
  /// §4k).
  ServingStats serving;

  /// Concepts of this plan whose extents were cut short by the query
  /// deadline (a sound subset — see DegradedInfo::deadline_truncated).
  /// Disjoint from incomplete_concepts, which records fault-skips.
  bool deadline_truncated = false;
  std::vector<std::string> truncated_concepts;

  /// True when the plan touches a skipped agent or was cut short by the
  /// deadline — the answer this plan produces is sound but possibly
  /// incomplete.
  bool degraded() const {
    return !skipped_agents.empty() || deadline_truncated;
  }

  /// Lists the plan's agents and concepts `degraded` names as skipped,
  /// incomplete or truncated.
  void MarkDegraded(const DegradedInfo& degraded);

  std::string ToString() const;
};

/// Computes the plan for querying `concept_name` against `global`: the
/// concept's RuleGraph closure, the rules defining its concepts and the
/// ground sources feeding them. A
/// concept with no rules and no ground sources yields a valid plan with
/// empty scans (the query returns nothing). Passing the federation's
/// current DegradedInfo (FsmClient::degraded()) annotates the plan with
/// the skipped agents and incomplete concepts it actually touches.
Result<QueryPlan> ExplainQuery(const GlobalSchema& global,
                               const std::string& concept_name,
                               const DegradedInfo* degraded = nullptr);

}  // namespace ooint

#endif  // OOINT_FEDERATION_EXPLAIN_H_
