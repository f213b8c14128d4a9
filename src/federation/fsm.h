#ifndef OOINT_FEDERATION_FSM_H_
#define OOINT_FEDERATION_FSM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assertions/assertion_set.h"
#include "common/admission.h"
#include "common/cancel.h"
#include "common/result.h"
#include "datamap/data_mapping.h"
#include "federation/agent_connection.h"
#include "federation/fsm_agent.h"
#include "integrate/consistency.h"
#include "integrate/integrator.h"
#include "rules/evaluator.h"

namespace ooint {

/// The result of integrating all registered component databases: the
/// lowered global schema, the rules accumulated across rounds, and the
/// provenance linking every global class back to the agent-level classes
/// that populate it.
struct GlobalSchema {
  /// The global schema in plain form.
  Schema schema{"IS"};
  /// Global class name -> ground (agent schema, class) sources.
  std::map<std::string, std::vector<ClassRef>> ground_sources;
  /// All rules generated across integration rounds, rewritten to the
  /// final class names.
  std::vector<Rule> rules;
  /// Aggregated instrumentation over every pairwise round.
  IntegrationStats total_stats;
  /// The last round's full integrated schema (provenance, kinds, value
  /// set operations).
  IntegratedSchema last_round{"IS"};
  /// Number of pairwise integration rounds performed.
  size_t rounds = 0;
};

/// How FsmClient answers queries (see DESIGN.md "Demand-driven
/// evaluation").
enum class QueryMode {
  /// Connect() materializes the full global closure once; queries are
  /// pattern matches against it. Best for extent-heavy traffic.
  kMaterialized,
  /// Connect() only integrates schemas; each query runs a goal-directed
  /// (magic-set rewritten, relevance-pruned) fixpoint, memoized in a
  /// per-connection cache. Best for selective interactive traffic.
  /// Agent faults surface per query rather than at Connect() time.
  kDemandDriven,
};

/// How the federation behaves when component databases fail (see
/// DESIGN.md "Degraded federation semantics").
struct FederationOptions {
  /// Strict fails the whole evaluation on the first unreachable agent;
  /// partial answers from the reachable ones and reports the rest.
  FailurePolicy failure_policy = FailurePolicy::kStrict;
  /// How FsmClient::Run answers (materialize-at-connect vs. per-query
  /// demand-driven evaluation).
  QueryMode query_mode = QueryMode::kMaterialized;
  /// Per-connection retry/backoff/deadline parameters.
  RetryPolicy retry;
  /// Per-connection circuit-breaker thresholds.
  BreakerPolicy breaker;
  /// Optional deterministic fault schedule (testing/chaos drills).
  /// Borrowed; must outlive the evaluator built from these options.
  FaultInjector* injector = nullptr;
  /// Worker threads of the federation runtime. 1 (the default) creates
  /// no pool: each extent is fetched in place, in binding order. More
  /// than 1 prefetches every extent up front, overlapping the fetches
  /// (and retry/backoff waits) of distinct agents. The fixpoint always
  /// runs on the calling thread, so derived facts and evaluator
  /// counters are identical either way (see DESIGN.md "Parallel
  /// execution model").
  int num_threads = 1;
  /// End-to-end deadline, in *virtual* milliseconds, each query gets
  /// (see DESIGN.md "Overload-robust serving"). kNoDeadline — the
  /// default — disables deadlines entirely. A query that runs out of
  /// budget unwinds with kDeadlineExceeded under kStrict, or returns a
  /// sound subset of the full answer under kPartial, with the missing
  /// concepts accounted in DegradedInfo as `deadline_truncated` —
  /// disjoint from fault-skips. 0 is a valid (already-expired) deadline:
  /// such queries fail fast before fetching anything; negative values
  /// are rejected with kInvalidArgument when the evaluator is built.
  double query_deadline_ms = CancelToken::kNoDeadline;
  /// Admission control in front of the serving path (FsmClient::Run /
  /// Extent / demand queries). Disabled by default; with
  /// `admission.max_concurrent > 0`, over-limit queries queue up to
  /// `max_queue_depth` deep (waiting at most `queue_wait_deadline_ms`
  /// real ms) and are otherwise shed fast with kResourceExhausted.
  AdmissionPolicy admission;
  /// Live updates (DESIGN.md §4j): a kMaterialized client connected
  /// with this flag runs its initial fixpoint through the counting /
  /// DRed incremental engine and then accepts FsmClient::ApplyDelta
  /// feeds, maintaining the derived store batch by batch instead of
  /// rebuilding. The initial load is strict (a failing agent fails
  /// Connect) regardless of failure_policy — incremental maintenance
  /// over a partially loaded base would drift from every rebuild — and,
  /// like the eager fixpoint, under query_deadline_ms.
  /// Demand-driven clients ignore the flag: they re-fetch per query and
  /// only need the cache sweep ApplyDelta always performs.
  bool live_updates = false;
};

/// A federated evaluator plus views of the per-agent connections it
/// owns (for health reporting). Connections are keyed by agent schema
/// name, in agents() order.
struct FederatedEvaluator {
  std::unique_ptr<Evaluator> evaluator;
  std::vector<AgentConnection*> connections;
};

/// The Federated System Manager (Fig. 1, middle layer): registers the
/// FSM-agents (component databases), holds the correspondence assertions
/// and data mappings declared by DBAs, merges the local schemas into a
/// global one, and builds the federated evaluator queries run against.
class Fsm {
 public:
  /// How more than two schemas are combined (Fig. 2):
  enum class Strategy {
    /// (a) accumulate one schema at a time into the running result.
    kAccumulation,
    /// (b) integrate pairs, then pairs of results, until one remains.
    kBalanced,
  };

  Fsm() = default;

  /// Registers a component database; its schema name must be unique.
  Status RegisterAgent(std::unique_ptr<FsmAgent> agent);
  FsmAgent* FindAgent(const std::string& schema_name) const;
  const std::vector<std::unique_ptr<FsmAgent>>& agents() const {
    return agents_;
  }

  /// Declares correspondence assertions, in the textual assertion
  /// language or pre-built. Assertions reference agent schema names.
  /// Each goes through AssertionSet::Add, so a malformed assertion or a
  /// second set relation on a declared pair is rejected; a text is
  /// declared whole or not at all.
  Status DeclareAssertions(const std::string& text);
  Status AddAssertion(Assertion assertion);
  const std::vector<Assertion>& assertions() const {
    return assertions_.assertions();
  }

  /// The value-level data mappings and OID identities (Section 3).
  DataMappingRegistry& mappings() { return mappings_; }
  const DataMappingRegistry& mappings() const { return mappings_; }

  /// The attribute integration functions (Principle 3).
  AifRegistry& aifs() { return aifs_; }
  const AifRegistry& aifs() const { return aifs_; }

  /// Runs the static consistency analysis (integrate/consistency.h)
  /// over every registered schema pair, against the assertions that
  /// relate that pair. Aggregates all findings. Fails with
  /// AssertionSet::Validate's error when such an assertion names a class
  /// or path its schema lacks.
  Result<std::vector<ConsistencyFinding>> CheckAllConsistency() const;

  /// Integrates every registered schema into a global one. With two or
  /// more agents every declared assertion must be applied by some round;
  /// otherwise the call fails with kInvalidArgument naming each one that
  /// no round applied: it names a class no agent exports, relates two
  /// classes of one agent, or is a derivation whose lhs classes never
  /// share a view that meets its rhs.
  Result<GlobalSchema> IntegrateAll(Strategy strategy = Strategy::kAccumulation);

  /// Builds a federated evaluator over `global`: agent stores as
  /// sources (direct, infallible pointers), ground-source concept
  /// bindings, and every definite rule. Evaluate() has already been run
  /// on the returned evaluator.
  Result<std::unique_ptr<Evaluator>> MakeEvaluator(
      const GlobalSchema& global) const;

  /// Like MakeEvaluator, but every agent is reached through a
  /// fault-tolerant AgentConnection configured by `options` (retries,
  /// deadlines, circuit breaking, optional fault injection). Under
  /// FailurePolicy::kPartial a degraded federation still evaluates; the
  /// evaluator's degraded() record says what was skipped. The evaluator
  /// and its demand queries load through segment_cache(), so a connect
  /// on agents whose data has not moved overlays the extents an earlier
  /// load encoded (DESIGN.md 4f); a live_updates evaluator's engine
  /// loads its own single-layer store instead.
  Result<FederatedEvaluator> MakeFederatedEvaluator(
      const GlobalSchema& global, const FederationOptions& options = {}) const;

  /// The encoded base segments every federated evaluator shares. It
  /// outlives connections; MakeEvaluator's direct evaluators, the
  /// reference the conformance oracles compare against, never use it.
  const SegmentCache& segment_cache() const { return *segments_; }

 private:
  /// Shared tail of the evaluator builders: concept bindings, rules,
  /// data mappings, then — unless `evaluate` is false (demand-driven
  /// clients run per-query fixpoints instead) — the fixpoint run.
  Status ConfigureEvaluator(Evaluator* evaluator, const GlobalSchema& global,
                            bool evaluate = true) const;

  /// Where one agent class lands in a round's view.
  struct MappedClass {
    /// The view class; kInvalidClassId when none represents it.
    ClassId id = kInvalidClassId;
    /// Per attribute slot of the agent class (its attributes, then its
    /// aggregation functions): the slot's name in the view; "" when the
    /// round's integration left it unmapped.
    std::vector<std::string> attrs;
  };

  /// One working operand of the pairwise integration process (Fig. 2):
  /// a schema plus the maps that rewrite assertions and rules into its
  /// namespace. A leaf view borrows its agent's finalized schema, and its
  /// maps are the identity, so it stores none. A round's view owns its
  /// lowered schema and maps every agent class it covers by
  /// (agent, ClassId) — the composition of the rounds' schema mappings.
  struct View {
    /// The agent's schema for a leaf, `lowered` otherwise.
    const Schema* schema = nullptr;
    std::unique_ptr<Schema> lowered;
    /// A leaf's agent (index into agents_).
    size_t agent = 0;
    /// Round views: per agent (indexed like agents_; empty for agents
    /// the view does not cover), per agent ClassId.
    std::vector<std::vector<MappedClass>> classes;
    /// Round views: per view ClassId, the agent classes populating it.
    std::vector<std::vector<ClassRef>> ground_sources;
    std::vector<Rule> rules;

    bool leaf() const { return lowered == nullptr; }
    /// The view class agent class (agent, id) maps to; kInvalidClassId
    /// when the view does not cover it.
    ClassId MapClass(size_t agent, ClassId id) const;
  };

  /// An agent class named by an assertion, resolved once per
  /// IntegrateAll; id is kInvalidClassId when no agent has it.
  struct AgentClass {
    size_t agent = 0;
    ClassId id = kInvalidClassId;
  };

  /// Where each declared assertion's classes live, and whether a round
  /// has applied it yet.
  struct Grounding {
    std::vector<AgentClass> lhs;
    AgentClass rhs;
    bool applied = false;
  };

  /// Resolves a schema-qualified class name to an agent class.
  AgentClass ResolveAgentClass(const std::string& schema_name,
                               const std::string& class_name) const;

  /// Rewrites `original` into the namespaces of v1/v2; returns false
  /// (without error) when the assertion does not span the two views.
  bool RewriteAssertion(const View& v1, const View& v2,
                        const Assertion& original, const Grounding& grounding,
                        Assertion* rewritten) const;

  /// Integrates two views into one (one round of Fig. 2). The maps of
  /// the result are composed only when a later round reads them, i.e.
  /// unless `last`.
  Result<View> IntegrateViews(View v1, View v2, bool last,
                              std::vector<Grounding>* groundings,
                              IntegrationStats* stats,
                              IntegratedSchema* last_round);

  std::vector<std::unique_ptr<FsmAgent>> agents_;
  AssertionSet assertions_;
  DataMappingRegistry mappings_;
  AifRegistry aifs_;
  std::shared_ptr<SegmentCache> segments_ = std::make_shared<SegmentCache>();
};

}  // namespace ooint

#endif  // OOINT_FEDERATION_FSM_H_
