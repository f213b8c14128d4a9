#ifndef OOINT_RULES_EVALUATOR_H_
#define OOINT_RULES_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "datamap/data_mapping.h"
#include "model/instance_store.h"
#include "rules/fact.h"
#include "rules/fact_store.h"
#include "rules/join_kernel.h"
#include "rules/magic.h"
#include "rules/matcher.h"
#include "rules/planner.h"
#include "rules/result_pipeline.h"
#include "rules/rule.h"
#include "rules/rule_graph.h"

namespace ooint {

/// Fixpoint strategy. kSemiNaive (the default) evaluates each rule only
/// against body instantiations that touch at least one fact derived in
/// the previous round (delta-driven, with bound-first indexed joins);
/// kNaive is the textbook re-evaluate-everything loop kept as the
/// differential-testing oracle — both derive the same fact sets.
enum class EvalStrategy { kSemiNaive, kNaive };

/// ExtentSource::data_epoch() of a source that cannot version its data.
inline constexpr std::uint64_t kNoDataEpoch = ~0ull;

/// A fallible handle to one component database's extension. The direct
/// in-process InstanceStore is one implementation; the federation layer
/// provides another (AgentConnection) that models a remote, failure-prone
/// agent with deadlines, retries and a circuit breaker. Schema metadata
/// is assumed cached at connection time and is therefore infallible;
/// every *extent read* can fail.
class ExtentSource {
 public:
  virtual ~ExtentSource() = default;

  /// The source's (finalized) local schema.
  virtual const Schema& schema() const = 0;

  /// One extent read: every object of `class_name`, including instances
  /// of transitive subclasses. Pointers remain owned by the source and
  /// must stay valid until the next mutation of the underlying store.
  /// Sources that wait (AgentConnection) charge every virtual wait to
  /// `token` and derive per-attempt deadlines from its remaining budget,
  /// so one query-wide deadline bounds the whole fetch including retries
  /// and backoff. The token is a *per-call* parameter — connections are
  /// shared across concurrent queries, each carrying its own token —
  /// and instantaneous sources have nothing to charge to it.
  virtual Result<std::vector<const Object*>> FetchExtent(
      const std::string& class_name, const CancelToken& token) = 0;

  /// Version of the data behind the source: equal epochs mean a
  /// successful fetch returns the same objects. Loads share an encoded
  /// base segment only across equal epochs (DESIGN.md 4f);
  /// kNoDataEpoch (the default) never shares.
  virtual std::uint64_t data_epoch() const { return kNoDataEpoch; }
};

/// One extent read of a concurrent batch (see FetchExtentsOverlapped).
struct ExtentRequest {
  ExtentSource* source = nullptr;
  std::string class_name;
};

/// The answer to one ExtentRequest. Not a Result<> so a whole batch can
/// be preallocated; `status` is OK iff `objects` is meaningful.
struct ExtentReply {
  Status status;
  std::vector<const Object*> objects;
  /// Real wall-clock milliseconds the fetch took (retries, backoff and
  /// scaled sleeps included) — the per-agent cost Explain aggregates
  /// into overlap savings.
  double wall_ms = 0;
  /// False when the fetch was never issued because the batch's cancel
  /// token had already expired — the source was not contacted, so the
  /// read does not count toward Stats::extents_fetched.
  bool issued = false;
  /// The source's data_epoch() when the fetch was issued.
  std::uint64_t data_epoch = kNoDataEpoch;
};

/// One extent read an evaluation issued, failed or not: the source and
/// its data_epoch() when the read was issued (see
/// Evaluator::ReadsCurrent).
struct ExtentRead {
  const ExtentSource* source = nullptr;
  std::uint64_t data_epoch = kNoDataEpoch;
};

/// Issues the batch concurrently on `pool` (serially when `pool` is
/// null or single-threaded) and returns replies in request order.
/// Requests against the *same* source are grouped into one task and run
/// serially in request order — a source's fault schedule, retry stream
/// and breaker state then evolve exactly as under a serial fetch, which
/// is what keeps parallel federations bit-identical to serial ones;
/// only distinct sources overlap. `token` bounds the whole batch: each
/// fetch checks it immediately before issuing (an expired token yields
/// kDeadlineExceeded without contacting the source) and the token is
/// passed through to the sources so their waits charge against it.
std::vector<ExtentReply> FetchExtentsOverlapped(
    const std::vector<ExtentRequest>& requests, ThreadPool* pool,
    const CancelToken& token = {});

/// What Evaluate() does when an extent read fails.
enum class FailurePolicy {
  /// Fail fast: the first source error aborts evaluation and is
  /// returned to the caller unchanged.
  kStrict,
  /// Keep going: evaluation proceeds over the reachable sources and the
  /// result is a *sound but possibly incomplete* answer, described by
  /// DegradedInfo.
  kPartial,
};

/// The degradation record of a partial-mode evaluation: which agents
/// were skipped (and the status that condemned them) and which global
/// concepts are therefore possibly incomplete — the concepts bound to a
/// skipped agent plus everything derivable from them through rules.
struct DegradedInfo {
  struct SkippedAgent {
    std::string schema_name;
    /// The final status of the failed extent read (after any retries).
    Status status;
  };
  /// One entry per skipped agent (first failing status wins).
  std::vector<SkippedAgent> skipped;
  /// Sorted, deduplicated names of possibly-incomplete global concepts.
  /// Concepts reached through a *negated* body literal are included
  /// too: a missing fact can then make the partial answer unsound, so
  /// such concepts are also listed in `unsound_concepts`.
  std::vector<std::string> incomplete_concepts;
  /// Concepts whose partial extent may contain facts the fault-free
  /// evaluation would not derive (incompleteness crossed a negation).
  std::vector<std::string> unsound_concepts;
  /// Agents a demand-driven query never contacted because no concept of
  /// theirs is reachable from the goal (see Evaluator::EvaluateDemand).
  /// Distinct from `skipped`: pruning costs nothing and loses nothing —
  /// the answer is exactly what a full evaluation would return for the
  /// goal — so pruned agents never appear in incomplete_concepts.
  std::vector<std::string> pruned_agents;
  /// True when the query's deadline (or an explicit cancellation)
  /// stopped evaluation early under FailurePolicy::kPartial: derivation
  /// halted at a round boundary, so the answer is a *sound subset* of
  /// the unbounded answer (stratified negation only ever reads
  /// completed strata — truncation can lose facts, never invent them).
  /// A third category, disjoint from fault-skips (`skipped`: an agent
  /// misbehaved) and relevance-pruning (`pruned_agents`: the query
  /// provably doesn't need the agent): here the *query* ran out of
  /// time, no agent is at fault, and the loss is bounded by where the
  /// clock stopped.
  bool deadline_truncated = false;
  /// Sorted, deduplicated names of concepts whose extents may be
  /// missing facts because of the truncation: the bound concepts whose
  /// fetch never completed plus every concept heading a rule in a
  /// stratum the fixpoint did not finish.
  std::vector<std::string> truncated_concepts;

  bool degraded() const { return !skipped.empty() || deadline_truncated; }
  bool SkippedAgentNamed(const std::string& schema_name) const;
  std::string ToString() const;
};

/// Encoded base segments (DESIGN.md 4f): per binding list, the immutable
/// FactStore a complete load encoded, valid at the data epochs its
/// extents were fetched at. One cache serves every evaluator loading
/// from the same agents — the Fsm's materialized connects and demand
/// misses alike — so it outlives any one connection. Thread-safe.
class SegmentCache {
 public:
  /// One bound extent: local class `class_name` of agent `schema_name`
  /// populates global concept `concept_name`. A key lists a load's
  /// bindings by content, in load order, so two binding lists share a
  /// segment only when they would encode the same facts.
  struct Binding {
    std::string concept_name;
    std::string schema_name;
    std::string class_name;
    friend auto operator<=>(const Binding&, const Binding&) = default;
  };
  using Key = std::vector<Binding>;

  /// Null unless the segment cached for `key` was built at exactly
  /// `epochs` (the data epoch each binding's fetch saw).
  std::shared_ptr<const FactStore> Find(
      const Key& key, const std::vector<std::uint64_t>& epochs) const;
  /// Records `segment` for `key`, replacing the key's entry, and drops
  /// every entry that recorded an older epoch for an agent `key` reads:
  /// data epochs only grow, so such an entry can never match again.
  void Store(Key key, std::vector<std::uint64_t> epochs,
             std::shared_ptr<const FactStore> segment);
  /// Entries held: at most one per distinct binding list.
  size_t size() const;

 private:
  struct Entry {
    std::vector<std::uint64_t> epochs;
    std::shared_ptr<const FactStore> segment;
  };
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
};

/// Bottom-up evaluator of the "virtual" rules the integration principles
/// generate (Section 5, Appendix B).
///
/// The evaluator is federated: base facts are never copied out of the
/// component databases ahead of time conceptually — each registered
/// (schema, store) pair is consulted through concept_name bindings, which
/// declare that a global concept_name name (e.g. "IS(S1.person)") is
/// populated by the extent of a local class ("person" in store S1).
/// Rules then derive virtual-class membership and derived objects on
/// top. Evaluation runs stratum by stratum (stratified negation: the
/// ¬IS_AB patterns of Principles 3 and 4) to a fixpoint.
///
/// The fixpoint is semi-naive: per-concept_id delta windows track the facts
/// each round added, and every rule application constrains one positive
/// body literal to the delta while replaying a precomputed body plan
/// (rules/planner.h) against the FactStore's (concept_id, attribute,
/// value) and OID indexes (see DESIGN.md "Evaluation strategy").
///
/// Equality between two OID values consults the DataMappingRegistry when
/// one is configured — the paper's "oi1 = oi2 (in terms of data
/// mapping)" cross-database identity.
///
/// Disjunctive-head rules (Principle 4's general form) are constraints,
/// not definite clauses; AddRule rejects them with kUnsupported so the
/// caller can keep them documentation-only.
class Evaluator {
 public:
  Evaluator() = default;

  /// Registers a component database through a direct in-process handle.
  /// `store` must outlive the evaluator.
  void AddSource(const std::string& schema_name, const InstanceStore* store);

  /// Registers a component database through a fallible connection the
  /// evaluator takes ownership of (the federation's AgentConnection).
  void AddSource(const std::string& schema_name,
                 std::unique_ptr<ExtentSource> source);

  /// Registers a component database through a borrowed connection —
  /// `source` must outlive the evaluator. Used by EvaluateDemand() to
  /// share the parent's agent connections (and their breaker state) with
  /// the per-query sub-evaluator.
  void AddBorrowedSource(const std::string& schema_name, ExtentSource* source);

  /// Adds a ground fact loaded alongside the base extents on the next
  /// Evaluate() — the demand path plants magic seed facts this way.
  void AddFact(Fact fact);

  /// Declares that facts of local class `class_name` in source
  /// `schema_name` populate the global concept_name `concept_name`.
  Status BindConcept(const std::string& concept_name,
                     const std::string& schema_name,
                     const std::string& class_name);

  /// Adds a definite rule (checked for safety).
  Status AddRule(Rule rule);

  /// Optional cross-database OID identity (see class comment).
  void SetDataMappings(const DataMappingRegistry* registry) {
    mappings_ = registry;
  }

  void set_strategy(EvalStrategy strategy) { strategy_ = strategy; }

  /// Shares a worker pool with the evaluator. With a pool of two or
  /// more threads, Evaluate() prefetches every extent up front,
  /// overlapping the fetches of distinct sources (see DESIGN.md
  /// "Parallel execution model"); the fixpoint itself always runs on
  /// the calling thread, so facts and Stats counters are the serial
  /// engine's. A null or single-thread pool fetches each extent in
  /// place. EvaluateDemand's sub-evaluators inherit the pool.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) {
    pool_ = std::move(pool);
  }
  int thread_count() const { return pool_ == nullptr ? 1 : pool_->size(); }

  /// Loads base facts through `cache` (DESIGN.md 4f): Evaluate() and
  /// every demand sub-evaluator overlay the segment an earlier load
  /// encoded when each fetch succeeds at the epochs it was built at, and
  /// store the complete loads they encode. The Fsm gives every evaluator
  /// MakeFederatedEvaluator builds its own cache. Without one (the
  /// default) the store is a single layer and no load is shared.
  void set_segment_cache(std::shared_ptr<SegmentCache> cache) {
    segments_ = std::move(cache);
  }

  /// Strict (default) fails fast on the first unreachable source;
  /// partial evaluates what it can and records the rest in degraded().
  void set_failure_policy(FailurePolicy policy) { failure_policy_ = policy; }

  /// How rule bodies are ordered (rules/planner.h). kCostBased (the
  /// default) precomputes a per-(rule, stratum) plan from extent
  /// estimates; kFixedSip forces left-to-right with indexes on — the
  /// conformance family-12 foil. Demand sub-evaluators inherit it.
  void set_planner_mode(PlannerMode mode) { planner_mode_ = mode; }

  /// End-to-end deadline / cancellation for the next Evaluate(). The
  /// token is checked before every extent fetch and at every fixpoint
  /// round boundary (each round charges CancelToken::kRoundChargeMs;
  /// connections charge their virtual waits), so an expired or
  /// cancelled token unwinds within one bounded step. Under kStrict the
  /// unwind returns kDeadlineExceeded and leaves the store bit-identical
  /// to never-started (Reset() on the way out); under kPartial the
  /// answer so far is returned with degraded().deadline_truncated set.
  /// A token already expired at Evaluate() entry fails with
  /// kDeadlineExceeded before fetching anything, under either policy.
  /// The default token never expires.
  void set_cancel_token(CancelToken token) { token_ = std::move(token); }

  /// The degradation record of the last Evaluate() (empty when every
  /// source answered, or under FailurePolicy::kStrict).
  const DegradedInfo& degraded() const { return degraded_; }

  /// Runs stratified fixpoint evaluation. Idempotent until rules or
  /// sources change (call Reset() to re-run).
  Status Evaluate();
  void Reset();

  /// All facts of `concept_name` (base + derived). Evaluate() must have run.
  std::vector<const Fact*> FactsOf(const std::string& concept_name) const;

  /// Matches `pattern` against the evaluated facts and returns all
  /// variable bindings — the query interface ("?-uncle(John, y)" becomes
  /// a pattern <_ : uncle | Ussn#: "John", niece_nephew: y>). A drain of
  /// OpenQueryStream(pattern)'s stream into a DistinctRows store: each
  /// distinct row once, in the order the stream first yields it, built
  /// as Bindings only after the drain.
  Result<std::vector<Bindings>> Query(const OTerm& pattern) const;

  /// The answer path: a QueryStream yielding the pattern's match rows
  /// one at a time, as value handles. The candidates are chosen once, at
  /// open (a PostingsCursor snapshot of the best value index, or the
  /// concept's ordinal range), the pattern is compiled once, and each
  /// Next() unifies one candidate fact in place off the columnar store,
  /// materializing nothing. The stream does NOT de-duplicate
  /// — set attributes can match one fact several ways, and facts that
  /// differ only in unmatched attributes bind alike — so Query() drains
  /// it into a DistinctRows store, and cursors run it through a
  /// ResultPipeline, which de-duplicates too. The source borrows this
  /// evaluator: it must not outlive it, and the store must not gain
  /// facts while the stream is open (materialized cursors fail with an
  /// epoch error once a delta lands — see FsmClient::OpenCursor).
  Result<std::unique_ptr<RowSource>> OpenQueryStream(
      const OTerm& pattern) const;

  struct Stats {
    size_t base_facts = 0;
    size_t derived_facts = 0;
    size_t rule_applications = 0;
    size_t iterations = 0;
    size_t strata = 0;
    /// Index *lookups* (Probe/ProbeOid calls answering a literal
    /// expansion) vs. literal expansions answered by scanning a
    /// concept_id extent (or delta window).
    size_t index_probes = 0;
    size_t index_scans = 0;
    /// Postings decoded off PostingsCursors (cursor advance steps) —
    /// the per-posting cost index_probes used to mislabel.
    size_t cursor_steps = 0;
    /// Join-kernel work: linear-merge/bitmap operations and galloping
    /// hops of the postings intersections (see rules/join_kernel.h).
    size_t merge_steps = 0;
    size_t gallop_steps = 0;
    /// Body plans where cost estimates overrode the connectivity SIP
    /// (see rules/planner.h).
    size_t plan_reorders = 0;
    /// Total delta facts fed into each fixpoint round, in order.
    std::vector<size_t> delta_sizes;
    /// Wall-clock milliseconds spent per stratum.
    std::vector<double> stratum_ms;
    /// Extent reads actually issued against sources (one per bound
    /// concept that was not relevance-pruned).
    size_t extents_fetched = 0;
    /// Overlapped-fetch accounting (zero when extents are fetched in
    /// place): the sum of per-request wall times vs. the wall time of
    /// the whole prefetch batch.
    /// Their difference is the latency the overlap hid.
    double fetch_ms_sum = 0;
    double fetch_wall_ms = 0;
    /// 1 when the load overlaid a segment an earlier load encoded
    /// (DESIGN.md 4f), else 0 — the one counter in which the load that
    /// builds a segment and the loads that reuse it differ.
    size_t base_segments_reused = 0;

    /// Accumulates another Stats' join counters (query-local merges).
    void AddJoinCounters(const Stats& other) {
      index_probes += other.index_probes;
      index_scans += other.index_scans;
      cursor_steps += other.cursor_steps;
      merge_steps += other.merge_steps;
      gallop_steps += other.gallop_steps;
      plan_reorders += other.plan_reorders;
    }
  };
  const Stats& stats() const { return stats_; }
  /// A copy of stats() taken under the lock concurrent query streams
  /// (Query() drains one) merge their join counters under.
  Stats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(*stats_mu_);
    return stats_;
  }

  /// Everything a demand-driven query returns. `rows` is
  /// sub->Query(pattern), which Run() returns and demand cursors page;
  /// `sub` is the evaluated sub-evaluator, whose FactsOf() answers a
  /// demand Extent(). Fact pointers from `sub` live as long as it does.
  struct DemandOutcome {
    std::vector<Bindings> rows;
    /// Degradation of the sub-evaluation (fault-skipped agents etc.),
    /// with the plan's pruned agents in and magic predicates filtered
    /// out. Whether the rewrite ran, and why not, is PlanDemand's.
    DegradedInfo degraded;
    /// Every extent read the load issued, fault-skipped ones included:
    /// the record ReadsCurrent() checks before the outcome is reused.
    std::vector<ExtentRead> reads;
    Stats stats;
    std::shared_ptr<Evaluator> sub;
  };

  /// Whether every read still sees the data it saw: each source's
  /// data_epoch() equals the epoch its read was issued at. A source
  /// that cannot version its data (kNoDataEpoch) cannot report a change
  /// and counts as current.
  static bool ReadsCurrent(const std::vector<ExtentRead>& reads);

  /// The rewrite-and-prune step a demand query begins with, contacting
  /// no source: the goal's magic program (rules/magic.h), the bindings
  /// the query fetches (those the goal reaches, unless nested
  /// descriptors make that unsafe) and the agents it contacts or not.
  /// FsmClient::Explain prints it, so a plan is the plan a miss runs.
  struct DemandPlan {
    MagicProgram program;
    std::vector<size_t> bindings;  // indices, in declaration order
    std::vector<std::string> contacted_agents;  // sorted
    std::vector<std::string> pruned_agents;     // sorted
  };
  DemandPlan PlanDemand(const OTerm& pattern) const;

  /// Goal-directed evaluation of one query pattern: runs PlanDemand's
  /// rewritten program over the bindings it keeps — so irrelevant
  /// agents are never fetched from — in a private sub-evaluator that
  /// borrows this evaluator's sources. Falls back to evaluating the
  /// reachable subprogram unrewritten when the rewrite cannot adorn the
  /// program soundly (the plan's fallback_reason says why). Answers are
  /// always exactly Query(pattern) under a full Evaluate().
  ///
  /// Does not touch this evaluator's own fact store or stats; usable
  /// whether or not Evaluate() has run.
  ///
  /// `token` is the query's deadline/cancellation handle (see
  /// set_cancel_token); it is a parameter — not inherited from this
  /// evaluator — because concurrent queries share one parent evaluator
  /// while each carries its own deadline. A token already expired at
  /// entry returns kDeadlineExceeded before contacting any source.
  Result<DemandOutcome> EvaluateDemand(const OTerm& pattern,
                                       const CancelToken& token = {}) const;

  /// The evaluated fact universe (read-only) — the conformance
  /// harness's store-differential oracle replays it into reference and
  /// columnar stores.
  const FactStore& fact_store() const { return store_; }

 private:
  /// The incremental maintenance engine (rules/incremental.h) drives the
  /// evaluator's private join machinery (SolveBody-equivalent candidate
  /// enumeration, head construction, the packed store) and installs the
  /// liveness side column — it is an alternate fixpoint driver, not a
  /// client, hence the friendship.
  friend class IncrementalEvaluator;
  friend std::vector<ExtentReply> FetchExtentsOverlapped(
      const std::vector<ExtentRequest>& requests, ThreadPool* pool,
      const CancelToken& token);

  struct Source {
    std::string schema_name;
    /// Borrowed view; points at `owned` when the evaluator owns it.
    ExtentSource* source;
    std::unique_ptr<ExtentSource> owned;
  };
  struct ConceptBinding {
    std::string concept_name;
    size_t source_index;
    std::string class_name;
  };

  /// One extent read, timed. An expired token is a fast unwind: the
  /// fetch is not issued at all — no retries burned, no breaker
  /// movement.
  static ExtentReply FetchOne(const ExtentRequest& request,
                              const CancelToken& token);

  /// Fetches every bound concept_name's extent and loads its facts,
  /// then the AddFact() seeds. Under FailurePolicy::kPartial a failing
  /// extent read marks the agent skipped (degraded_) and every concept
  /// the rules derive from its extent (RuleGraph::Downstream)
  /// incomplete, instead of aborting. With a segment cache the extents
  /// are encoded into a base segment the store overlays, or a cached
  /// one is reused when every fetch succeeded at the epochs it was
  /// built at. Every issued read is recorded in reads_.
  Status LoadBaseFacts();

  /// One body solution: the variable bindings plus the facts matched by
  /// positive O-term literals, slotted by body position so attribute
  /// merging is independent of the join order chosen at runtime.
  struct Solution {
    Bindings bindings;
    std::vector<FactView> matched;  // body.size() slots, may be invalid
  };

  /// Incremental-maintenance join hooks (rules/incremental.h). The
  /// counting/DRed engine pins one body position to a single pivot fact
  /// and assigns every other fact literal a *world* — which FactIds it
  /// may see (old vs. new liveness, telescoped round membership). Null
  /// in JoinContext preserves the classic fixpoint bit for bit.
  struct IncrementalHooks {
    /// Whether body position `literal_index` may match fact `id`.
    /// Applied to positive candidates and to negation checks alike.
    std::function<bool(size_t, FactId)> admit;
    /// When >= 0, candidates of this body position are exactly
    /// `pivot_fact` (the delta pivot of the telescoped join).
    int pivot_literal = -1;
    FactId pivot_fact = kNoFact;
  };

  /// Per-ApplyRule join context: the body order to replay, which body
  /// literal (if any) is restricted to the delta window of its
  /// concept_id, and whether the naive oracle's scan-only semantics are
  /// requested.
  struct JoinContext {
    const Rule* rule = nullptr;
    /// The body order (rules/planner.h; see ComputePlan). Required by
    /// SolveBody, which consumes literal plan->order[d] at depth d.
    const BodyPlan* plan = nullptr;
    int delta_literal = -1;
    std::uint32_t delta_begin = 0;
    std::uint32_t delta_end = 0;
    bool use_index = true;
    /// Where probe/scan counters tick. Null means the evaluator's own
    /// stats_; concurrent queries point this at a query-local Stats
    /// merged under a lock, so const join code never writes shared
    /// state from several threads, and the incremental engine at its
    /// own sink.
    Stats* stats = nullptr;
    /// Incremental world/pivot hooks; null for the classic fixpoint.
    const IncrementalHooks* inc = nullptr;
    /// Reusable candidate/run buffers (rules/join_kernel.h); one per
    /// driver, never shared across threads. Null means per-call local
    /// buffers (cold paths).
    JoinScratch* scratch = nullptr;
    /// Nonzero while SolveRule checks one existence component (see
    /// BodyPlan::existence_ends): SolveBody stops at this depth, and at
    /// the first solution.
    std::uint32_t witness_end = 0;
  };

  /// Every body literal's O-term compiled for the matcher, by body
  /// position (a non-O-term literal gets its empty O-term). Borrows
  /// `rule`.
  static std::vector<CompiledOTerm> CompileBody(const Rule& rule);

  /// The shared unification machinery, wired to this evaluator's fact
  /// universe and data mappings.
  FactMatcher MakeMatcher() const;

  /// The candidate ordinals of a query literal (Query, OpenQueryStream),
  /// with its join counters merged into stats_ under the lock.
  void QueryCandidates(const Literal& literal, ConceptId* concept_id,
                       std::vector<std::uint32_t>* candidates) const;

  /// Evaluates one rule under `ctx` and inserts the derived facts;
  /// `inserted` reports how many were new. SolveRule + InsertSolutions.
  Status ApplyRule(const FactMatcher& matcher, const JoinContext& ctx,
                   size_t* inserted);

  /// The read-only half of ApplyRule: solves the body against the
  /// current store without inserting anything (the incremental engine
  /// counts solutions instead of inserting them). A plan with existence
  /// components checks each for a first solution, then enumerates the
  /// rest of the body; its solutions leave the components' slots empty.
  Status SolveRule(const FactMatcher& matcher, const JoinContext& ctx,
                   std::vector<Solution>* solutions) const;

  /// Instantiates `rule`'s head for one body solution: predicate heads
  /// get positional attributes, O-term heads flatten their descriptors
  /// (nested ones to dotted names), bound-OID heads merge the attributes
  /// of the matched body facts describing the same entity, and
  /// existential heads receive their content-addressed skolem OID. Pure
  /// — the store is untouched; InsertSolutions and the incremental
  /// evaluator share it so derived facts are bit-identical either way.
  static Result<Fact> BuildHeadFact(const Rule& rule,
                                    const FactMatcher& matcher,
                                    const Solution& solution);

  /// The write half: instantiates `rule`'s head for every solution and
  /// inserts the new facts. The store's de-duplication is the only one:
  /// a skolem OID hashes the fact's concept and attributes, so two
  /// derivations of one entity are one (concept, OID, attributes) fact.
  Status InsertSolutions(const Rule& rule, const FactMatcher& matcher,
                         const std::vector<Solution>& solutions,
                         size_t* inserted);

  /// Solves the body literals ctx.plan orders at depths `depth` and
  /// deeper (up to ctx.witness_end when set), extending `solution`.
  /// `compiled` is CompileBody(*ctx.rule), compiled once per solve.
  Status SolveBody(const FactMatcher& matcher, const JoinContext& ctx,
                   const std::vector<CompiledOTerm>& compiled, size_t depth,
                   Solution solution, std::vector<Solution>* solutions) const;

  /// Computes the body plan for one (rule, delta literal, pivot
  /// literal), with `initial_bound` the variables a seeded solve binds
  /// before the body runs. Under kCostBased the plan is costed from the
  /// store's current extent counts, magic-guard concepts treated as
  /// high-selectivity seeds, and stats_.plan_reorders ticks when
  /// estimates overrode the SIP; kFixedSip and the kNaive oracle get
  /// the written order. `existence` asks for existence components
  /// (DESIGN.md 4c) — the semi-naive fixpoint does, the counting engine
  /// does not — and they are planned only for a predicate or skolem
  /// head. Called from serial sections only (stratum starts, the
  /// incremental engine).
  BodyPlan ComputePlan(const Rule& rule, int delta_literal, int pivot_literal,
                       std::set<std::string> initial_bound = {},
                       bool existence = false) const;

  /// Candidate facts for a positive or negated fact literal: an index
  /// probe when some argument/descriptor is bound to a hashable value,
  /// otherwise the concept_id extent; restricted to the delta window when
  /// `literal_index` is the context's delta literal. Ordinals refer to
  /// the concept_id's extent.
  void CollectCandidates(const JoinContext& ctx, size_t literal_index,
                         const Literal& literal, const Bindings& bindings,
                         std::vector<std::uint32_t>* candidates,
                         ConceptId* concept_id) const;

  /// The body of Evaluate(): everything after the entry checks. Split
  /// out so Evaluate() can Reset() on a deadline/cancel unwind.
  Status EvaluateImpl();

  /// Records a deadline truncation (kPartial): flags degraded_ and
  /// merges `concepts` into truncated_concepts, sorted + deduplicated.
  void MarkTruncated(std::vector<std::string> concepts);

  std::vector<Source> sources_;
  std::vector<ConceptBinding> bindings_decl_;
  std::vector<Rule> rules_;
  /// Ground facts planted by AddFact(), loaded before the fixpoint.
  std::vector<Fact> seed_facts_;
  const DataMappingRegistry* mappings_ = nullptr;
  EvalStrategy strategy_ = EvalStrategy::kSemiNaive;
  FailurePolicy failure_policy_ = FailurePolicy::kStrict;
  PlannerMode planner_mode_ = PlannerMode::kCostBased;
  /// Per-query deadline/cancellation (never expires by default).
  CancelToken token_;
  DegradedInfo degraded_;
  /// The extent reads the last Evaluate() issued, in issue order.
  std::vector<ExtentRead> reads_;

  bool evaluated_ = false;
  FactStore store_;
  /// Liveness side column, installed (and owned) by the incremental
  /// evaluator once delta maintenance begins: the store stays
  /// append-only, logically deleted facts are masked out of FactsOf()
  /// and Query(), and OID resolution routes through
  /// `resolver_override_` so nested-descriptor navigation never lands
  /// on a dead fact. Null (the default) preserves the classic
  /// everything-stored-is-live behaviour bit for bit.
  const std::vector<std::uint8_t>* live_filter_ = nullptr;
  FactMatcher::OidResolver resolver_override_;
  mutable Stats stats_;  // probe/scan counters tick inside const joins
  /// Guards stats_ merges from concurrent const OpenQueryStream()
  /// calls. Heap allocated so the evaluator stays movable (tests and
  /// factories return evaluators by value).
  mutable std::unique_ptr<std::mutex> stats_mu_ =
      std::make_unique<std::mutex>();
  /// Optional extent-prefetch pool (see set_thread_pool); shared with
  /// demand sub-evaluators.
  std::shared_ptr<ThreadPool> pool_;
  /// The base segments loads go through (see set_segment_cache); shared
  /// with demand sub-evaluators. Null: single-layer, unshared loads.
  std::shared_ptr<SegmentCache> segments_;
};

}  // namespace ooint

#endif  // OOINT_RULES_EVALUATOR_H_
