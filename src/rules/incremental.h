#ifndef OOINT_RULES_INCREMENTAL_H_
#define OOINT_RULES_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/object.h"
#include "rules/evaluator.h"
#include "rules/fact.h"
#include "rules/fact_store.h"
#include "rules/rule.h"
#include "rules/rule_graph.h"

namespace ooint {

/// Accounting of one delta batch (or the running total of all batches):
/// what Explain reports as the live-update story of a federation.
struct DeltaMaintenanceStats {
  /// Batches applied.
  size_t batches = 0;
  /// Base-fact insertions / deletions actually applied (a base fact
  /// contributed by two concept bindings counts twice, mirroring the
  /// from-scratch load).
  size_t base_inserted = 0;
  size_t base_deleted = 0;
  /// Deletions that matched nothing live with base support (deleting a
  /// never-inserted fact is a no-op, not an error).
  size_t noop_deletes = 0;
  /// Facts whose liveness flipped 0 -> 1 (resp. 1 -> 0) net over the
  /// batch, derived and base alike.
  size_t facts_inserted = 0;
  size_t facts_deleted = 0;
  /// DRed bookkeeping: facts of recursive concepts provisionally
  /// deleted on lost support, and how many of those an alternate
  /// derivation revived.
  size_t overdeleted = 0;
  size_t rederived = 0;
  /// Telescoped delete + insert rounds run across all strata.
  size_t rounds = 0;

  void Accumulate(const DeltaMaintenanceStats& o);
  std::string ToString() const;
};

/// One batch of base-fact changes, already translated to global
/// concepts. Inserts apply before deletes, so an insert-then-delete of
/// the same fact inside one batch is a net no-op.
struct BaseDelta {
  std::vector<Fact> inserts;
  std::vector<Fact> deletes;
};

/// Counting / DRed incremental maintenance of an Evaluator's derived
/// fact store (DESIGN.md §4j).
///
/// Adopt() takes over a configured evaluator: it reloads the base
/// extents, runs the initial fixpoint through the counting machinery,
/// and installs the liveness side column (the store stays append-only;
/// logically deleted facts are masked out of FactsOf/Query and OID
/// resolution). Each ApplyBaseDelta / ApplyExtentDelta then maintains
/// the derived store so that, at every batch boundary, the live fact
/// set is identical to a from-scratch fixpoint over the current base
/// state — the contract conformance family 10 (delta-vs-rebuild)
/// checks.
///
/// Algorithm: per-derivation counting with telescoped semi-naive
/// rounds. Every derivation (rule body solution) of a fact is counted
/// exactly once; deletions decrement through delete-rounds whose pivot
/// worlds shrink monotonically, insertions increment symmetrically,
/// and negation flips (a lower-stratum fact appearing/disappearing
/// under a negated literal) pivot on the flipped fact. Facts of
/// concepts on a positive recursive cycle use DRed: any lost support
/// with no base support over-deletes the fact, and a single
/// rederivation pass against the frozen post-delete world revives
/// facts that still have an external derivation (counts recomputed
/// exactly). Facts of non-recursive concepts die exactly when their
/// last count drops.
///
/// The engine drives the evaluator's own join machinery (SolveBody
/// with IncrementalHooks), so match semantics — set-valued elementwise
/// matching, schematic attribute-name variables, nested descriptor
/// navigation, data-mapped OID identity — are inherited, not
/// reimplemented. Single-threaded; callers serialize batches against
/// queries (FsmClient holds its data lock exclusively here).
class IncrementalEvaluator {
 public:
  /// Takes over `ev` (which must be fully configured: sources, concept
  /// bindings, rules). Any previous evaluation state is discarded; the
  /// base extents are re-fetched serially and strictly under `ev`'s
  /// cancel token (a failing source or a spent deadline fails the
  /// adoption). `ev` must outlive the engine, and its rules must not
  /// change while it does.
  static Result<std::unique_ptr<IncrementalEvaluator>> Adopt(Evaluator* ev);

  ~IncrementalEvaluator();

  IncrementalEvaluator(const IncrementalEvaluator&) = delete;
  IncrementalEvaluator& operator=(const IncrementalEvaluator&) = delete;

  /// Applies one batch of base-fact changes and propagates through all
  /// strata. Returns the batch's stats.
  Result<DeltaMaintenanceStats> ApplyBaseDelta(const BaseDelta& delta);

  /// Object-level convenience: translates inserted / deleted objects of
  /// source `schema_name` into base facts via the evaluator's concept
  /// bindings (an object contributes one fact per binding whose class
  /// is an ancestor-or-self of the object's class, exactly mirroring
  /// what a from-scratch extent load would produce) and applies them.
  /// Deleted objects must be the pre-removal copies (their attributes
  /// drive fact identity).
  Result<DeltaMaintenanceStats> ApplyExtentDelta(
      const std::string& schema_name, const std::vector<Object>& inserted,
      const std::vector<Object>& deleted);

  /// Running totals since Adopt (initial load not included in batches).
  const DeltaMaintenanceStats& cumulative() const { return cumulative_; }

  /// Liveness of one stored fact (facts the store never saw are dead).
  bool IsLive(FactId id) const {
    return id < live_.size() && live_[id] != 0;
  }
  /// The liveness side column (indexed by FactId).
  const std::vector<std::uint8_t>& liveness() const { return live_; }

  /// Number of currently live facts.
  size_t live_count() const;

  /// Fault injection for the harness's mutation check: when set, the
  /// derivation-count decrement keeps the last derivation alive (the
  /// classic "> 1" vs ">= 1" off-by-one), so deletions under-propagate
  /// and the delta store retains facts a rebuild would not derive —
  /// which conformance family 10 must catch and shrink.
  static void set_decrement_bug_for_testing(bool on) {
    decrement_bug_.store(on, std::memory_order_relaxed);
  }

 private:
  explicit IncrementalEvaluator(Evaluator* ev) : ev_(ev) {}

  /// How unifying a fact against a rule head went.
  enum class HeadUnify { kBindings, kNoMatch, kUnsupported };

  /// Which elementary-change event a pivoted join is processing. The
  /// telescoping is exact because every batch follows ONE total order
  /// of elementary changes: negation flip-downs (a lower-stratum fact
  /// born under a negated literal) first, then the deletion rounds,
  /// then the insertion rounds, then flip-ups (a blocking fact died),
  /// then the cascades flip-ups set off. Each mode's factor worlds show
  /// exactly the changes ordered before its event.
  enum class PivotMode {
    kDeleteRound,    // positive deletion event, round-telescoped
    kFlipDown,       // negation loss: before everything else
    kInsertRound,    // positive insertion event, pre-flip
    kInsertPostFlip, // insertion cascade after the flip-ups
    kFlipUp,         // negation gain: after all insertion rounds
  };

  /// Per-stratum rule plan: body positions of positive / negated fact
  /// literals with their concept names.
  struct Plan {
    const Rule* rule;
    std::vector<std::pair<size_t, std::string>> positive;
    std::vector<std::pair<size_t, std::string>> negated;
  };

  FactStore& store() { return ev_->store_; }
  const FactStore& store() const { return ev_->store_; }

  /// Grows the side columns to cover FactId `id`.
  void Ensure(FactId id);

  /// Liveness transitions, with net-change bookkeeping for the batch.
  void Kill(FactId id);
  void Birth(FactId id);

  Status Initialize();
  /// Fetches every bound extent with Evaluator::FetchOne under the
  /// evaluator's token, stopping at the first failure; then the batch.
  Status LoadBase();
  std::vector<Plan> PlansOf(int stratum) const;

  /// Applies one batch body (shared by Adopt's initial load — where the
  /// whole base state is the insert set — and ApplyBaseDelta). `initial`
  /// additionally fires rules without positive fact literals once
  /// (their derivations never change after adoption except through
  /// negation flips, which the batch path covers).
  Status RunBatch(const BaseDelta& delta, bool initial,
                  DeltaMaintenanceStats* stats);

  Status DeletePhase(int stratum, const std::vector<Plan>& plans,
                     std::map<FactId, std::uint32_t>* death_round,
                     std::vector<FactId>* overdeleted,
                     DeltaMaintenanceStats* stats);
  Status RederivePhase(int stratum, const std::vector<Plan>& plans,
                       const std::vector<FactId>& overdeleted,
                       std::vector<FactId>* revived,
                       DeltaMaintenanceStats* stats);
  Status InsertPhase(int stratum, const std::vector<Plan>& plans,
                     const std::vector<FactId>& revived, bool initial,
                     DeltaMaintenanceStats* stats);

  /// Solves `rule` with body position `pos` pinned to `pivot` under the
  /// worlds `mode` prescribes; `round_of` carries the round structure
  /// (death rounds when deleting, birth rounds when inserting). A
  /// negated `pos` is a negation flip: the literal is solved positively,
  /// pinned to the flipped fact.
  Status SolvePivot(const Rule& rule, size_t pos, FactId pivot,
                    std::uint32_t round, PivotMode mode,
                    const std::map<FactId, std::uint32_t>& round_of,
                    std::vector<Evaluator::Solution>* solutions);

  /// Solves `rule` from pre-seeded `bindings`, each body position
  /// restricted by `admit` (the rederivation pass's frozen worlds).
  Status SolveSeeded(const Rule& rule, const Bindings& seed,
                     const std::function<bool(size_t, FactId)>& admit,
                     std::vector<Evaluator::Solution>* solutions);

  /// The "union" world old ∪ live: what a negated literal sees during
  /// the deletion / pre-flip insertion rounds (its flip-down already
  /// applied — born facts visible — its flip-up not yet — died facts
  /// still visible).
  bool InUnion(FactId id) const {
    return (id < old_live_.size() && old_live_[id] != 0) || IsLive(id);
  }

  /// FactIds of `world`-admitted facts matching the fact literal
  /// `literal` (its pattern, negation flag ignored) under `bindings`.
  void MatchingFacts(const Literal& literal, const Bindings& bindings,
                     const std::vector<std::uint8_t>& world,
                     std::vector<FactId>* out) const;

  /// Unifies stored fact `fact` with `rule`'s head; on kBindings,
  /// `seed` holds the variable bindings the head structure pins.
  HeadUnify UnifyHead(const Rule& rule, const FactView& fact,
                      const FactMatcher& matcher, Bindings* seed) const;

  /// One decremented derivation of `target` during delete round
  /// `round`: updates counts, applies the exact (non-recursive) or
  /// DRed (recursive) death rule, schedules the death for round + 1.
  void DecrementDerivation(FactId target, std::uint32_t round,
                           std::map<FactId, std::uint32_t>* death_round,
                           std::vector<FactId>* next,
                           std::vector<FactId>* overdeleted,
                           DeltaMaintenanceStats* stats);

  /// One new derivation during insert round `round`: interns (or
  /// revives) the head fact, bumps its count, queues its birth for the
  /// round boundary.
  void IncrementDerivation(Fact fact, std::uint32_t round,
                           std::map<FactId, std::uint32_t>* birth_round,
                           std::vector<FactId>* born_queue);

  /// Derivation count of `fact_id` against `world` (exact recompute;
  /// the rederivation pass). `full_solutions` caches the per-rule
  /// unrestricted fallback across facts of one pass.
  Result<std::int64_t> CountDerivations(
      FactId fact_id, const std::vector<Plan>& plans,
      const std::vector<std::uint8_t>& world,
      std::map<const Rule*, std::vector<FactId>>* full_solutions);

  /// Phase-appropriate live resolver for nested-descriptor navigation:
  /// the minimal admitted fact carrying `oid`, base-supported facts
  /// first (mirrors the classic store's first-inserted-wins contract,
  /// where base extents load before derived facts).
  FactView ResolveOid(const Oid& oid) const;

  Evaluator* ev_;

  /// Side columns, indexed by FactId. `live_` is authoritative for
  /// membership; counts justify it (live iff base_count > 0 or
  /// deriv_count > 0, except transiently inside a batch).
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> base_count_;
  std::vector<std::int64_t> deriv_count_;

  /// Static program structure (strata, recursion), built at Adopt.
  std::unique_ptr<const RuleGraph> graph_;

  /// Per-batch state.
  std::vector<std::uint8_t> old_live_;
  std::set<FactId> net_born_;
  std::set<FactId> net_dead_;
  /// World the OID resolver reads: null = current `live_`; the delete
  /// phase points it at `old_live_`, rederivation at the frozen world.
  const std::vector<std::uint8_t>* resolver_world_ = nullptr;
  /// Over-deleted facts parked for the rederivation pass of their
  /// concept's stratum (phase-0 base deletions of recursive concepts
  /// land here before their stratum runs).
  std::map<int, std::vector<FactId>> parked_overdeleted_;

  DeltaMaintenanceStats cumulative_;
  /// Scratch counter sink for engine-driven joins (keeps the adopted
  /// evaluator's own query counters unpolluted).
  mutable Evaluator::Stats scratch_stats_;
  /// Join-kernel scratch for the engine's serial pivot/seeded joins.
  mutable JoinScratch join_scratch_;
  /// One pivot join's setup: its body plan and, for a negation flip,
  /// the rule with the pivot literal made positive.
  struct PivotPlan {
    Rule flipped;
    BodyPlan plan;
  };
  /// Pivot-join plans keyed by (program rule address, pivot position).
  /// Cleared at every batch boundary, where extents may have moved —
  /// cheap to rebuild on first use.
  std::map<std::pair<const Rule*, size_t>, PivotPlan> plan_cache_;

  static std::atomic<bool> decrement_bug_;
};

}  // namespace ooint

#endif  // OOINT_RULES_INCREMENTAL_H_
