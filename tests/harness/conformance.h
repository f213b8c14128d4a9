#ifndef OOINT_TESTS_HARNESS_CONFORMANCE_H_
#define OOINT_TESTS_HARNESS_CONFORMANCE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "assertions/assertion.h"
#include "assertions/assertion_set.h"
#include "common/result.h"
#include "model/schema.h"
#include "workload/delta.h"
#include "workload/populator.h"

namespace ooint {
namespace harness {

/// The eleven oracle families of the randomized conformance harness
/// (DESIGN.md "Randomized conformance harness").
enum class OracleFamily {
  /// Consistency-checker / integrator agreement on rejection: an
  /// assertion set the checker finds error-free must integrate into an
  /// acyclic hierarchy under both algorithms; one the checker rejects
  /// with a hierarchy cycle must fail or surface the cycle.
  kConsistency,
  /// Naive vs. optimized integrator equality (classes, is-a closure,
  /// rules, pair-check bound) on workloads free of observation-3 shadows.
  kIntegratorAgreement,
  /// kSemiNaive vs. kNaive fixpoint equality over the generated
  /// instances of the integrated federation.
  kEvaluatorAgreement,
  /// Metamorphic invariances of integration: assertion-order
  /// permutation, class renaming, and S1⊕S2 ≅ S2⊕S1 commutativity (up
  /// to the induced isomorphism).
  kMetamorphic,
  /// Degraded-federation soundness: under a random fault schedule,
  /// partial answers of non-unsound concepts are a subset of the
  /// fault-free answers, skipped agents' concepts are marked
  /// incomplete, and strict mode fails iff partial mode degraded.
  kPartialAnswers,
  /// Demand-driven query agreement: for sampled bound goals, the
  /// magic-rewritten (or fallback) demand evaluation answers exactly
  /// like the full fixpoint filtered by the binding — fault-free
  /// unconditionally, and under the case's fault schedule with the
  /// claim conditioned on the outcome's own degradation record
  /// (equal when the goal is unaffected, subset when incomplete, no
  /// claim when unsound). Relevance-pruned agents must be disjoint
  /// from fault-skipped ones.
  kDemandQuery,
  /// Parallel-runtime transparency: with a seed-drawn num_threads in
  /// {2, 4, 8} (overridable via OOINT_SOAK_THREADS), the parallel
  /// federation derives exactly the serial fact multisets — fault-free,
  /// and under the case's fault schedule with an identical DegradedInfo
  /// record (same skipped agents in the same order, same statuses, same
  /// incomplete concepts). Parallel demand evaluation must answer bound
  /// goals exactly like the serial full fixpoint.
  kParallelSerial,
  /// Columnar-vs-reference store agreement: the baseline evaluation's
  /// fact universe is replayed, in insertion order, into both a fresh
  /// columnar FactStore and the pre-columnar ReferenceFactStore; the
  /// two must agree on every observable — per-concept CanonicalKey
  /// sequences (bit-identical fact sets in insertion order), the
  /// reference FindByOid for every stored OID (both overloads) against
  /// ViewByOid and ProbeOid, verified Probe result sets
  /// for every (fact, attribute, scalar value / set element), and
  /// duplicate re-insertion answers.
  kStoreDifferential,
  /// Overload robustness (deadlines, cancellation, admission): with a
  /// seed-drawn end-to-end query deadline, the kPartial federated
  /// answers are a sound subset of the unbounded fault-free answers and
  /// the DegradedInfo accounting is exact — every concept outside
  /// incomplete ∪ truncated ∪ unsound matches the fault-free answers
  /// bit-for-bit, and truncation only appears with a finite deadline.
  /// Under kStrict an out-of-budget (or cancelled) evaluation unwinds
  /// with kDeadlineExceeded leaving the fact store identical to a
  /// never-started one. A seed-drawn admission storm on the controller
  /// neither deadlocks nor leaks slots (active == queued == 0 after,
  /// admitted + rejected == offered). Runs serial (num_threads == 1) so
  /// the deadline's truncation point is deterministic per seed.
  kOverload,
  /// Delta-vs-rebuild (DESIGN.md §4j): the case's seeded delta trace
  /// (random interleaving of inserts / deletes across both agent
  /// stores) is applied batch by batch to a live-updates FsmClient;
  /// after every batch the incrementally maintained store must be
  /// fact-set-identical, concept by concept, to a from-scratch
  /// fixpoint over the same (post-batch) base state, and a
  /// demand-driven client fed the same deltas must answer a sampled
  /// goal identically. After the full trace, a kPartial run under the
  /// case's fault schedule must keep the family-5 guarantees against
  /// the post-trace rebuild: subset everywhere sound, equality outside
  /// the incomplete set.
  kDeltaRebuild,
  /// Serving-pipeline equivalence (DESIGN.md §4k): for sampled bound
  /// goals on a demand-mode client, (a) the union of all cursor pages
  /// must be exactly the whole answer set of FsmClient::Run — no row
  /// duplicated across page boundaries, none lost; (b) a top-k cursor
  /// (order_by + limit) must stream exactly the k-prefix of the fully
  /// sorted answers, in order; both re-checked under the case's random
  /// fault schedule with kPartial, where the cursor is compared against
  /// the *same client's* Run answer (same degraded snapshot), so the
  /// property holds whatever the faults removed.
  kServing,
  /// Planner-vs-fixed-SIP (DESIGN.md §4l): the cost-based literal
  /// planner and a forced left-to-right body order (kFixedSip, indexes
  /// still on) must derive identical per-concept fact multisets over
  /// the integrated federation, and under the case's fault schedule a
  /// kPartial fixed-SIP federation must report byte-identical
  /// DegradedInfo and identical fact multisets to the kPartial
  /// cost-based one — join order must never change what is derived or
  /// what is admitted to have been missed.
  kPlannerSip,
};

const char* OracleFamilyName(OracleFamily family);

/// A fully concrete, self-contained test case: two schemas, the
/// assertions between them, one generated population per schema, and a
/// fault schedule. Everything the oracles consume and the shrinker
/// minimizes.
struct ConcreteCase {
  std::uint64_t seed = 0;
  Schema s1{"S1"};
  Schema s2{"S2"};
  std::vector<Assertion> assertions;
  StoreSpec instances1;
  StoreSpec instances2;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;
  /// Whether s2 is the isomorphic counterpart of s1 (the §6.3 setting,
  /// where assertions are nesting-consistent by construction and the
  /// naive and optimized integrators are fully comparable).
  bool counterpart = false;
  /// The live-update workload of family 10 (delta-vs-rebuild).
  DeltaTrace delta_trace;

  /// Shrinker size metric: classes + assertions + objects + trace ops.
  size_t Size() const {
    return s1.NumClasses() + s2.NumClasses() + assertions.size() +
           instances1.size() + instances2.size() + delta_trace.OpCount();
  }
};

/// Knobs of the per-seed case generator.
struct CaseOptions {
  /// Upper bound on classes per schema (at least 3 are generated).
  size_t max_classes = 12;
  /// Objects per instance store.
  size_t num_objects = 20;
  /// Fault rate used when the seed draws a faulty schedule (about half
  /// the seeds run fault-free).
  double fault_rate = 0.35;
  /// Whether seeds may draw deliberately inconsistent assertion sets.
  bool allow_inconsistent = true;
};

/// Builds the deterministic case for `seed`: schema shapes (tree /
/// random DAG), pairing mode (isomorphic counterpart / independent
/// random pair), assertion mix, populations and fault schedule are all
/// derived from the seed.
Result<ConcreteCase> MakeCase(std::uint64_t seed, const CaseOptions& options);

/// The verdict of running every applicable oracle family on one case.
struct OracleOutcome {
  /// Families whose property was actually checked (a family is skipped
  /// when its precondition fails, e.g. integrator agreement on a
  /// shadowed or inconsistent workload).
  std::set<OracleFamily> ran;
  /// Human-readable descriptions of every violated property.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

/// Rebuilds the AssertionSet of a case (fails on structurally invalid
/// cases, e.g. after an over-eager shrink step).
Result<AssertionSet> BuildAssertionSet(const ConcreteCase& c);

/// Runs every applicable oracle family. An error status means the case
/// could not be materialized (infrastructure, not a conformance
/// failure); the shrinker's predicate treats that as "not failing".
Result<OracleOutcome> CheckCase(const ConcreteCase& c);

/// Renders the case as replayable fixture text: both schemas in the
/// schema-definition language, the assertions in the assertion
/// language, both populations in the data-definition language, and the
/// fault schedule — the repro format the shrinker prints.
std::string RenderCase(const ConcreteCase& c);

}  // namespace harness
}  // namespace ooint

#endif  // OOINT_TESTS_HARNESS_CONFORMANCE_H_
