#include "integrate/naive_integrator.h"

#include <deque>
#include <utility>

#include "integrate/class_pairs.h"

namespace ooint {

Result<IntegrationOutcome> NaiveIntegrator::Integrate(
    const Schema& s1, const Schema& s2, const AssertionSet& assertions,
    AifRegistry* aifs) {
  if (!s1.finalized() || !s2.finalized()) {
    return Status::FailedPrecondition(
        "both schemas must be finalized before integration");
  }
  const ClassPairIndex pairs(s1, s2, assertions);
  IntegrationContext ctx(&s1, &s2, &pairs);
  ctx.aifs = aifs;
  PendingOperations ops;
  const std::vector<ClassId> roots1 = s1.Roots();
  const std::vector<ClassId> roots2 = s2.Roots();

  std::deque<std::pair<ClassId, ClassId>> queue;
  ClassPairSet enqueued(s1.NumClasses(), s2.NumClasses());
  auto push = [&](ClassId a, ClassId b) {
    if (enqueued.Insert(a, b)) {
      queue.emplace_back(a, b);
      ++ctx.stats.pairs_enqueued;
    }
  };
  push(kStartNode, kStartNode);

  while (!queue.empty()) {
    const auto [n1, n2] = queue.front();
    queue.pop_front();
    const std::vector<ClassId>& kids1 =
        n1 == kStartNode ? roots1 : s1.ChildrenOf(n1);
    const std::vector<ClassId>& kids2 =
        n2 == kStartNode ? roots2 : s2.ChildrenOf(n2);
    // Line 6: all pairs (N1i, N2j), (N1, N2j), (N1i, N2).
    for (ClassId c1 : kids1) {
      for (ClassId c2 : kids2) push(c1, c2);
    }
    for (ClassId c2 : kids2) push(n1, c2);
    for (ClassId c1 : kids1) push(c1, n2);
    // Line 7: integration according to the assertion between N1 and N2.
    if (n1 == kStartNode || n2 == kStartNode) continue;
    ++ctx.stats.pairs_checked;
    const ClassPairIndex::Lookup lookup = pairs.Find(1, n1, n2);
    if (lookup.found()) ops.Record(lookup, 1, n1, n2);
  }

  OOINT_RETURN_IF_ERROR(Materialize(&ctx, ops));
  IntegrationOutcome outcome;
  outcome.schema = std::move(ctx.result);
  outcome.stats = ctx.stats;
  return outcome;
}

}  // namespace ooint
