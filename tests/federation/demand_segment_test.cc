// Shared base segments of demand-driven queries (DESIGN.md §4f): a miss
// still fetches every relevant extent, but overlays a segment an
// earlier miss encoded when every fetch succeeded at the data epochs it
// was built at. A changed agent store rebuilds it; fault-skipped and
// deadline-truncated loads are never shared; query-cache invalidation
// keeps it; and concurrent misses share it while deltas land (the tsan
// target).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 4;

class DemandSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    BuildFsm(&fsm_);
    global_ = ValueOrDie(fsm_.IntegrateAll(Fsm::Strategy::kAccumulation));
    FsmClient client(&fsm_);
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
    uncle_ = ValueOrDie(client.GlobalNameOf("S2", "uncle"));
  }

  /// Registers the fixture's agents, populated with kFamilies families,
  /// and its assertions on `fsm`.
  void BuildFsm(Fsm* fsm) const {
    std::unique_ptr<FsmAgent> a1 =
        ValueOrDie(FsmAgent::Create("agent1", "ooint", "db1", fixture_.s1));
    std::unique_ptr<FsmAgent> a2 =
        ValueOrDie(FsmAgent::Create("agent2", "ooint", "db2", fixture_.s2));
    ASSERT_OK(PopulateGenealogy(&a1->store(), &a2->store(), kFamilies));
    ASSERT_OK(fsm->RegisterAgent(std::move(a1)));
    ASSERT_OK(fsm->RegisterAgent(std::move(a2)));
    ASSERT_OK(fsm->DeclareAssertions(fixture_.assertion_text));
  }

  static FederationOptions DemandOptions(FaultInjector* injector = nullptr) {
    FederationOptions options;
    options.failure_policy = FailurePolicy::kPartial;
    options.query_mode = QueryMode::kDemandDriven;
    options.injector = injector;
    return options;
  }

  /// ?- uncle(niece_nephew: "C<family>a", Ussn#: var).
  Query Goal(size_t family, const std::string& var = "who") const {
    Query query(uncle_);
    query.Where("niece_nephew", Value::String(StrCat("C", family, "a")))
        .Select("Ussn#", var);
    return query;
  }

  static std::set<std::string> Answers(const std::vector<Bindings>& rows,
                                       const std::string& var = "who") {
    std::set<std::string> answers;
    for (const Bindings& row : rows) answers.insert(row.at(var).ToString());
    return answers;
  }

  static std::set<std::string> Uncle(size_t family) {
    return {StrCat("\"U", family, "\"")};
  }

  /// Adds family `family` (a parent and the uncle-to-be brother) to the
  /// S1 store and returns the feed describing the change.
  ExtentDelta AddFamily(size_t family) {
    InstanceStore& store = fsm_.FindAgent("S1")->store();
    ExtentDelta delta;
    delta.agent_name = "S1";
    Object* parent = ValueOrDie(store.NewObject("parent"));
    parent->Set("Pssn#", Value::String(StrCat("P", family)))
        .Set("name", Value::String(StrCat("parent_", family)))
        .Set("children", Value::Set({Value::String(StrCat("C", family, "a")),
                                     Value::String(StrCat("C", family, "b"))}));
    delta.inserted.push_back(*parent);
    Object* brother = ValueOrDie(store.NewObject("brother"));
    brother->Set("Bssn#", Value::String(StrCat("U", family)))
        .Set("name", Value::String(StrCat("uncle_", family)))
        .Set("brothers", Value::Set({Value::String(StrCat("P", family))}));
    delta.inserted.push_back(*brother);
    delta.epoch = store.data_epoch();
    return delta;
  }

  static bool SegmentReused(const FsmClient& client, const Query& query) {
    const QueryPlan plan = ValueOrDie(client.Explain(query));
    return plan.counters.stats.base_segments_reused > 0;
  }

  Fixture fixture_;
  Fsm fsm_;
  GlobalSchema global_;
  std::string uncle_;
};

TEST_F(DemandSegmentTest, SecondDistinctGoalReusesTheSegment) {
  FederatedEvaluator fed =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global_, DemandOptions()));
  const Evaluator::DemandOutcome first =
      ValueOrDie(fed.evaluator->EvaluateDemand(Goal(0).pattern()));
  const Evaluator::DemandOutcome second =
      ValueOrDie(fed.evaluator->EvaluateDemand(Goal(1).pattern()));
  EXPECT_EQ(Answers(first.rows), Uncle(0));
  EXPECT_EQ(Answers(second.rows), Uncle(1));
  EXPECT_EQ(first.stats.base_segments_reused, 0u);
  EXPECT_EQ(second.stats.base_segments_reused, 1u);

  // The miss that built the segment and the one that reused it did the
  // same counted work and own the same bytes; neither owns the segment.
  EXPECT_EQ(first.stats.base_facts, 2 * kFamilies + 1);  // + magic seed
  EXPECT_EQ(first.stats.base_facts, second.stats.base_facts);
  EXPECT_EQ(first.stats.derived_facts, second.stats.derived_facts);
  EXPECT_EQ(first.stats.extents_fetched, second.stats.extents_fetched);
  const FactStore& built = first.sub->fact_store();
  const FactStore& reused = second.sub->fact_store();
  ASSERT_NE(built.segment(), nullptr);
  EXPECT_EQ(built.segment(), reused.segment());
  EXPECT_EQ(built.memory().total(), reused.memory().total());
  EXPECT_LT(built.memory().total(), built.segment()->memory().total());
}

TEST_F(DemandSegmentTest, ChangedStoreRebuildsLikeAFreshConnect) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(0)))), Uncle(0));
  EXPECT_FALSE(SegmentReused(client, Goal(0)));
  EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(1)))), Uncle(1));
  EXPECT_TRUE(SegmentReused(client, Goal(1)));

  // The agent store moves; the next miss must encode the new data.
  ASSERT_OK(client.ApplyDelta(AddFamily(50)));
  FsmClient fresh(&fsm_);
  ASSERT_OK(fresh.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(50)))), Uncle(50));
  EXPECT_FALSE(SegmentReused(client, Goal(50)));
  for (size_t family : {size_t{0}, size_t{1}, size_t{50}}) {
    EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(family)))),
              Answers(ValueOrDie(fresh.Run(Goal(family)))));
  }
  EXPECT_TRUE(SegmentReused(client, Goal(0)));  // shares the new segment
  std::multiset<std::string> got;
  for (const Fact* fact : ValueOrDie(client.Extent(uncle_))) {
    got.insert(fact->AttrKey());
  }
  std::multiset<std::string> want;
  for (const Fact* fact : ValueOrDie(fresh.Extent(uncle_))) {
    want.insert(fact->AttrKey());
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 2 * (kFamilies + 1));
}

TEST_F(DemandSegmentTest, FaultSkippedLoadIsNotShared) {
  // Breakers stay closed, so every query sees exactly its scripted draw.
  FaultInjector injector;
  FederationOptions options = DemandOptions(&injector);
  options.breaker.failure_threshold = 1000;
  FederatedEvaluator warm =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global_, options));
  // The cold reference loads through a second Fsm's segments: every
  // evaluator one Fsm builds shares that Fsm's.
  Fsm cold_fsm;
  BuildFsm(&cold_fsm);
  FaultInjector cold_injector;
  options.injector = &cold_injector;
  FederatedEvaluator cold =
      ValueOrDie(cold_fsm.MakeFederatedEvaluator(global_, options));

  const Evaluator::DemandOutcome healthy =
      ValueOrDie(warm.evaluator->EvaluateDemand(Goal(0).pattern()));
  ASSERT_FALSE(healthy.degraded.degraded());

  // S1's next call fails every attempt: its first extent is skipped, on
  // a warm evaluator and on one that never cached anything.
  const int attempts = options.retry.max_attempts;
  injector.PushN("S1", FaultKind::kUnavailable, attempts);
  cold_injector.PushN("S1", FaultKind::kUnavailable, attempts);
  const Evaluator::DemandOutcome faulted =
      ValueOrDie(warm.evaluator->EvaluateDemand(Goal(1).pattern()));
  const Evaluator::DemandOutcome reference =
      ValueOrDie(cold.evaluator->EvaluateDemand(Goal(1).pattern()));
  ASSERT_TRUE(faulted.degraded.SkippedAgentNamed("S1"));
  EXPECT_EQ(faulted.degraded.ToString(), reference.degraded.ToString());
  EXPECT_EQ(faulted.rows, reference.rows);
  EXPECT_EQ(faulted.stats.base_facts, reference.stats.base_facts);
  EXPECT_EQ(faulted.stats.extents_fetched, reference.stats.extents_fetched);
  EXPECT_EQ(faulted.stats.base_segments_reused, 0u);
  EXPECT_LT(faulted.stats.base_facts, healthy.stats.base_facts);

  // The degraded load neither used nor replaced the healthy segment...
  const Evaluator::DemandOutcome after =
      ValueOrDie(warm.evaluator->EvaluateDemand(Goal(2).pattern()));
  EXPECT_FALSE(after.degraded.degraded());
  EXPECT_EQ(Answers(after.rows), Uncle(2));
  EXPECT_EQ(after.stats.base_segments_reused, 1u);
  EXPECT_EQ(after.sub->fact_store().segment(),
            healthy.sub->fact_store().segment());
  // ...and left nothing shareable behind on the cold evaluator.
  const Evaluator::DemandOutcome cold_healthy =
      ValueOrDie(cold.evaluator->EvaluateDemand(Goal(2).pattern()));
  EXPECT_EQ(cold_healthy.stats.base_segments_reused, 0u);
  EXPECT_EQ(Answers(cold_healthy.rows), Uncle(2));
}

TEST_F(DemandSegmentTest, DeadlineTruncatedLoadIsNotShared) {
  // 5 ms per attempt against a 6 ms budget: the first extent arrives,
  // the query's clock runs out during the second.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederatedEvaluator fed = ValueOrDie(
      fsm_.MakeFederatedEvaluator(global_, DemandOptions(&injector)));
  const Evaluator::DemandOutcome truncated = ValueOrDie(
      fed.evaluator->EvaluateDemand(Goal(0).pattern(),
                                    CancelToken::WithBudget(6)));
  ASSERT_TRUE(truncated.degraded.deadline_truncated);
  EXPECT_EQ(truncated.stats.base_segments_reused, 0u);

  const Evaluator::DemandOutcome full =
      ValueOrDie(fed.evaluator->EvaluateDemand(Goal(1).pattern()));
  EXPECT_FALSE(full.degraded.degraded());
  EXPECT_EQ(Answers(full.rows), Uncle(1));
  EXPECT_EQ(full.stats.base_segments_reused, 0u);
  const Evaluator::DemandOutcome again =
      ValueOrDie(fed.evaluator->EvaluateDemand(Goal(2).pattern()));
  EXPECT_EQ(again.stats.base_segments_reused, 1u);
}

TEST_F(DemandSegmentTest, QueryCacheInvalidationKeepsTheSegment) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  ASSERT_OK(client.Run(Goal(0)).status());
  EXPECT_FALSE(SegmentReused(client, Goal(0)));
  client.InvalidateQueryCache();
  client.BumpFaultEpoch();
  EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(0)))), Uncle(0));
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
  EXPECT_TRUE(SegmentReused(client, Goal(0)));
}

// The tsan target: eight threads miss distinct goals (a fresh variable
// name per query defeats the answer cache but not the segment) while a
// writer grows the S1 store and applies the deltas. Agent stores are
// plain in-memory structures, so the test serializes their mutation
// against fetches; the segment cache, the answer cache and delta
// application race freely.
TEST_F(DemandSegmentTest, ConcurrentMissesShareSegmentsWhileDeltasLand) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  std::shared_mutex store_mu;
  // Readers step aside while the writer waits, so it is not starved.
  std::atomic<bool> writer_waiting{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < 4 || !stop.load(std::memory_order_acquire);
           ++i) {
        const size_t family = (t + i) % kFamilies;
        const std::string var = StrCat("who_", t, "_", i);
        while (writer_waiting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::shared_lock<std::shared_mutex> lock(store_mu);
        const Result<std::vector<Bindings>> rows =
            client.Run(Goal(family, var));
        ASSERT_OK(rows.status());
        EXPECT_EQ(Answers(rows.value(), var), Uncle(family));
      }
    });
  }
  for (size_t family = 100; family < 106; ++family) {
    ExtentDelta delta;
    writer_waiting.store(true, std::memory_order_release);
    {
      std::unique_lock<std::shared_mutex> lock(store_mu);
      delta = AddFamily(family);
    }
    writer_waiting.store(false, std::memory_order_release);
    ASSERT_OK(client.ApplyDelta(delta));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GE(client.query_cache_stats().misses, 32u);
  FsmClient fresh(&fsm_);
  ASSERT_OK(fresh.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  for (size_t family : {size_t{0}, size_t{105}}) {
    EXPECT_EQ(Answers(ValueOrDie(client.Run(Goal(family)))),
              Answers(ValueOrDie(fresh.Run(Goal(family)))));
  }
}

}  // namespace
}  // namespace ooint
