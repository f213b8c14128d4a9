// What a demand miss keeps (DESIGN.md §4k): its answer rows and its
// evaluated sub-evaluator, nothing materialized beside them. Run()
// returns the rows, a demand cursor pages them, and Extent() asks the
// sub for the concept's facts, which its boundary cache materializes
// on first ask — also when several threads ask at once.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 6;
constexpr int kThreads = 4;

class DemandOutcomeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    std::unique_ptr<FsmAgent> a1 =
        ValueOrDie(FsmAgent::Create("agent1", "ooint", "db1", fixture_.s1));
    std::unique_ptr<FsmAgent> a2 =
        ValueOrDie(FsmAgent::Create("agent2", "ooint", "db2", fixture_.s2));
    ASSERT_OK(PopulateGenealogy(&a1->store(), &a2->store(), kFamilies));
    ASSERT_OK(fsm_.RegisterAgent(std::move(a1)));
    ASSERT_OK(fsm_.RegisterAgent(std::move(a2)));
    ASSERT_OK(fsm_.DeclareAssertions(fixture_.assertion_text));
    global_ = ValueOrDie(fsm_.IntegrateAll(Fsm::Strategy::kAccumulation));
    FsmClient client(&fsm_);
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation,
                             Options(QueryMode::kMaterialized)));
    uncle_ = ValueOrDie(client.GlobalNameOf("S2", "uncle"));
  }

  static FederationOptions Options(QueryMode mode) {
    FederationOptions options;
    options.query_mode = mode;
    return options;
  }

  static std::set<std::string> CanonicalKeys(
      const std::vector<const Fact*>& facts) {
    std::set<std::string> keys;
    for (const Fact* fact : facts) keys.insert(fact->CanonicalKey());
    return keys;
  }

  Fixture fixture_;
  Fsm fsm_;
  GlobalSchema global_;
  std::string uncle_;
};

TEST_F(DemandOutcomeTest, MissMaterializesNoFacts) {
  FederatedEvaluator fed = ValueOrDie(fsm_.MakeFederatedEvaluator(
      global_, Options(QueryMode::kDemandDriven)));
  Query query(uncle_);
  query.Where("niece_nephew", Value::String("C1a")).Select("Ussn#", "who");
  const Evaluator::DemandOutcome outcome =
      ValueOrDie(fed.evaluator->EvaluateDemand(query.pattern()));
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows.front().at("who"), Value::String("U1"));
  const FactStore& store = outcome.sub->fact_store();
  EXPECT_EQ(store.memory().materialized_bytes, 0u);

  // The facts are still there to ask for; asking materializes them.
  EXPECT_FALSE(outcome.sub->FactsOf(uncle_).empty());
  EXPECT_GT(store.memory().materialized_bytes, 0u);
}

TEST_F(DemandOutcomeTest, ConcurrentExtentsMatchMaterialized) {
  FsmClient materialized(&fsm_);
  ASSERT_OK(materialized.Connect(Fsm::Strategy::kAccumulation,
                                 Options(QueryMode::kMaterialized)));
  const std::set<std::string> want =
      CanonicalKeys(ValueOrDie(materialized.Extent(uncle_)));
  ASSERT_EQ(want.size(), 2 * kFamilies);

  FsmClient demand(&fsm_);
  ASSERT_OK(demand.Connect(Fsm::Strategy::kAccumulation,
                           Options(QueryMode::kDemandDriven)));
  // Run() on the unbound goal caches the outcome Extent() reads, with
  // nothing materialized, so the threads below all hit it and
  // materialize the facts at once through its one sub-evaluator.
  ASSERT_OK(demand.Run(Query(uncle_)).status());
  ASSERT_EQ(demand.query_cache_stats().misses, 1u);

  std::vector<std::set<std::string>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      Result<std::vector<const Fact*>> extent = demand.Extent(uncle_);
      if (extent.ok()) got[t] = CanonicalKeys(extent.value());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
  }
  EXPECT_EQ(demand.query_cache_stats().misses, 1u);
  EXPECT_EQ(demand.query_cache_stats().hits, static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace ooint
