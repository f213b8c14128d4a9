// Demand-driven FsmClient: the per-connection query cache and its
// invalidation triggers (reconnect, breaker-state change, fault-epoch
// bump, a change at an agent store the answer read), relevance pruning
// at the federation level, and the Explain() counter overlay. The
// stale-answer regression scenarios: a cached answer must never be
// replayed after the fault environment or the data moved underneath it.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm_client.h"
#include "model/schema_parser.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 3;

class QueryCacheTest : public ::testing::Test {
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
  }

  /// Registers a third agent whose only class shares nothing with the
  /// genealogy rules — the relevance-pruning bait.
  void AddIslandAgent() {
    Schema island = ValueOrDie(SchemaParser::Parse(R"(
      schema S3 {
        class island { m: string; }
      }
    )"));
    std::unique_ptr<FsmAgent> a3 =
        ValueOrDie(FsmAgent::Create("agent3", "ooint", "db3", island));
    ASSERT_OK(fsm_.RegisterAgent(std::move(a3)));
  }

  static FederationOptions DemandOptions(FaultInjector* injector = nullptr) {
    FederationOptions options;
    options.failure_policy = FailurePolicy::kPartial;
    options.query_mode = QueryMode::kDemandDriven;
    options.injector = injector;
    return options;
  }

  Query UncleQuery(const FsmClient& client) const {
    Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
    query.Select("Ussn#", "who").Select("niece_nephew", "kid");
    return query;
  }

  static std::set<std::string> Uncles(const std::vector<Bindings>& rows) {
    std::set<std::string> uncles;
    for (const Bindings& row : rows) uncles.insert(row.at("who").AsString());
    return uncles;
  }

  static std::set<std::string> Answers(const std::vector<Bindings>& rows) {
    std::set<std::string> answers;
    for (const Bindings& row : rows) {
      answers.insert(row.at("who").ToString() + "/" +
                     row.at("kid").ToString());
    }
    return answers;
  }

  Fixture fixture_;
  Fsm fsm_;
};

TEST_F(QueryCacheTest, DemandModeMatchesMaterializedAnswers) {
  FsmClient materialized(&fsm_);
  ASSERT_OK(materialized.Connect());
  FsmClient demand(&fsm_);
  ASSERT_OK(demand.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));

  const Query query = UncleQuery(demand);
  const std::set<std::string> baseline =
      Answers(ValueOrDie(materialized.Run(query)));
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(Answers(ValueOrDie(demand.Run(query))), baseline);
  EXPECT_FALSE(demand.degraded().degraded());
}

TEST_F(QueryCacheTest, RepeatQueryHitsTheCache) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);

  const std::set<std::string> first = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
  EXPECT_EQ(client.query_cache_stats().misses, 1u);

  const std::set<std::string> second = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(second, first);
  EXPECT_EQ(client.query_cache_stats().hits, 1u);
  EXPECT_EQ(client.query_cache_stats().misses, 1u);

  // Extent() flows through the same cache under a different key.
  const std::string uncle = ValueOrDie(client.GlobalNameOf("S2", "uncle"));
  EXPECT_OK(client.Extent(uncle));
  EXPECT_OK(client.Extent(uncle));
  EXPECT_EQ(client.query_cache_stats().hits, 2u);
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
}

TEST_F(QueryCacheTest, ReconnectInvalidatesTheCache) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);
  const std::set<std::string> first = Answers(ValueOrDie(client.Run(query)));
  const std::uint64_t epoch_before = client.fault_epoch();

  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  EXPECT_GT(client.fault_epoch(), epoch_before);
  EXPECT_EQ(Answers(ValueOrDie(client.Run(query))), first);
  // Both runs were misses: the reconnect dropped the entry.
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
  EXPECT_GE(client.query_cache_stats().invalidations, 1u);
}

// The stale-answer regression. A healthy answer is cached; then the
// fault environment changes and a *different* query trips S1's breaker.
// The cached entry's health signature no longer matches, so re-running
// the first query recomputes (degraded) instead of replaying the
// healthy answer with a straight face.
TEST_F(QueryCacheTest, BreakerTransitionInvalidatesOtherEntries) {
  FaultInjector injector;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation,
                           DemandOptions(&injector)));
  const Query query = UncleQuery(client);
  const std::set<std::string> healthy = Answers(ValueOrDie(client.Run(query)));
  ASSERT_FALSE(healthy.empty());
  ASSERT_FALSE(client.degraded().degraded());

  // The fault schedule changes mid-session: S1 goes dark.
  injector.AlwaysFail("S1", FaultKind::kUnavailable);

  // A different query (different cache key) contacts S1 and trips its
  // breaker.
  const std::string parent = ValueOrDie(client.GlobalNameOf("S1", "parent"));
  EXPECT_OK(client.Extent(parent));
  EXPECT_TRUE(client.degraded().degraded());
  bool tripped = false;
  for (const AgentHealth& health : client.ConnectionHealth()) {
    if (health.agent_name == "S1") tripped = health.stats.trips > 0;
  }
  ASSERT_TRUE(tripped) << "test premise: S1's breaker must trip";

  // Re-running the first query must MISS (signature moved) and report
  // the degradation, not serve the stale healthy answer.
  const size_t misses_before = client.query_cache_stats().misses;
  const std::set<std::string> after = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(client.query_cache_stats().misses, misses_before + 1);
  EXPECT_TRUE(client.degraded().degraded());
  EXPECT_TRUE(client.degraded().SkippedAgentNamed("S1"));
  // Sound subset: losing S1 starves the uncle derivation.
  EXPECT_TRUE(std::includes(healthy.begin(), healthy.end(), after.begin(),
                            after.end()));
}

TEST_F(QueryCacheTest, FaultEpochBumpInvalidatesWithoutBreakerMovement) {
  FaultInjector injector;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation,
                           DemandOptions(&injector)));
  const Query query = UncleQuery(client);
  const std::set<std::string> healthy = Answers(ValueOrDie(client.Run(query)));

  // The injector is rescripted but no breaker has moved yet: a cache
  // hit here would be stale. The caller declares the change.
  injector.AlwaysFail("S1", FaultKind::kDeadlineExceeded);
  client.BumpFaultEpoch();

  const size_t misses_before = client.query_cache_stats().misses;
  const std::set<std::string> after = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(client.query_cache_stats().misses, misses_before + 1);
  EXPECT_TRUE(client.degraded().degraded());
  EXPECT_TRUE(std::includes(healthy.begin(), healthy.end(), after.begin(),
                            after.end()));
}

// An agent store that changes with no delta feed: the cached answer
// read S1 at an older data epoch, so the next lookup misses and answers
// what a fresh client answers — whatever the goal's variables are named.
TEST_F(QueryCacheTest, UnannouncedStoreChangeRetiresTheCachedAnswer) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
  query.Where("niece_nephew", Value::String("C2a")).Select("Ussn#", "who");
  ASSERT_EQ(Uncles(ValueOrDie(client.Run(query))),
            std::set<std::string>{"U2"});

  // A second brother of P2, written straight into S1's store.
  Object* brother =
      ValueOrDie(fsm_.FindAgent("S1")->store().NewObject("brother"));
  brother->Set("Bssn#", Value::String("U2x"))
      .Set("name", Value::String("uncle_2x"))
      .Set("brothers", Value::Set({Value::String("P2")}));

  FsmClient fresh(&fsm_);
  ASSERT_OK(fresh.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const std::set<std::string> expected = Uncles(ValueOrDie(fresh.Run(query)));
  ASSERT_EQ(expected, (std::set<std::string>{"U2", "U2x"}));
  EXPECT_EQ(Uncles(ValueOrDie(client.Run(query))), expected);
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
}

// BumpFaultEpoch() while a miss is in flight. The answer's miss began
// before the bump, so it must not be served afterwards as current; and
// a request arriving after the bump must lead its own flight rather
// than adopt the one begun under the old fault environment.
TEST_F(QueryCacheTest, FaultEpochBumpDuringAMissRetiresItsAnswer) {
  FaultInjector injector;
  FederationOptions options = DemandOptions(&injector);
  options.retry.real_time_scale = 5;  // a 40 ms virtual reply sleeps 200 ms
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);

  // Starts a miss whose first S1 fetch is slow; returns once that fetch
  // is under way (or after 10 s, when the counts below will say why).
  auto slow_miss = [&] {
    const size_t calls = injector.calls("S1");
    injector.Push("S1", Fault{FaultKind::kSlowResponse, 40, 0});
    std::thread miss([&] { EXPECT_OK(client.Run(query).status()); });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector.calls("S1") == calls &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return miss;
  };

  std::thread first = slow_miss();
  client.BumpFaultEpoch();
  first.join();
  ASSERT_OK(client.Run(query).status());
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
  EXPECT_EQ(client.query_cache_stats().misses, 2u);

  client.InvalidateQueryCache();
  std::thread second = slow_miss();
  client.BumpFaultEpoch();
  EXPECT_OK(client.Run(query).status());
  second.join();
  EXPECT_EQ(client.query_cache_stats().misses, 4u);
  EXPECT_EQ(client.serving_stats().coalesce_hits, 0u);
  EXPECT_EQ(client.serving_stats().coalesce_leaders, 4u);
}

// The stale-truncated-answer regression. A deadline-truncated answer is
// a sound subset *for the query that ran out of time* — but it must
// never be cached, or a later identical query with plenty of budget
// would be served the truncated rows as if they were the full answer.
TEST_F(QueryCacheTest, DeadlineTruncatedAnswersAreNeverCached) {
  // Baseline: the full answer, no deadline.
  FsmClient unbounded(&fsm_);
  ASSERT_OK(unbounded.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(unbounded);
  const std::set<std::string> full = Answers(ValueOrDie(unbounded.Run(query)));
  ASSERT_FALSE(full.empty());

  // A client whose queries carry a tiny deadline. Latency shaping makes
  // the budget run out mid-evaluation rather than failing whole calls.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederationOptions options = DemandOptions(&injector);
  // Small enough that two 5ms fetches cannot both fit (the uncle rules
  // span both agents), so an untruncated answer is impossible.
  options.query_deadline_ms = 6;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));

  const Result<std::vector<Bindings>> truncated = client.Run(query);
  if (!truncated.ok()) {
    // Under kPartial a hopeless budget can still fail outright; that
    // outcome must not be cached either.
    EXPECT_EQ(truncated.status().code(), StatusCode::kDeadlineExceeded);
  } else {
    ASSERT_TRUE(client.degraded().deadline_truncated);
    const std::set<std::string> subset = Answers(truncated.value());
    EXPECT_TRUE(std::includes(full.begin(), full.end(), subset.begin(),
                              subset.end()));
  }

  // Re-running the identical query must MISS: truncated (and failed)
  // outcomes are served once and recomputed, never replayed.
  const size_t misses_before = client.query_cache_stats().misses;
  (void)client.Run(query);
  EXPECT_EQ(client.query_cache_stats().misses, misses_before + 1);
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
}

TEST_F(QueryCacheTest, ExplicitInvalidationDropsEntries) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);
  EXPECT_OK(client.Run(query));
  client.InvalidateQueryCache();
  EXPECT_OK(client.Run(query));
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
}

// Relevance pruning at the federation level: an agent whose classes the
// goal cannot reach is never contacted — even when it is scripted to
// fail every call, it costs no retries, no backoff, no breaker trips,
// and is reported as pruned rather than skipped.
TEST_F(QueryCacheTest, PrunedAgentPaysNoFaultToleranceCosts) {
  AddIslandAgent();
  FaultInjector injector;
  injector.AlwaysFail("S3", FaultKind::kUnavailable);
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation,
                           DemandOptions(&injector)));

  const Query query = UncleQuery(client);
  const std::set<std::string> answers = Answers(ValueOrDie(client.Run(query)));
  ASSERT_FALSE(answers.empty());

  // The answer is complete — S3's permanent outage is invisible.
  const DegradedInfo& degraded = client.degraded();
  EXPECT_FALSE(degraded.degraded());
  ASSERT_EQ(degraded.pruned_agents.size(), 1u);
  EXPECT_EQ(degraded.pruned_agents[0], "S3");
  EXPECT_NE(degraded.ToString().find("relevance-pruned"), std::string::npos);

  // Pruned means never contacted: zero calls, zero retries, zero trips.
  for (const AgentHealth& health : client.ConnectionHealth()) {
    if (health.agent_name != "S3") continue;
    EXPECT_EQ(health.stats.calls, 0u);
    EXPECT_EQ(health.stats.retries, 0u);
    EXPECT_EQ(health.stats.trips, 0u);
  }
  // And pruned is disjoint from fault-skipped.
  for (const DegradedInfo::SkippedAgent& skipped : degraded.skipped) {
    EXPECT_NE(skipped.schema_name, "S3");
  }
}

TEST_F(QueryCacheTest, ExplainOverlaysDemandCountersAndPruning) {
  AddIslandAgent();
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));

  Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
  query.Where("niece_nephew", Value::String("C0a")).Select("Ussn#", "who");

  // Before the query runs: the plan knows the mode and the statically
  // pruned agents, but has no measured counters yet.
  QueryPlan before = ValueOrDie(client.Explain(query));
  EXPECT_TRUE(before.demand_mode);
  EXPECT_FALSE(before.counters.present);
  ASSERT_EQ(before.pruned_agents.size(), 1u);
  EXPECT_EQ(before.pruned_agents[0], "S3");

  ASSERT_FALSE(ValueOrDie(client.Run(query)).empty());
  QueryPlan after = ValueOrDie(client.Explain(query));
  EXPECT_TRUE(after.demand_mode);
  EXPECT_TRUE(after.magic_applied);
  EXPECT_FALSE(after.goal_adornment.empty());
  ASSERT_TRUE(after.counters.present);
  EXPECT_TRUE(after.counters.from_cache);
  EXPECT_GT(after.counters.stats.derived_facts, 0u);
  EXPECT_GT(after.counters.stats.extents_fetched, 0u);
  const std::string rendered = after.ToString();
  EXPECT_NE(rendered.find("demand-driven: magic rewrite"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("relevance-pruned agents"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("counters:"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace ooint
