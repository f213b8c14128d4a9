// Overload-robust serving at the federation level: end-to-end query
// deadlines (zero, negative, truncating, strict-unwinding), admission
// control shedding on the FsmClient serving path, and the Explain
// overlay that makes overload observable while it is happening.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 3;

class OverloadTest : public ::testing::Test {
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

  Query UncleQuery(const FsmClient& client) const {
    Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
    query.Select("Ussn#", "who").Select("niece_nephew", "kid");
    return query;
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

// --- Zero and negative deadlines (fail fast, touch nothing) -----------

TEST_F(OverloadTest, ZeroDeadlineDemandQueryFailsBeforeAnyFetch) {
  for (const FailurePolicy policy :
       {FailurePolicy::kStrict, FailurePolicy::kPartial}) {
    FaultInjector injector;
    FederationOptions options;
    options.failure_policy = policy;
    options.query_mode = QueryMode::kDemandDriven;
    options.injector = &injector;
    options.query_deadline_ms = 0;  // valid, already expired
    FsmClient client(&fsm_);
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));

    const Result<std::vector<Bindings>> result = client.Run(UncleQuery(client));
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    // Nothing was fetched and no agent was even contacted — under either
    // policy the expired token is rejected before the first extent read.
    EXPECT_EQ(injector.calls("S1"), 0u);
    EXPECT_EQ(injector.calls("S2"), 0u);
    for (const AgentHealth& health : client.ConnectionHealth()) {
      EXPECT_EQ(health.stats.calls, 0u) << health.agent_name;
    }
    // Nor was the failure memoized: a reconnect with a real budget would
    // recompute, and within this connection the miss counter moved while
    // the hit counter did not.
    EXPECT_EQ(client.query_cache_stats().hits, 0u);
  }
}

TEST_F(OverloadTest, ZeroDeadlineMaterializedConnectFailsFast) {
  for (const FailurePolicy policy :
       {FailurePolicy::kStrict, FailurePolicy::kPartial}) {
    FaultInjector injector;
    FederationOptions options;
    options.failure_policy = policy;
    options.injector = &injector;
    options.query_deadline_ms = 0;
    FsmClient client(&fsm_);
    const Status status =
        client.Connect(Fsm::Strategy::kAccumulation, options);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(injector.calls("S1"), 0u);
    EXPECT_EQ(injector.calls("S2"), 0u);
    // The failed connect leaves the client unusable, not half-built.
    EXPECT_EQ(client.Run(UncleQuery(client)).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST_F(OverloadTest, ZeroDeadlineLiveUpdatesConnectFailsFast) {
  // Adoption's initial load fetches under the same query deadline: a
  // spent budget fails the connect before any agent is called.
  FaultInjector injector;
  FederationOptions options;
  options.injector = &injector;
  options.query_deadline_ms = 0;
  options.live_updates = true;
  FsmClient client(&fsm_);
  EXPECT_EQ(client.Connect(Fsm::Strategy::kAccumulation, options).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(injector.calls("S1"), 0u);
  EXPECT_EQ(injector.calls("S2"), 0u);
  EXPECT_FALSE(client.live_updates());
  EXPECT_EQ(client.Run(UncleQuery(client)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OverloadTest, NegativeDeadlineIsInvalidArgument) {
  FederationOptions options;
  options.query_deadline_ms = -5;
  FsmClient client(&fsm_);
  EXPECT_EQ(client.Connect(Fsm::Strategy::kAccumulation, options).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OverloadTest, NegativeAdmissionKnobsAreInvalidArgument) {
  FederationOptions options;
  options.admission.max_concurrent = -1;
  FsmClient client(&fsm_);
  EXPECT_EQ(client.Connect(Fsm::Strategy::kAccumulation, options).code(),
            StatusCode::kInvalidArgument);
}

// --- Deadline truncation under kPartial (sound subset, accounted) -----

TEST_F(OverloadTest, DeadlineTruncationYieldsAccountedSoundSubset) {
  FsmClient unbounded(&fsm_);
  ASSERT_OK(unbounded.Connect());
  const Query query = UncleQuery(unbounded);
  const std::set<std::string> full = Answers(ValueOrDie(unbounded.Run(query)));
  ASSERT_FALSE(full.empty());

  // Agents are up but slow (5ms per fetch); the 12ms build budget runs
  // out mid-materialization.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederationOptions options;
  options.failure_policy = FailurePolicy::kPartial;
  options.injector = &injector;
  options.query_deadline_ms = 12;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));

  const DegradedInfo& degraded = client.degraded();
  ASSERT_TRUE(degraded.deadline_truncated);
  EXPECT_FALSE(degraded.truncated_concepts.empty());
  // Truncation is the *query's* fault, not any agent's: disjoint from
  // fault-skips (none were injected) and from relevance pruning.
  EXPECT_TRUE(degraded.skipped.empty());

  const std::set<std::string> subset = Answers(ValueOrDie(client.Run(query)));
  EXPECT_TRUE(std::includes(full.begin(), full.end(), subset.begin(),
                            subset.end()));

  // Explain carries the truncation and the deadline.
  const QueryPlan plan = ValueOrDie(client.Explain(query));
  EXPECT_TRUE(plan.deadline_truncated);
  EXPECT_TRUE(plan.degraded());
  EXPECT_EQ(plan.query_deadline_ms, 12);
  const std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("DEADLINE-TRUNCATED"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("deadline:"), std::string::npos) << rendered;
}

TEST_F(OverloadTest, StrictPolicyFailsTheConnectInsteadOfTruncating) {
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederationOptions options;
  options.failure_policy = FailurePolicy::kStrict;
  options.injector = &injector;
  options.query_deadline_ms = 12;
  FsmClient client(&fsm_);
  EXPECT_EQ(client.Connect(Fsm::Strategy::kAccumulation, options).code(),
            StatusCode::kDeadlineExceeded);
}

// --- Admission control on the serving path ----------------------------

TEST_F(OverloadTest, SaturatedClientShedsAndExplainStaysObservable) {
  // Each fetch costs 100 virtual ms, mapped to 100 real ms, so the
  // background query holds its admission slot long enough for the main
  // thread to be shed deterministically.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 100;
  injector.set_latency_profile(profile);
  FederationOptions options;
  options.failure_policy = FailurePolicy::kPartial;
  options.query_mode = QueryMode::kDemandDriven;
  options.injector = &injector;
  options.retry.per_call_deadline_ms = 1000;
  options.retry.real_time_scale = 1.0;  // 1 real ms per virtual ms
  options.admission.max_concurrent = 1;
  options.admission.max_queue_depth = 0;  // shed immediately when full
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);
  const std::string parent = ValueOrDie(client.GlobalNameOf("S1", "parent"));

  std::atomic<bool> background_done{false};
  std::thread background([&] {
    EXPECT_OK(client.Run(query).status());
    background_done.store(true);
  });
  while (client.admission_stats().active == 0 && !background_done.load()) {
    std::this_thread::yield();
  }
  // Saturation checks only run while the slot is demonstrably held;
  // asserting happens after the join (an early return past an unjoined
  // thread would terminate the whole binary).
  const bool saturated = !background_done.load();
  Status shed_status;
  QueryPlan during;
  if (saturated) {
    // The serving path is saturated: a second query is shed fast...
    shed_status = client.Extent(parent).status();
    // ...but Explain is deliberately NOT admission-gated: overload must
    // be observable *during* overload.
    during = ValueOrDie(client.Explain(query));
  }
  background.join();
  ASSERT_TRUE(saturated) << "slow query finished too fast for the "
                            "saturation window";
  EXPECT_EQ(shed_status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(during.admission_enabled);
  EXPECT_EQ(during.admission_policy.max_concurrent, 1);
  EXPECT_GE(during.admission.rejected_full, 1);
  const AdmissionController::Stats stats = client.admission_stats();
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_GE(stats.admitted, 1);
  EXPECT_GE(stats.rejected_full, 1);

  // Once the slot frees, the shed query goes straight through.
  EXPECT_OK(client.Extent(parent).status());
  const std::string rendered = ValueOrDie(client.Explain(query)).ToString();
  EXPECT_NE(rendered.find("admission:"), std::string::npos) << rendered;
}

TEST_F(OverloadTest, AdmissionDisabledByDefaultCostsNothing) {
  FederationOptions options;
  options.query_mode = QueryMode::kDemandDriven;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);
  EXPECT_OK(client.Run(query).status());
  const AdmissionController::Stats stats = client.admission_stats();
  EXPECT_EQ(stats.admitted, 0);
  EXPECT_EQ(stats.rejected_full, 0);
  const QueryPlan plan = ValueOrDie(client.Explain(query));
  EXPECT_FALSE(plan.admission_enabled);
  EXPECT_EQ(plan.query_deadline_ms, CancelToken::kNoDeadline);
}

}  // namespace
}  // namespace ooint
