// The parallel federation runtime end to end: num_threads > 1 must
// change wall-clock behaviour only — answers, degradation records and
// per-agent fault consumption stay exactly what the serial runtime
// produces, including under scripted fault schedules. Also covers
// FetchExtentsOverlapped's ordering contract, concurrent FsmClient
// queries, and the Explain() parallelism annotations.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm_client.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 6;

class ParallelFederationTest : public ::testing::Test {
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

  static std::set<std::string> Keys(const std::vector<const Fact*>& facts) {
    std::set<std::string> out;
    for (const Fact* f : facts) out.insert(f->CanonicalKey());
    return out;
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

TEST_F(ParallelFederationTest, ParallelConnectMatchesSerialAnswers) {
  FsmClient serial(&fsm_);
  ASSERT_OK(serial.Connect());
  const std::set<std::string> baseline =
      Answers(ValueOrDie(serial.Run(UncleQuery(serial))));
  ASSERT_FALSE(baseline.empty());

  for (int threads : {2, 4, 8}) {
    FederationOptions options;
    options.num_threads = threads;
    FsmClient parallel(&fsm_);
    ASSERT_OK(parallel.Connect(Fsm::Strategy::kAccumulation, options));
    EXPECT_EQ(parallel.num_threads(), threads);
    EXPECT_EQ(Answers(ValueOrDie(parallel.Run(UncleQuery(parallel)))),
              baseline)
        << threads << " threads";
  }
}

TEST_F(ParallelFederationTest, ScriptedFaultsProduceIdenticalSkipLists) {
  // S1 is dark for good: the partial federation must skip exactly the
  // same agent with exactly the same consequences at every thread
  // count — per-agent fault draws are serial-in-order by contract.
  auto connect = [&](int threads, FaultInjector* injector) {
    FederationOptions options;
    options.failure_policy = FailurePolicy::kPartial;
    options.num_threads = threads;
    options.injector = injector;
    auto client = std::make_unique<FsmClient>(&fsm_);
    EXPECT_OK(client->Connect(Fsm::Strategy::kAccumulation, options));
    return client;
  };

  FaultInjector serial_injector;
  serial_injector.AlwaysFail("S1", FaultKind::kUnavailable);
  const std::unique_ptr<FsmClient> serial = connect(1, &serial_injector);
  const DegradedInfo serial_degraded = serial->degraded();
  ASSERT_TRUE(serial_degraded.degraded());
  ASSERT_TRUE(serial_degraded.SkippedAgentNamed("S1"));
  const std::set<std::string> serial_answers =
      Answers(ValueOrDie(serial->Run(UncleQuery(*serial))));

  for (int threads : {2, 4}) {
    FaultInjector injector;
    injector.AlwaysFail("S1", FaultKind::kUnavailable);
    const std::unique_ptr<FsmClient> parallel = connect(threads, &injector);
    const DegradedInfo parallel_degraded = parallel->degraded();
    ASSERT_EQ(parallel_degraded.skipped.size(),
              serial_degraded.skipped.size());
    for (size_t i = 0; i < serial_degraded.skipped.size(); ++i) {
      EXPECT_EQ(parallel_degraded.skipped[i].schema_name,
                serial_degraded.skipped[i].schema_name);
      EXPECT_EQ(parallel_degraded.skipped[i].status.code(),
                serial_degraded.skipped[i].status.code());
    }
    EXPECT_EQ(parallel_degraded.incomplete_concepts,
              serial_degraded.incomplete_concepts);
    EXPECT_EQ(Answers(ValueOrDie(parallel->Run(UncleQuery(*parallel)))),
              serial_answers)
        << threads << " threads";
  }
}

TEST_F(ParallelFederationTest, TransientFaultScheduleConsumedIdentically) {
  // Two scripted transient faults on each agent: retries must consume
  // each agent's schedule in exactly the serial order, so both runs
  // recover and report identical retry counts per agent.
  auto run = [&](int threads) {
    FaultInjector injector;
    injector.PushN("S1", FaultKind::kUnavailable, 2);
    injector.PushN("S2", FaultKind::kUnavailable, 2);
    FederationOptions options;
    options.failure_policy = FailurePolicy::kPartial;
    options.num_threads = threads;
    options.injector = &injector;
    FsmClient client(&fsm_);
    EXPECT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
    EXPECT_FALSE(client.degraded().degraded());
    return client.ConnectionHealth();
  };
  const std::vector<AgentHealth> serial = run(1);
  for (int threads : {2, 4}) {
    const std::vector<AgentHealth> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].agent_name, serial[i].agent_name);
      EXPECT_EQ(parallel[i].stats.calls, serial[i].stats.calls);
      EXPECT_EQ(parallel[i].stats.retries, serial[i].stats.retries);
      EXPECT_EQ(parallel[i].stats.failures, serial[i].stats.failures);
    }
  }
}

TEST_F(ParallelFederationTest, FetchExtentsOverlappedPreservesRequestOrder) {
  const InstanceStore& s1 = fsm_.agents()[0]->store();
  const InstanceStore& s2 = fsm_.agents()[1]->store();
  AgentConnection c1("S1", &s1);
  AgentConnection c2("S2", &s2);
  ThreadPool pool(4);

  // Interleaved requests against both agents, including a repeat.
  const std::vector<ExtentRequest> requests = {
      {&c1, "parent"}, {&c2, "uncle"}, {&c1, "brother"}, {&c1, "parent"}};
  const std::vector<ExtentReply> overlapped =
      FetchExtentsOverlapped(requests, &pool);
  const std::vector<ExtentReply> serial =
      FetchExtentsOverlapped(requests, nullptr);

  ASSERT_EQ(overlapped.size(), requests.size());
  ASSERT_EQ(serial.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_OK(overlapped[i].status);
    ASSERT_OK(serial[i].status);
    EXPECT_EQ(overlapped[i].objects.size(), serial[i].objects.size());
    // Same source, same order: the grouped dispatch must not permute
    // objects within one reply.
    EXPECT_TRUE(std::equal(overlapped[i].objects.begin(),
                           overlapped[i].objects.end(),
                           serial[i].objects.begin()));
  }
  // Repeats against one agent were serial: call counters match a loop.
  EXPECT_EQ(c1.stats().calls, 6u);  // 3 requests x 2 batches
  EXPECT_EQ(c2.stats().calls, 2u);
}

TEST_F(ParallelFederationTest, ConcurrentDemandQueriesStayConsistent) {
  FederationOptions options;
  options.query_mode = QueryMode::kDemandDriven;
  options.num_threads = 4;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));

  const Query query = UncleQuery(client);
  const std::set<std::string> expected =
      Answers(ValueOrDie(client.Run(query)));
  ASSERT_FALSE(expected.empty());

  std::vector<std::thread> callers;
  // vector<char>, not vector<bool>: each caller owns one full byte.
  std::vector<char> agreed(6, 0);
  for (size_t t = 0; t < agreed.size(); ++t) {
    callers.emplace_back([&client, &query, &expected, &agreed, t] {
      bool all_match = true;
      for (int i = 0; i < 10; ++i) {
        Result<std::vector<Bindings>> rows = client.Run(query);
        if (!rows.ok() || Answers(rows.value()) != expected) {
          all_match = false;
        }
      }
      agreed[t] = all_match;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < agreed.size(); ++t) {
    EXPECT_TRUE(agreed[t]) << "caller " << t;
  }
  const FsmClient::QueryCacheStats stats = client.query_cache_stats();
  EXPECT_GE(stats.hits + stats.misses, 61u);  // 1 + 6 x 10 lookups
}

TEST_F(ParallelFederationTest, ExplainReportsThreadCount) {
  FederationOptions options;
  options.num_threads = 4;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));

  const QueryPlan plan = ValueOrDie(client.Explain(UncleQuery(client)));
  EXPECT_EQ(plan.num_threads, 4);
  EXPECT_GE(plan.fetch_overlap_saved_ms, 0.0);
  EXPECT_NE(plan.ToString().find("parallel: threads=4"), std::string::npos)
      << plan.ToString();

  // The default client stays silent about parallelism.
  FsmClient serial(&fsm_);
  ASSERT_OK(serial.Connect());
  const QueryPlan serial_plan =
      ValueOrDie(serial.Explain(UncleQuery(serial)));
  EXPECT_EQ(serial_plan.num_threads, 1);
  EXPECT_EQ(serial_plan.ToString().find("parallel:"), std::string::npos);
}

}  // namespace
}  // namespace ooint
