// Live-update serving (DESIGN.md §4j): FsmClient::ApplyDelta feeds on a
// materialized connection made with FederationOptions::live_updates
// maintain the derived store through the counting/DRed engine, so
// answers after every batch match a from-scratch rebuild; Refresh() is
// that rebuild. The demand cache is swept by the agents each entry
// read — a delta to a relevance-pruned agent leaves cached goals warm. Deletion edge
// cases (phantom deletes, insert-then-delete in one batch) and delta
// application racing concurrent serving (the tsan target) live here.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "federation/explain.h"
#include "federation/fsm_client.h"
#include "model/schema_parser.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 3;

class LiveUpdateTest : public ::testing::Test {
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
  /// genealogy rules — deltas against it must leave cached genealogy
  /// goals warm.
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

  InstanceStore& Store(const std::string& schema_name) {
    return fsm_.FindAgent(schema_name)->store();
  }

  static FederationOptions LiveOptions(int threads = 1) {
    FederationOptions options;
    options.live_updates = true;
    options.num_threads = threads;
    return options;
  }

  static FederationOptions DemandOptions() {
    FederationOptions options;
    options.query_mode = QueryMode::kDemandDriven;
    return options;
  }

  /// Adds family `family` (a parent plus the uncle-to-be brother) to
  /// the S1 store and returns the feed describing the change. The
  /// epoch is the store's post-mutation data version.
  ExtentDelta AddFamily(size_t family) {
    InstanceStore& store = Store("S1");
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

  /// Removes family `family`'s brother object from S1 and returns the
  /// feed with the pre-removal copy.
  ExtentDelta RemoveUncle(size_t family) {
    InstanceStore& store = Store("S1");
    ExtentDelta delta;
    delta.agent_name = "S1";
    for (const Oid& oid : ValueOrDie(store.Extent(std::string("brother")))) {
      const Object* object = store.Find(oid);
      if (object->Get("Bssn#") == Value::String(StrCat("U", family))) {
        delta.deleted.push_back(*object);
        EXPECT_OK(store.Remove(oid));
        break;
      }
    }
    EXPECT_EQ(delta.deleted.size(), 1u);
    delta.epoch = store.data_epoch();
    return delta;
  }

  Query UncleQuery(const FsmClient& client) const {
    Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
    query.Select("Ussn#", "who").Select("niece_nephew", "kid");
    return query;
  }

  /// Answer key of one (uncle ssn, niece/nephew) row; string values
  /// render quoted.
  static std::string Key(const std::string& uncle, const std::string& kid) {
    return StrCat("\"", uncle, "\"/\"", kid, "\"");
  }

  static std::set<std::string> Answers(const std::vector<Bindings>& rows) {
    std::set<std::string> answers;
    for (const Bindings& row : rows) {
      answers.insert(row.at("who").ToString() + "/" +
                     row.at("kid").ToString());
    }
    return answers;
  }

  /// The delta-vs-rebuild oracle in miniature: a fresh client connected
  /// now is a from-scratch fixpoint over the current base state.
  std::set<std::string> RebuildAnswers() {
    FsmClient rebuilt(&fsm_);
    EXPECT_OK(rebuilt.Connect());
    return Answers(ValueOrDie(rebuilt.Run(UncleQuery(rebuilt))));
  }

  Fixture fixture_;
  Fsm fsm_;
};

TEST_F(LiveUpdateTest, InsertDeltaMatchesRebuild) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  ASSERT_TRUE(client.live_updates());
  const Query query = UncleQuery(client);
  const std::set<std::string> before = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(before.size(), 2 * kFamilies);  // two niece_nephew rows each

  ASSERT_OK(client.ApplyDelta(AddFamily(10)));
  const std::set<std::string> after = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(after, RebuildAnswers());
  EXPECT_EQ(after.size(), before.size() + 2);
  EXPECT_TRUE(after.count(Key("U10", "C10a")));

  const DeltaMaintenanceStats stats = client.maintenance_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GT(stats.facts_inserted, 0u);
  EXPECT_EQ(stats.facts_deleted, 0u);
}

TEST_F(LiveUpdateTest, DeleteDeltaMatchesRebuild) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  const Query query = UncleQuery(client);
  const std::set<std::string> before = Answers(ValueOrDie(client.Run(query)));

  ASSERT_OK(client.ApplyDelta(RemoveUncle(1)));
  const std::set<std::string> after = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(after, RebuildAnswers());
  EXPECT_EQ(after.size(), before.size() - 2);
  EXPECT_FALSE(after.count(Key("U1", "C1a")));
  EXPECT_TRUE(after.count(Key("U0", "C0a")));
  EXPECT_GT(client.maintenance_stats().facts_deleted, 0u);
}

TEST_F(LiveUpdateTest, StaleEpochIsRejectedBeforeAnyStateChange) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  const ExtentDelta delta = AddFamily(20);
  ASSERT_OK(client.ApplyDelta(delta));
  const std::set<std::string> applied =
      Answers(ValueOrDie(client.Run(UncleQuery(client))));

  // Replaying the same feed (same epoch) must not advance past the
  // accepted one; neither may an older epoch.
  Status replay = client.ApplyDelta(delta);
  EXPECT_EQ(replay.code(), StatusCode::kInvalidArgument);
  ExtentDelta older = delta;
  older.epoch = delta.epoch - 1;
  EXPECT_EQ(client.ApplyDelta(older).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(Answers(ValueOrDie(client.Run(UncleQuery(client)))), applied);
  EXPECT_EQ(client.maintenance_stats().batches, 1u);
}

TEST_F(LiveUpdateTest, PhantomDeleteIsANoop) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  const std::set<std::string> before =
      Answers(ValueOrDie(client.Run(UncleQuery(client))));

  // A delete of an object that was never inserted: same shape as a real
  // brother, but content no store ever held.
  InstanceStore& store = Store("S1");
  const Oid some_oid = ValueOrDie(store.Extent(std::string("brother"))).front();
  Object phantom(*store.Find(some_oid));
  phantom.Set("Bssn#", Value::String("UX"))
      .Set("name", Value::String("never_inserted"))
      .Set("brothers", Value::Set({Value::String("PX")}));
  ExtentDelta delta;
  delta.agent_name = "S1";
  delta.epoch = store.data_epoch() + 1;
  delta.deleted.push_back(phantom);

  ASSERT_OK(client.ApplyDelta(delta));
  EXPECT_EQ(Answers(ValueOrDie(client.Run(UncleQuery(client)))), before);
  const DeltaMaintenanceStats stats = client.maintenance_stats();
  EXPECT_GT(stats.noop_deletes, 0u);
  EXPECT_EQ(stats.facts_deleted, 0u);
}

TEST_F(LiveUpdateTest, InsertThenDeleteInOneBatchIsANetNoop) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  const std::set<std::string> before =
      Answers(ValueOrDie(client.Run(UncleQuery(client))));

  // The family flickers into existence and back out within one batch
  // (inserts apply before deletes); the store ends where it started.
  ExtentDelta delta = AddFamily(30);
  InstanceStore& store = Store("S1");
  for (const Object& object : delta.inserted) {
    delta.deleted.push_back(object);
    ASSERT_OK(store.Remove(object.oid()));
  }
  delta.epoch = store.data_epoch();

  ASSERT_OK(client.ApplyDelta(delta));
  EXPECT_EQ(Answers(ValueOrDie(client.Run(UncleQuery(client)))), before);
  EXPECT_EQ(Answers(ValueOrDie(client.Run(UncleQuery(client)))),
            RebuildAnswers());
}

TEST_F(LiveUpdateTest, RefreshRebuildsFromCurrentStores) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  const std::set<std::string> before =
      Answers(ValueOrDie(client.Run(UncleQuery(client))));

  // Mutate the store behind the client's back (no feed): the
  // materialized answers go stale until the periodic full rebuild.
  AddFamily(40);
  EXPECT_EQ(Answers(ValueOrDie(client.Run(UncleQuery(client)))), before);
  ASSERT_OK(client.Refresh());
  const std::set<std::string> after =
      Answers(ValueOrDie(client.Run(UncleQuery(client))));
  EXPECT_EQ(after.size(), before.size() + 2);
  EXPECT_EQ(after, RebuildAnswers());
  // Refresh reconnects: maintenance counters restart.
  EXPECT_TRUE(client.live_updates());
  EXPECT_EQ(client.maintenance_stats().batches, 0u);
}

TEST_F(LiveUpdateTest, LifecyclePreconditions) {
  FsmClient client(&fsm_);
  ExtentDelta delta;
  delta.agent_name = "S1";
  delta.epoch = 1;
  EXPECT_EQ(client.ApplyDelta(delta).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Refresh().code(), StatusCode::kFailedPrecondition);

  // A materialized connection without the flag cannot maintain its
  // derived store — feeds are refused rather than silently dropped.
  ASSERT_OK(client.Connect());
  EXPECT_FALSE(client.live_updates());
  delta.epoch = Store("S1").data_epoch() + 1;
  EXPECT_EQ(client.ApplyDelta(delta).code(), StatusCode::kFailedPrecondition);

  FsmClient live(&fsm_);
  ASSERT_OK(live.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  ExtentDelta unknown;
  unknown.agent_name = "no-such-agent";
  unknown.epoch = 1;
  EXPECT_EQ(live.ApplyDelta(unknown).code(), StatusCode::kNotFound);
}

TEST_F(LiveUpdateTest, DemandCacheSurvivesDeltasToPrunedAgents) {
  AddIslandAgent();
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);
  const std::set<std::string> first = Answers(ValueOrDie(client.Run(query)));
  ASSERT_EQ(client.query_cache_stats().misses, 1u);

  // A delta against the island agent: relevance pruning proved the
  // uncle goal never touches S3, so its entry stays warm.
  InstanceStore& island = Store("S3");
  ExtentDelta off_goal;
  off_goal.agent_name = "S3";
  Object* m = ValueOrDie(island.NewObject("island"));
  m->Set("m", Value::String("new"));
  off_goal.inserted.push_back(*m);
  off_goal.epoch = island.data_epoch();
  ASSERT_OK(client.ApplyDelta(off_goal));

  EXPECT_EQ(Answers(ValueOrDie(client.Run(query))), first);
  EXPECT_EQ(client.query_cache_stats().hits, 1u);  // still warm
  EXPECT_EQ(client.query_cache_stats().misses, 1u);

  // A delta against a relevant agent evicts exactly that entry; the
  // recomputed answer reflects the new base state.
  ASSERT_OK(client.ApplyDelta(AddFamily(50)));
  const std::set<std::string> after = Answers(ValueOrDie(client.Run(query)));
  EXPECT_EQ(client.query_cache_stats().misses, 2u);
  EXPECT_EQ(after.size(), first.size() + 2);
  EXPECT_TRUE(after.count(Key("U50", "C50a")));

  const QueryPlan plan = ValueOrDie(client.Explain(query));
  EXPECT_EQ(plan.delta_batches, 2u);
  EXPECT_EQ(plan.cache_entries_retained, 1u);
  EXPECT_EQ(plan.cache_entries_evicted, 1u);
}

TEST_F(LiveUpdateTest, ExplainReportsDeltaStats) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  ASSERT_OK(client.ApplyDelta(AddFamily(60)));
  ASSERT_OK(client.ApplyDelta(RemoveUncle(60)));

  const QueryPlan plan = ValueOrDie(client.Explain(UncleQuery(client)));
  EXPECT_TRUE(plan.live_updates);
  EXPECT_EQ(plan.delta_batches, 2u);
  EXPECT_GT(plan.maintenance.facts_inserted, 0u);
  EXPECT_GT(plan.maintenance.facts_deleted, 0u);
  EXPECT_GT(plan.maintenance.rounds, 0u);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("live-updates: batches=2"), std::string::npos);

  // A connection that never saw a delta keeps the plan quiet.
  FsmClient plain(&fsm_);
  ASSERT_OK(plain.Connect());
  const QueryPlan quiet = ValueOrDie(plain.Explain(UncleQuery(plain)));
  EXPECT_FALSE(quiet.live_updates);
  EXPECT_EQ(quiet.ToString().find("live-updates"), std::string::npos);
}

TEST_F(LiveUpdateTest, ConnectionHealthCountsDeltaTraffic) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions()));
  ASSERT_OK(client.ApplyDelta(AddFamily(70)));
  for (const AgentHealth& health : client.ConnectionHealth()) {
    if (health.agent_name != "S1") continue;
    EXPECT_EQ(health.stats.deltas_accepted, 1u);
    EXPECT_EQ(health.stats.delta_objects_inserted, 2u);
    EXPECT_NE(health.ToString().find("deltas=1"), std::string::npos);
  }
}

// The tsan target: delta batches race Run/Extent/Explain on a
// multi-threaded materialized connection. ApplyDelta holds the data
// lock exclusively, serving holds it shared, and materialized serving
// never reads the instance stores the writer mutates — so every reader
// sees each batch atomically (answers are always *some* batch
// boundary's, never a torn one).
TEST_F(LiveUpdateTest, DeltaApplicationRacesConcurrentServing) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, LiveOptions(4)));
  const Query query = UncleQuery(client);
  const std::string uncle = ValueOrDie(client.GlobalNameOf("S2", "uncle"));

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto rows = client.Run(query);
        ASSERT_OK(rows.status());
        // Answer sets only ever hold whole families: an odd count would
        // be a torn batch.
        EXPECT_EQ(Answers(rows.value()).size() % 2, 0u);
        ASSERT_OK(client.Extent(uncle).status());
        ASSERT_OK(client.Explain(query).status());
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t family = 100; family < 112; ++family) {
    ASSERT_OK(client.ApplyDelta(AddFamily(family)));
    if (family % 2 == 1) ASSERT_OK(client.ApplyDelta(RemoveUncle(family)));
    std::this_thread::yield();
  }
  // Keep serving against the final state until every reader has
  // demonstrably made progress.
  while (served.load(std::memory_order_relaxed) < 30) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(Answers(ValueOrDie(client.Run(query))), RebuildAnswers());
  EXPECT_EQ(client.maintenance_stats().batches, 18u);
}

}  // namespace
}  // namespace ooint
