// The Fsm's base-segment cache (DESIGN.md §4f): every evaluator one Fsm
// builds loads through it, so a Connect or Refresh on agents whose data
// epochs have not moved overlays the segment an earlier load encoded
// instead of re-encoding every extent. Keys are binding content plus the
// epoch each fetch saw: a changed store or a changed global schema
// reuses nothing stale. Fault-skipped and deadline-truncated loads
// neither use nor replace a segment, live-updates connections keep their
// single-layer store, the cache holds one entry per binding list, and
// concurrent connects share it with demand misses (the tsan target).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
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

/// Every global class's extent, as canonical fact keys.
using Digest = std::map<std::string, std::multiset<std::string>>;

class FsmSegmentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = ValueOrDie(MakeGenealogyFixture());
    BuildFsm(&fsm_);
  }

  /// Registers the genealogy agents with kFamilies families and, unless
  /// `assertions` is false, the fixture's assertions.
  void BuildFsm(Fsm* fsm, bool assertions = true) const {
    std::unique_ptr<FsmAgent> a1 =
        ValueOrDie(FsmAgent::Create("agent1", "ooint", "db1", fixture_.s1));
    std::unique_ptr<FsmAgent> a2 =
        ValueOrDie(FsmAgent::Create("agent2", "ooint", "db2", fixture_.s2));
    ASSERT_OK(PopulateGenealogy(&a1->store(), &a2->store(), kFamilies));
    ASSERT_OK(fsm->RegisterAgent(std::move(a1)));
    ASSERT_OK(fsm->RegisterAgent(std::move(a2)));
    if (assertions) ASSERT_OK(fsm->DeclareAssertions(fixture_.assertion_text));
  }

  /// Adds family `family` (a parent and the uncle-to-be brother) to the
  /// S1 store of `fsm`.
  static void AddFamily(Fsm* fsm, size_t family) {
    InstanceStore& store = fsm->FindAgent("S1")->store();
    Object* parent = ValueOrDie(store.NewObject("parent"));
    parent->Set("Pssn#", Value::String(StrCat("P", family)))
        .Set("name", Value::String(StrCat("parent_", family)))
        .Set("children", Value::Set({Value::String(StrCat("C", family, "a")),
                                     Value::String(StrCat("C", family, "b"))}));
    Object* brother = ValueOrDie(store.NewObject("brother"));
    brother->Set("Bssn#", Value::String(StrCat("U", family)))
        .Set("name", Value::String(StrCat("uncle_", family)))
        .Set("brothers", Value::Set({Value::String(StrCat("P", family))}));
  }

  /// Removes family `family`'s brother from the S1 store of `fsm`.
  static void RemoveUncle(Fsm* fsm, size_t family) {
    InstanceStore& store = fsm->FindAgent("S1")->store();
    for (const Oid& oid : ValueOrDie(store.Extent(std::string("brother")))) {
      if (store.Find(oid)->Get("Bssn#") ==
          Value::String(StrCat("U", family))) {
        ASSERT_OK(store.Remove(oid));
        return;
      }
    }
    FAIL() << "no brother U" << family;
  }

  static FederationOptions DemandOptions() {
    FederationOptions options;
    options.query_mode = QueryMode::kDemandDriven;
    return options;
  }

  static Digest DigestOf(const FsmClient& client) {
    Digest digest;
    for (const ClassDef& class_def : client.global().schema.classes()) {
      std::multiset<std::string>& keys = digest[class_def.name()];
      for (const Fact* fact : ValueOrDie(client.Extent(class_def.name()))) {
        keys.insert(fact->CanonicalKey());
      }
    }
    return digest;
  }

  /// A fresh client's digest on its own Fsm over `fsm`'s data: built by
  /// BuildFsm and then `mutate`, so base OIDs line up.
  template <typename Mutate>
  Digest FreshDigest(Mutate mutate) const {
    Fsm fresh;
    BuildFsm(&fresh);
    mutate(&fresh);
    FsmClient client(&fresh);
    EXPECT_OK(client.Connect());
    return DigestOf(client);
  }

  /// The connect's counters as Explain reports them (on a plan for the
  /// global class of `schema_name`.`class_name`).
  static Evaluator::Stats ConnectStats(const FsmClient& client,
                                       const std::string& schema_name = "S2",
                                       const std::string& class_name = "uncle") {
    Query query(ValueOrDie(client.GlobalNameOf(schema_name, class_name)));
    const QueryPlan plan = ValueOrDie(client.Explain(query));
    EXPECT_TRUE(plan.counters.present);
    return plan.counters.stats;
  }

  /// The counters two loads of the same data must agree on, reuse or not.
  static auto Counted(const Evaluator::Stats& s) {
    return std::make_tuple(s.base_facts, s.derived_facts, s.rule_applications,
                           s.iterations, s.strata, s.index_probes,
                           s.index_scans, s.cursor_steps, s.merge_steps,
                           s.gallop_steps, s.plan_reorders, s.delta_sizes,
                           s.extents_fetched);
  }

  /// ?- uncle(niece_nephew: "C<family>a", Ussn#: var).
  static Query Goal(const std::string& uncle, size_t family,
                    const std::string& var) {
    Query query(uncle);
    query.Where("niece_nephew", Value::String(StrCat("C", family, "a")))
        .Select("Ussn#", var);
    return query;
  }

  static std::set<std::string> Answers(const std::vector<Bindings>& rows,
                                       const std::string& var) {
    std::set<std::string> answers;
    for (const Bindings& row : rows) answers.insert(row.at(var).ToString());
    return answers;
  }

  Fixture fixture_;
  Fsm fsm_;
};

TEST_F(FsmSegmentCacheTest, ReconnectAndRefreshReuseTheSegment) {
  FsmClient first(&fsm_);
  ASSERT_OK(first.Connect());
  const Evaluator::Stats built = ConnectStats(first);
  EXPECT_EQ(built.base_segments_reused, 0u);
  EXPECT_GT(built.base_facts, 0u);
  EXPECT_GT(built.derived_facts, 0u);
  const Digest expected = DigestOf(first);
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);

  FsmClient second(&fsm_);
  ASSERT_OK(second.Connect());
  const Evaluator::Stats reused = ConnectStats(second);
  EXPECT_EQ(reused.base_segments_reused, 1u);
  EXPECT_EQ(Counted(reused), Counted(built));
  EXPECT_EQ(DigestOf(second), expected);

  ASSERT_OK(first.Refresh());
  const Evaluator::Stats refreshed = ConnectStats(first);
  EXPECT_EQ(refreshed.base_segments_reused, 1u);
  EXPECT_EQ(Counted(refreshed), Counted(built));
  EXPECT_EQ(DigestOf(first), expected);

  // Every connect still fetched every extent from every agent.
  const std::vector<AgentHealth> health = first.ConnectionHealth();
  const std::vector<AgentHealth> other = second.ConnectionHealth();
  ASSERT_EQ(health.size(), other.size());
  for (size_t i = 0; i < health.size(); ++i) {
    EXPECT_GT(health[i].stats.calls, 0u);
    EXPECT_EQ(health[i].stats.calls, other[i].stats.calls);
  }
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);
}

TEST_F(FsmSegmentCacheTest, ExplainShowsWhetherAConnectReencoded) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
  const std::string first = ValueOrDie(client.Explain(query)).ToString();
  EXPECT_NE(first.find("segment_reused=0"), std::string::npos) << first;
  ASSERT_OK(client.Refresh());
  const QueryPlan plan = ValueOrDie(client.Explain(query));
  const std::string second = plan.ToString();
  EXPECT_NE(second.find(StrCat("counters: base_facts=",
                               plan.counters.stats.base_facts)),
            std::string::npos)
      << second;
  EXPECT_NE(second.find(StrCat("extents_fetched=",
                               plan.counters.stats.extents_fetched,
                               " segment_reused=1")),
            std::string::npos)
      << second;
  EXPECT_GT(plan.counters.stats.extents_fetched, 0u);
  // The demand cache's hit count means nothing on a materialized plan.
  EXPECT_EQ(second.find("cache_hits="), std::string::npos) << second;
}

TEST_F(FsmSegmentCacheTest, InsertBetweenConnectsReusesNothing) {
  FsmClient before(&fsm_);
  ASSERT_OK(before.Connect());
  const Digest old_digest = DigestOf(before);

  AddFamily(&fsm_, 50);
  FsmClient after(&fsm_);
  ASSERT_OK(after.Connect());
  EXPECT_EQ(ConnectStats(after).base_segments_reused, 0u);
  const Digest digest = DigestOf(after);
  EXPECT_NE(digest, old_digest);
  EXPECT_EQ(digest, FreshDigest([](Fsm* fsm) { AddFamily(fsm, 50); }));
  EXPECT_EQ(ConnectStats(after).base_facts,
            ConnectStats(before).base_facts + 2);
}

TEST_F(FsmSegmentCacheTest, RemoveBetweenConnectsReusesNothing) {
  FsmClient before(&fsm_);
  ASSERT_OK(before.Connect());
  const Digest old_digest = DigestOf(before);

  RemoveUncle(&fsm_, 1);
  ASSERT_OK(before.Refresh());
  EXPECT_EQ(ConnectStats(before).base_segments_reused, 0u);
  const Digest digest = DigestOf(before);
  EXPECT_NE(digest, old_digest);
  EXPECT_EQ(digest, FreshDigest([](Fsm* fsm) { RemoveUncle(fsm, 1); }));
}

/// Merges two classes into one concept that sorts where theirs did, so
/// the binding list keeps its agents and classes in order and only two
/// concept names change.
constexpr char kAssistantIsEmployee[] = R"(
assert S1.teaching_assistant == S2.employee {
  attr: S1.teaching_assistant.ssn# == S2.employee.ssn#;
}
)";

/// The university world (Fig. 18) with one object per class, and
/// kAssistantIsEmployee unless `assertions` is false.
void BuildUniversityFsm(const Fixture& fixture, Fsm* fsm, bool assertions) {
  std::unique_ptr<FsmAgent> a1 =
      ValueOrDie(FsmAgent::Create("agent1", "ooint", "db1", fixture.s1));
  std::unique_ptr<FsmAgent> a2 =
      ValueOrDie(FsmAgent::Create("agent2", "ooint", "db2", fixture.s2));
  InstanceStore& s1 = a1->store();
  ValueOrDie(s1.NewObject("person"))
      ->Set("ssn#", Value::String("1"))
      .Set("full_name", Value::String("Ann"))
      .Set("interests", Value::Set({Value::String("chess")}))
      .Set("city", Value::String("Oslo"));
  ValueOrDie(s1.NewObject("student"))
      ->Set("ssn#", Value::String("2"))
      .Set("name", Value::String("Bob"))
      .Set("study_support", Value::Integer(100));
  ValueOrDie(s1.NewObject("lecturer"))
      ->Set("ssn#", Value::String("3"))
      .Set("course", Value::String("databases"));
  ValueOrDie(s1.NewObject("teaching_assistant"))
      ->Set("ssn#", Value::String("4"))
      .Set("hours", Value::Integer(10));
  InstanceStore& s2 = a2->store();
  ValueOrDie(s2.NewObject("human"))
      ->Set("ssn#", Value::String("1"))
      .Set("name", Value::String("Ann"))
      .Set("hobby", Value::Set({Value::String("go")}))
      .Set("street-number", Value::String("5"));
  ValueOrDie(s2.NewObject("employee"))
      ->Set("ssn#", Value::String("3"))
      .Set("salary", Value::Integer(1000));
  ValueOrDie(s2.NewObject("faculty"))
      ->Set("fssn#", Value::String("2"))
      .Set("name", Value::String("Bob"))
      .Set("income", Value::Integer(2000));
  ValueOrDie(s2.NewObject("professor"))
      ->Set("fssn#", Value::String("6"))
      .Set("chair", Value::String("ai"));
  ASSERT_OK(fsm->RegisterAgent(std::move(a1)));
  ASSERT_OK(fsm->RegisterAgent(std::move(a2)));
  if (assertions) ASSERT_OK(fsm->DeclareAssertions(kAssistantIsEmployee));
}

std::vector<SegmentCache::Binding> BindingsOf(const GlobalSchema& global) {
  std::vector<SegmentCache::Binding> bindings;
  for (const auto& [concept_name, refs] : global.ground_sources) {
    for (const ClassRef& ref : refs) {
      bindings.push_back({concept_name, ref.schema, ref.class_name});
    }
  }
  return bindings;
}

TEST_F(FsmSegmentCacheTest, ChangedGlobalSchemaReusesNothingStale) {
  // Without assertions every local class is its own global class.
  // Declaring the merge renames two concepts: the same agents and
  // classes in the same order under different concept names, at the
  // same epochs — a list keyed by position would reuse the old segment.
  const Fixture university = ValueOrDie(MakeUniversityFixture());
  Fsm fsm;
  BuildUniversityFsm(university, &fsm, /*assertions=*/false);
  FsmClient client(&fsm);
  ASSERT_OK(client.Connect());
  const std::vector<SegmentCache::Binding> old_bindings =
      BindingsOf(client.global());

  ASSERT_OK(fsm.DeclareAssertions(kAssistantIsEmployee));
  ASSERT_OK(client.Refresh());
  const std::vector<SegmentCache::Binding> new_bindings =
      BindingsOf(client.global());
  ASSERT_EQ(new_bindings.size(), old_bindings.size());
  ASSERT_NE(new_bindings, old_bindings);
  for (size_t i = 0; i < new_bindings.size(); ++i) {
    EXPECT_EQ(new_bindings[i].schema_name, old_bindings[i].schema_name);
    EXPECT_EQ(new_bindings[i].class_name, old_bindings[i].class_name);
  }
  EXPECT_EQ(ConnectStats(client, "S2", "employee").base_segments_reused, 0u);

  Fsm fresh;
  BuildUniversityFsm(university, &fresh, /*assertions=*/true);
  FsmClient reference(&fresh);
  ASSERT_OK(reference.Connect());
  EXPECT_EQ(DigestOf(client), DigestOf(reference));
}

TEST_F(FsmSegmentCacheTest, FaultSkippedConnectNeitherUsesNorReplaces) {
  const GlobalSchema global = ValueOrDie(fsm_.IntegrateAll());
  FederatedEvaluator healthy =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global));
  const std::shared_ptr<const FactStore> segment =
      healthy.evaluator->fact_store().segment();
  ASSERT_NE(segment, nullptr);

  FaultInjector injector;
  FederationOptions options;
  options.failure_policy = FailurePolicy::kPartial;
  options.injector = &injector;
  injector.PushN("S1", FaultKind::kUnavailable, options.retry.max_attempts);
  FederatedEvaluator faulted =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global, options));
  const Evaluator& ev = *faulted.evaluator;
  ASSERT_TRUE(ev.degraded().SkippedAgentNamed("S1"));
  EXPECT_EQ(ev.stats().base_segments_reused, 0u);
  EXPECT_NE(ev.fact_store().segment(), segment);
  EXPECT_LT(ev.stats().base_facts, healthy.evaluator->stats().base_facts);
  EXPECT_EQ(ev.stats().extents_fetched,
            healthy.evaluator->stats().extents_fetched);

  FederatedEvaluator after = ValueOrDie(fsm_.MakeFederatedEvaluator(global));
  EXPECT_EQ(after.evaluator->stats().base_segments_reused, 1u);
  EXPECT_EQ(after.evaluator->fact_store().segment(), segment);
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);
}

TEST_F(FsmSegmentCacheTest, DeadlineTruncatedConnectNeitherUsesNorReplaces) {
  const GlobalSchema global = ValueOrDie(fsm_.IntegrateAll());
  FederatedEvaluator healthy =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global));
  const std::shared_ptr<const FactStore> segment =
      healthy.evaluator->fact_store().segment();

  // 5 ms per attempt against a 6 ms budget: the first extent arrives,
  // the connect's clock runs out during the second.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederationOptions options;
  options.failure_policy = FailurePolicy::kPartial;
  options.injector = &injector;
  options.query_deadline_ms = 6;
  FederatedEvaluator truncated =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global, options));
  ASSERT_TRUE(truncated.evaluator->degraded().deadline_truncated);
  EXPECT_EQ(truncated.evaluator->stats().base_segments_reused, 0u);
  EXPECT_NE(truncated.evaluator->fact_store().segment(), segment);

  FederatedEvaluator after = ValueOrDie(fsm_.MakeFederatedEvaluator(global));
  EXPECT_EQ(after.evaluator->stats().base_segments_reused, 1u);
  EXPECT_EQ(after.evaluator->fact_store().segment(), segment);
}

TEST_F(FsmSegmentCacheTest, StrictDeadlineUnwindLeavesANeverStartedStore) {
  const GlobalSchema global = ValueOrDie(fsm_.IntegrateAll());
  FederatedEvaluator healthy =
      ValueOrDie(fsm_.MakeFederatedEvaluator(global));
  const Evaluator::Stats full = healthy.evaluator->stats();
  ASSERT_GT(full.iterations, 1u);

  // Built without its fixpoint, then run with a budget the load fits in
  // (fetches cost no virtual time here) but the rounds do not: the load
  // overlays the cached segment, and the unwind must drop it again.
  FederatedEvaluator fed = ValueOrDie(
      fsm_.MakeFederatedEvaluator(global, DemandOptions()));
  Evaluator& ev = *fed.evaluator;
  ev.set_cancel_token(CancelToken::WithBudget(CancelToken::kRoundChargeMs));
  EXPECT_EQ(ev.Evaluate().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ev.fact_store().size(), 0u);
  EXPECT_EQ(ev.fact_store().segment(), nullptr);
  EXPECT_EQ(ev.stats().base_facts, 0u);
  EXPECT_EQ(ev.stats().base_segments_reused, 0u);
  // The unwind came after the load: every extent was fetched.
  size_t calls = 0;
  for (const AgentConnection* connection : fed.connections) {
    calls += connection->stats().calls;
  }
  EXPECT_EQ(calls, full.extents_fetched);

  // The healthy segment is still the one a later load overlays.
  ev.set_cancel_token(CancelToken());
  ASSERT_OK(ev.Evaluate());
  EXPECT_EQ(ev.stats().base_segments_reused, 1u);
  EXPECT_EQ(ev.fact_store().segment(),
            healthy.evaluator->fact_store().segment());
  EXPECT_EQ(Counted(ev.stats()), Counted(full));
}

TEST_F(FsmSegmentCacheTest, LiveUpdatesConnectAttachesNoSegment) {
  const GlobalSchema global = ValueOrDie(fsm_.IntegrateAll());
  FederationOptions live;
  live.live_updates = true;
  FederatedEvaluator fed = ValueOrDie(fsm_.MakeFederatedEvaluator(global, live));
  std::unique_ptr<IncrementalEvaluator> engine =
      ValueOrDie(IncrementalEvaluator::Adopt(fed.evaluator.get()));
  EXPECT_EQ(fed.evaluator->fact_store().segment(), nullptr);
  EXPECT_GT(fed.evaluator->fact_store().size(), 0u);
  EXPECT_EQ(fsm_.segment_cache().size(), 0u);

  // Deltas on a live client still match a rebuild, which reuses nothing
  // stale: the segment cached before the delta recorded the old epoch.
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, live));
  FsmClient before(&fsm_);
  ASSERT_OK(before.Connect());
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);
  InstanceStore& store = fsm_.FindAgent("S1")->store();
  AddFamily(&fsm_, 60);
  ExtentDelta delta;
  delta.agent_name = "S1";
  for (const Oid& oid : ValueOrDie(store.Extent(std::string("parent")))) {
    if (store.Find(oid)->Get("Pssn#") == Value::String("P60")) {
      delta.inserted.push_back(*store.Find(oid));
    }
  }
  for (const Oid& oid : ValueOrDie(store.Extent(std::string("brother")))) {
    if (store.Find(oid)->Get("Bssn#") == Value::String("U60")) {
      delta.inserted.push_back(*store.Find(oid));
    }
  }
  ASSERT_EQ(delta.inserted.size(), 2u);
  delta.epoch = store.data_epoch();
  ASSERT_OK(client.ApplyDelta(delta));
  FsmClient rebuilt(&fsm_);
  ASSERT_OK(rebuilt.Connect());
  EXPECT_EQ(ConnectStats(rebuilt).base_segments_reused, 0u);
  EXPECT_EQ(DigestOf(client), DigestOf(rebuilt));
}

TEST_F(FsmSegmentCacheTest, InsertsBetweenReconnectsLeaveOneEntry) {
  size_t first_base_facts = 0;
  for (size_t i = 0; i < 50; ++i) {
    FsmClient client(&fsm_);
    ASSERT_OK(client.Connect());
    EXPECT_EQ(ConnectStats(client).base_segments_reused, 0u);
    if (i == 0) first_base_facts = ConnectStats(client).base_facts;
    EXPECT_EQ(fsm_.segment_cache().size(), 1u) << "reconnect " << i;
    AddFamily(&fsm_, 200 + i);
  }
  FsmClient last(&fsm_);
  ASSERT_OK(last.Connect());
  EXPECT_EQ(ConnectStats(last).base_facts, first_base_facts + 2 * 50);
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);
}

TEST_F(FsmSegmentCacheTest, MissesOnDifferentConceptsShareNothing) {
  // Each extent below is one binding of S1: lists of equal length and
  // agent, different content.
  FsmClient demand(&fsm_);
  ASSERT_OK(demand.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  FsmClient materialized(&fsm_);
  ASSERT_OK(materialized.Connect());
  for (const char* class_name : {"parent", "brother"}) {
    const std::string name = ValueOrDie(demand.GlobalNameOf("S1", class_name));
    std::multiset<std::string> got;
    for (const Fact* fact : ValueOrDie(demand.Extent(name))) {
      got.insert(fact->CanonicalKey());
    }
    std::multiset<std::string> want;
    for (const Fact* fact : ValueOrDie(materialized.Extent(name))) {
      want.insert(fact->CanonicalKey());
    }
    EXPECT_EQ(got, want) << class_name;
    EXPECT_EQ(got.size(), kFamilies) << class_name;
    EXPECT_EQ(ValueOrDie(demand.Explain(Query(name)))
                  .counters.stats.base_segments_reused,
              0u)
        << class_name;
  }
}

TEST_F(FsmSegmentCacheTest, StoringDropsEntriesOfAnOlderAgentEpoch) {
  // Two demand entries that read S1 only, and the connect's, which
  // reads S1 and S2.
  FsmClient demand(&fsm_);
  ASSERT_OK(demand.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const std::string parent = ValueOrDie(demand.GlobalNameOf("S1", "parent"));
  const std::string brother =
      ValueOrDie(demand.GlobalNameOf("S1", "brother"));
  ASSERT_OK(demand.Extent(parent).status());
  ASSERT_OK(demand.Extent(brother).status());
  FsmClient materialized(&fsm_);
  ASSERT_OK(materialized.Connect());
  EXPECT_EQ(fsm_.segment_cache().size(), 3u);

  // S2 moves: the reconnect replaces its own entry, and the entries
  // that never read S2 stay and are still reused.
  Object* extra = ValueOrDie(fsm_.FindAgent("S2")->store().NewObject("uncle"));
  extra->Set("Ussn#", Value::String("U99"))
      .Set("name", Value::String("uncle_99"))
      .Set("niece_nephew", Value::Set({Value::String("C99a")}));
  ASSERT_OK(materialized.Refresh());
  EXPECT_EQ(ConnectStats(materialized).base_segments_reused, 0u);
  EXPECT_EQ(fsm_.segment_cache().size(), 3u);
  demand.InvalidateQueryCache();
  ASSERT_OK(demand.Extent(parent).status());
  EXPECT_EQ(ValueOrDie(demand.Explain(Query(parent)))
                .counters.stats.base_segments_reused,
            1u);

  // S1 moves: the reconnect's segment records the newer S1 epoch, so
  // both S1-only entries can never match again and go.
  AddFamily(&fsm_, 70);
  ASSERT_OK(materialized.Refresh());
  EXPECT_EQ(fsm_.segment_cache().size(), 1u);
}

// The tsan target: four threads each connect fresh clients on one Fsm
// while a demand client misses distinct goals (a fresh variable name per
// query defeats the answer cache, not the segments). Every answer must
// equal the serial one.
TEST_F(FsmSegmentCacheTest, ConcurrentConnectsShareSegmentsWithDemandMisses) {
  FsmClient serial(&fsm_);
  ASSERT_OK(serial.Connect());
  const Digest expected = DigestOf(serial);
  const Evaluator::Stats expected_stats = ConnectStats(serial);
  const std::string uncle = ValueOrDie(serial.GlobalNameOf("S2", "uncle"));
  FsmClient demand(&fsm_);
  ASSERT_OK(demand.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 3; ++i) {
        FsmClient client(&fsm_);
        ASSERT_OK(client.Connect());
        EXPECT_EQ(DigestOf(client), expected);
        EXPECT_EQ(Counted(ConnectStats(client)), Counted(expected_stats));
      }
    });
  }
  threads.emplace_back([&] {
    for (size_t i = 0; i < 12; ++i) {
      const size_t family = i % kFamilies;
      const std::string var = StrCat("who_", i);
      const Result<std::vector<Bindings>> rows =
          demand.Run(Goal(uncle, family, var));
      ASSERT_OK(rows.status());
      EXPECT_EQ(Answers(rows.value(), var),
                std::set<std::string>{StrCat("\"U", family, "\"")});
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(demand.query_cache_stats().misses, 12u);
}

}  // namespace
}  // namespace ooint
