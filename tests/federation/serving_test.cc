// Streaming serving layer (DESIGN.md §4k): FsmClient::OpenCursor
// pagination vs. Run equivalence, exact has_more on exactly-full pages,
// top-k cursors, cursor lifecycle (Close, idle expiry on the serving
// clock, reconnect / live-update epoch rules), deadline-truncated
// degradation on every page with no caching, and single-flight
// coalescing of concurrent demand evaluations. The NextPage-vs-
// ApplyDelta race test runs under tsan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm_client.h"
#include "federation/serving.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

constexpr size_t kFamilies = 6;

class ServingCursorTest : public ::testing::Test {
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

  static FederationOptions DemandOptions() {
    FederationOptions options;
    options.failure_policy = FailurePolicy::kPartial;
    options.query_mode = QueryMode::kDemandDriven;
    return options;
  }

  InstanceStore& Store(const std::string& schema_name) {
    return fsm_.FindAgent(schema_name)->store();
  }

  /// A delta feed adding family `family` to S1 (live_update_test idiom).
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

  Query UncleQuery(const FsmClient& client) const {
    Query query(ValueOrDie(client.GlobalNameOf("S2", "uncle")));
    query.Select("Ussn#", "who").Select("niece_nephew", "kid");
    return query;
  }

  static std::string RowKey(const Bindings& row) {
    std::string key;
    for (const auto& [var, value] : row) {
      key += var + "=" + value.ToString() + ";";
    }
    return key;
  }

  static std::multiset<std::string> Keys(const std::vector<Bindings>& rows) {
    std::multiset<std::string> keys;
    for (const Bindings& row : rows) keys.insert(RowKey(row));
    return keys;
  }

  /// Drains every page; fails the test on cursor errors.
  static std::vector<Bindings> DrainPages(ServingCursor* cursor,
                                          size_t* pages = nullptr) {
    std::vector<Bindings> rows;
    size_t count = 0;
    while (true) {
      Result<Page> page = cursor->NextPage();
      if (!page.ok()) {
        ADD_FAILURE() << "NextPage failed: " << page.status().ToString();
        break;
      }
      ++count;
      for (Bindings& row : page.value().rows) rows.push_back(std::move(row));
      if (!page.value().has_more) break;
    }
    if (pages != nullptr) *pages = count;
    return rows;
  }

  Fixture fixture_;
  Fsm fsm_;
};

TEST_F(ServingCursorTest, UnionOfPagesMatchesRunAcrossPageSizes) {
  for (const QueryMode mode :
       {QueryMode::kMaterialized, QueryMode::kDemandDriven}) {
    FsmClient client(&fsm_);
    FederationOptions options;
    options.query_mode = mode;
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
    const Query query = UncleQuery(client);
    const std::vector<Bindings> whole = ValueOrDie(client.Run(query));
    ASSERT_FALSE(whole.empty());

    for (const size_t page_size : {1u, 2u, 3u, 100u}) {
      ServingOptions serving;
      serving.page_size = page_size;
      std::unique_ptr<ServingCursor> cursor =
          ValueOrDie(client.OpenCursor(query, serving));
      EXPECT_EQ(Keys(DrainPages(cursor.get())), Keys(whole))
          << "mode=" << static_cast<int>(mode) << " page_size=" << page_size;
    }
  }
}

TEST_F(ServingCursorTest, ExactlyFullLastPageReportsNoMore) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const Query query = UncleQuery(client);
  const size_t total = ValueOrDie(client.Run(query)).size();
  ASSERT_GT(total, 0u);

  ServingOptions serving;
  serving.page_size = total;  // the whole answer fits exactly
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  const Page first = ValueOrDie(cursor->NextPage());
  EXPECT_EQ(first.rows.size(), total);
  EXPECT_FALSE(first.has_more);

  // Pagination is idempotent at the end: further pages are empty, not
  // errors.
  const Page after = ValueOrDie(cursor->NextPage());
  EXPECT_TRUE(after.rows.empty());
  EXPECT_FALSE(after.has_more);
  EXPECT_EQ(after.page_index, 1u);
}

TEST_F(ServingCursorTest, TopKStreamsSortedPrefix) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const Query query = UncleQuery(client);
  std::vector<Bindings> sorted = ValueOrDie(client.Run(query));
  ASSERT_GT(sorted.size(), 3u);

  for (const bool descending : {false, true}) {
    ServingOptions serving;
    serving.page_size = 2;
    serving.order_by = "who";
    serving.descending = descending;
    serving.limit = 3;
    std::sort(sorted.begin(), sorted.end(), RowOrder{"who", descending});

    std::unique_ptr<ServingCursor> cursor =
        ValueOrDie(client.OpenCursor(query, serving));
    const std::vector<Bindings> streamed = DrainPages(cursor.get());
    ASSERT_EQ(streamed.size(), 3u);
    for (size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(RowKey(streamed[i]), RowKey(sorted[i]))
          << "descending=" << descending << " row " << i;
    }
  }
}

TEST_F(ServingCursorTest, FiltersAndProjectionApplyPerRow) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const Query query = UncleQuery(client);

  ServingOptions serving;
  serving.filters.push_back({"who", CompareOp::kEq, Value::String("U1")});
  serving.project = {"kid"};
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  const std::vector<Bindings> rows = DrainPages(cursor.get());
  ASSERT_FALSE(rows.empty());
  for (const Bindings& row : rows) {
    EXPECT_EQ(row.size(), 1u);
    EXPECT_TRUE(row.count("kid"));
  }
  // Family 1's uncle has exactly the two distinct niece/nephew rows.
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ServingCursorTest, InvalidOptionsAreRejected) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const Query query = UncleQuery(client);
  ServingOptions zero_page;
  zero_page.page_size = 0;
  EXPECT_EQ(client.OpenCursor(query, zero_page).status().code(),
            StatusCode::kInvalidArgument);
  ServingOptions negative_idle;
  negative_idle.idle_expiry_ms = -1;
  EXPECT_EQ(client.OpenCursor(query, negative_idle).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServingCursorTest, CloseIsIdempotentAndPinsStats) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(UncleQuery(client)));
  ASSERT_OK(cursor->NextPage().status());
  const size_t rows_out = cursor->pipeline_stats().rows_out;
  cursor->Close();
  EXPECT_TRUE(cursor->closed());
  cursor->Close();  // idempotent
  EXPECT_EQ(cursor->NextPage().status().code(),
            StatusCode::kFailedPrecondition);
  // Stats survive Close for post-mortem reads.
  EXPECT_EQ(cursor->pipeline_stats().rows_out, rows_out);
  EXPECT_EQ(client.serving_stats().cursors_closed, 1u);
}

TEST_F(ServingCursorTest, IdleExpiryOnTheServingClock) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect());
  const Query query = UncleQuery(client);
  ServingOptions serving;
  serving.page_size = 1;
  serving.idle_expiry_ms = 10;

  // Landing exactly on the allowance survives (the CancelToken
  // boundary rule) ...
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  client.AdvanceServingClock(10);
  EXPECT_OK(cursor->NextPage().status());

  // ... strictly exceeding it expires the cursor for good.
  client.AdvanceServingClock(10.5);
  const Status expired = cursor->NextPage().status();
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cursor->closed());
  EXPECT_EQ(cursor->NextPage().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.serving_stats().cursors_expired, 1u);

  // A cursor without the option never expires.
  std::unique_ptr<ServingCursor> immortal =
      ValueOrDie(client.OpenCursor(query));
  client.AdvanceServingClock(1e7);
  EXPECT_OK(immortal->NextPage().status());
}

TEST_F(ServingCursorTest, ReconnectExpiresCursorsOfBothModes) {
  for (const QueryMode mode :
       {QueryMode::kMaterialized, QueryMode::kDemandDriven}) {
    FsmClient client(&fsm_);
    FederationOptions options;
    options.query_mode = mode;
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
    std::unique_ptr<ServingCursor> cursor =
        ValueOrDie(client.OpenCursor(UncleQuery(client)));
    ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
    const Status stale = cursor->NextPage().status();
    EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(stale.message().find("cursor epoch expired"),
              std::string::npos)
        << stale.ToString();
  }
}

TEST_F(ServingCursorTest, MaterializedCursorFailsAfterApplyDelta) {
  FsmClient client(&fsm_);
  FederationOptions options;
  options.live_updates = true;
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query));
  ASSERT_OK(cursor->NextPage().status());

  ASSERT_OK(client.ApplyDelta(AddFamily(40)));

  // The documented epoch error: the derived store moved under the
  // stream; the cursor must be re-opened, never silently mix states.
  const Status stale = cursor->NextPage().status();
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("cursor epoch expired"), std::string::npos)
      << stale.ToString();

  std::unique_ptr<ServingCursor> fresh =
      ValueOrDie(client.OpenCursor(query));
  EXPECT_EQ(Keys(DrainPages(fresh.get())),
            Keys(ValueOrDie(client.Run(query))));
}

TEST_F(ServingCursorTest, DemandCursorKeepsSnapshotAcrossApplyDelta) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);
  const std::multiset<std::string> before =
      Keys(ValueOrDie(client.Run(query)));

  ServingOptions serving;
  serving.page_size = 1;
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  const Page first = ValueOrDie(cursor->NextPage());

  ASSERT_OK(client.ApplyDelta(AddFamily(41)));

  // Snapshot semantics: the cursor's remaining pages complete the
  // pre-delta answer even though the delta evicted the cache entry the
  // snapshot came from.
  std::vector<Bindings> rows = first.rows;
  for (Bindings& row : DrainPages(cursor.get())) rows.push_back(row);
  EXPECT_EQ(Keys(rows), before);

  // A fresh query (and a fresh cursor) see the post-delta world.
  const std::multiset<std::string> after =
      Keys(ValueOrDie(client.Run(query)));
  EXPECT_GT(after.size(), before.size());
  std::unique_ptr<ServingCursor> fresh =
      ValueOrDie(client.OpenCursor(query));
  EXPECT_EQ(Keys(DrainPages(fresh.get())), after);
}

TEST_F(ServingCursorTest, DeadlineTruncationFlagsEveryPageAndNeverCaches) {
  // Agents are up but slow (5 virtual ms per fetch); the demand query's
  // 12ms budget runs out mid-evaluation, leaving a sound subset.
  FaultInjector injector;
  LatencyProfile profile;
  profile.base_ms = 5;
  injector.set_latency_profile(profile);
  FederationOptions options = DemandOptions();
  options.injector = &injector;
  options.query_deadline_ms = 12;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);

  ServingOptions serving;
  serving.page_size = 1;
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  size_t pages = 0;
  bool all_flagged = true;
  while (true) {
    const Page page = ValueOrDie(cursor->NextPage());
    ++pages;
    all_flagged = all_flagged && page.degraded.deadline_truncated;
    if (!page.has_more) break;
  }
  ASSERT_GE(pages, 1u);
  EXPECT_TRUE(all_flagged)
      << "deadline_truncated must ride on every page, not just the first";
  ASSERT_TRUE(client.degraded().deadline_truncated);

  // Truncated outcomes are never cached (the PR 7 rule): the cursor's
  // evaluation was a miss, and the next one misses again.
  const size_t misses = client.query_cache_stats().misses;
  std::unique_ptr<ServingCursor> again =
      ValueOrDie(client.OpenCursor(query));
  EXPECT_EQ(client.query_cache_stats().misses, misses + 1);
  EXPECT_EQ(client.query_cache_stats().hits, 0u);
}

TEST_F(ServingCursorTest, CoalescingSharesOneEvaluationAcrossThreads) {
  // Every fetch sleeps 20 ms of real time (a 10 ms virtual latency at
  // scale 2), so a demand miss stays in flight far longer than the
  // latch below takes to release the other threads into the window.
  FaultInjector injector;
  LatencyProfile latency;
  latency.base_ms = 10;
  injector.set_latency_profile(latency);
  FederationOptions options = DemandOptions();
  options.injector = &injector;
  options.retry.real_time_scale = 2;
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);
  const std::multiset<std::string> expected =
      Keys(ValueOrDie(client.Run(query)));
  ASSERT_FALSE(expected.empty());
  const size_t leaders_before = client.serving_stats().coalesce_leaders;

  // One storm round: eight cache-missing queries released together.
  constexpr int kThreads = 8;
  client.InvalidateQueryCache();
  std::latch start(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      const Result<std::vector<Bindings>> rows = client.Run(query);
      if (!rows.ok() || Keys(rows.value()) != expected) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServingStats stats = client.serving_stats();
  EXPECT_GT(stats.coalesce_hits, 0u);
  EXPECT_GT(stats.coalesce_leaders, leaders_before);
}

TEST_F(ServingCursorTest, ServingCountersSurfaceInExplain) {
  FsmClient client(&fsm_);
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, DemandOptions()));
  const Query query = UncleQuery(client);
  ServingOptions serving;
  serving.page_size = 2;
  serving.order_by = "who";
  serving.limit = 3;
  std::unique_ptr<ServingCursor> cursor =
      ValueOrDie(client.OpenCursor(query, serving));
  DrainPages(cursor.get());
  cursor->Close();

  const ServingStats stats = client.serving_stats();
  EXPECT_EQ(stats.cursors_opened, 1u);
  EXPECT_EQ(stats.cursors_closed, 1u);
  EXPECT_GT(stats.pages_served, 0u);
  EXPECT_EQ(stats.rows_streamed, 3u);
  EXPECT_GT(stats.heap_evictions, 0u);

  const QueryPlan plan = ValueOrDie(client.Explain(query));
  EXPECT_EQ(plan.serving.cursors_opened, 1u);
  EXPECT_EQ(plan.serving.rows_streamed, 3u);
  const std::string rendered = plan.ToString();
  EXPECT_NE(rendered.find("serving:"), std::string::npos) << rendered;
}

// The tsan target runs this: pages must drain or fail with the epoch
// error while deltas land, with no data race between NextPage's shared
// snapshot read and ApplyDelta's exclusive maintenance write.
TEST_F(ServingCursorTest, CursorRacesApplyDeltaCleanly) {
  FsmClient client(&fsm_);
  FederationOptions options;
  options.live_updates = true;
  ASSERT_OK(client.Connect(Fsm::Strategy::kAccumulation, options));
  const Query query = UncleQuery(client);
  // Every child of every parent: a set-valued attribute matched
  // element-wise, streamed one row per page, so rows (and the dedup
  // store's handles) cross page boundaries while deltas land.
  Query children(ValueOrDie(client.GlobalNameOf("S1", "parent")));
  children.Select("children", "kid");
  ServingOptions one_per_page;
  one_per_page.page_size = 1;
  // A top-k cursor: the heap holds handle rows until its pages are built.
  ServingOptions top_k;
  top_k.page_size = 2;
  top_k.order_by = "kid";
  top_k.limit = 5;
  const RowOrder order{top_k.order_by, top_k.descending};

  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::atomic<int> unsorted{0};
  std::atomic<int> pages_read{0};
  // Reads every page of one cursor; every failure must be the
  // documented epoch error.
  const auto read = [&](const Query& q, const ServingOptions& serving,
                        bool sorted) {
    Result<std::unique_ptr<ServingCursor>> cursor =
        client.OpenCursor(q, serving);
    if (!cursor.ok()) {
      anomalies.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::vector<Bindings> rows;
    while (true) {
      const Result<Page> page = cursor.value()->NextPage();
      if (!page.ok()) {
        if (page.status().code() != StatusCode::kFailedPrecondition ||
            page.status().message().find("epoch") == std::string::npos) {
          anomalies.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      pages_read.fetch_add(1, std::memory_order_relaxed);
      const std::vector<Bindings>& page_rows = page.value().rows;
      if (sorted && !std::is_sorted(page_rows.begin(), page_rows.end(), order)) {
        unsorted.fetch_add(1, std::memory_order_relaxed);
      }
      rows.insert(rows.end(), page_rows.begin(), page_rows.end());
      if (!page.value().has_more) break;
    }
    if (sorted && !std::is_sorted(rows.begin(), rows.end(), order)) {
      unsorted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::atomic<bool> reading{false};
  std::thread reader([&] {
    do {
      read(query, ServingOptions(), false);
      read(children, one_per_page, false);
      read(query, top_k, true);
      reading.store(true, std::memory_order_release);
    } while (!stop.load(std::memory_order_acquire));
  });
  while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t family = 50; family < 58; ++family) {
    ASSERT_OK(client.ApplyDelta(AddFamily(family)));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(unsorted.load(), 0);
  EXPECT_GT(pages_read.load(), 0);
}

}  // namespace
}  // namespace ooint
