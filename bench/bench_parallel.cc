// Experiment E13: the parallel federation runtime.
//
// Three thread sweeps, two bottleneck regimes:
//
// Fetch-bound world: eight agents, every extent answered after 250
// virtual ms (FaultInjector kSlowResponse below the per-call deadline),
// with RetryPolicy::real_time_scale mapping the virtual wait onto a
// small real sleep. Serial loading pays the eight latencies end to end;
// the overlapped runtime pays roughly the longest one per batch. This
// regime parallelizes on any host — the workers sleep, they don't
// compete for cores.
//
//   BM_FetchBoundConnect/threads:N   Evaluate() = load eight slow
//                                    extents, no derivation to speak of.
//
// Derive-bound world: the Appendix B genealogy federation at 400
// families — all join work, instant extents. The pool only overlaps
// fetches and the fixpoint runs on the calling thread, so the curve is
// flat by design: the sweep shows that attaching a pool costs nothing.
//
//   BM_DeriveBoundFixpoint/threads:N   the bench_eval fixpoint with a
//                                      worker pool attached.
//
// Concurrent serving: one demand-mode FsmClient shared by N benchmark
// threads re-asking the same query — the reader/writer-locked query
// cache under contention.
//
//   BM_ConcurrentDemandServing/threads:N
//
// scripts/bench.sh bench_parallel writes BENCH_parallel.json.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "assertions/parser.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "federation/agent_connection.h"
#include "federation/fault_injector.h"
#include "federation/fsm.h"
#include "federation/fsm_client.h"
#include "model/schema_parser.h"
#include "rules/evaluator.h"
#include "rules/rule_generator.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

// --- Fetch-bound world -----------------------------------------------

constexpr int kAgents = 8;
constexpr double kVirtualLatencyMs = 250;
// 0.02 real ms slept per virtual ms: 5 ms per fetch, 40 ms serial
// floor for the eight agents — large against everything else in the
// benchmark, small enough to keep the sweep quick.
constexpr double kRealTimeScale = 0.02;

struct FetchWorld {
  std::vector<Schema> schemas;
  std::vector<std::unique_ptr<InstanceStore>> stores;
  FaultInjector injector;
};

std::unique_ptr<FetchWorld> MakeFetchWorld(size_t objects_per_agent) {
  auto world = std::make_unique<FetchWorld>();
  world->schemas.reserve(kAgents);
  for (int a = 0; a < kAgents; ++a) {
    const std::string name = StrCat("A", a);
    world->schemas.push_back(SchemaParser::Parse(StrCat(
        "schema ", name, " { class item { k: string; v: string; } }"))
        .value());
  }
  for (int a = 0; a < kAgents; ++a) {
    auto store = std::make_unique<InstanceStore>(&world->schemas[a]);
    store->SetOidContext(StrCat("agent", a), "ooint", StrCat("db", a));
    for (size_t i = 0; i < objects_per_agent; ++i) {
      store->NewObject("item")
          .value()
          ->Set("k", Value::String(StrCat("k", i)))
          .Set("v", Value::String(StrCat("v", a, "_", i)));
    }
    world->stores.push_back(std::move(store));
    // Every attempt is a slow success: latency below the per-call
    // deadline, so no retries — just waiting, overlappable waiting.
    world->injector.AlwaysFail(StrCat("A", a), FaultKind::kSlowResponse);
  }
  return world;
}

std::unique_ptr<Evaluator> MakeFetchEvaluator(FetchWorld* world,
                                              int threads) {
  RetryPolicy retry;
  retry.per_call_deadline_ms = 400;  // kSlowResponse (250) succeeds
  retry.total_deadline_ms = 2000;
  retry.real_time_scale = kRealTimeScale;
  auto evaluator = std::make_unique<Evaluator>();
  if (threads > 1) {
    evaluator->set_thread_pool(std::make_shared<ThreadPool>(threads));
  }
  for (int a = 0; a < kAgents; ++a) {
    const std::string name = StrCat("A", a);
    evaluator->AddSource(
        name, std::make_unique<AgentConnection>(
                  name, world->stores[a].get(), retry, BreakerPolicy{},
                  &world->injector));
    (void)evaluator->BindConcept(StrCat("IS(", name, ".item)"), name,
                                 "item");
  }
  return evaluator;
}

void BM_FetchBoundConnect(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<FetchWorld> world = MakeFetchWorld(/*objects_per_agent=*/50);
  double fetch_ms_sum = 0;
  double fetch_wall_ms = 0;
  for (auto _ : state) {
    std::unique_ptr<Evaluator> evaluator =
        MakeFetchEvaluator(world.get(), threads);
    if (!evaluator->Evaluate().ok()) state.SkipWithError("evaluation failed");
    fetch_ms_sum = evaluator->stats().fetch_ms_sum;
    fetch_wall_ms = evaluator->stats().fetch_wall_ms;
    benchmark::DoNotOptimize(evaluator);
  }
  state.counters["threads"] = threads;
  state.counters["fetch_ms_sum"] = fetch_ms_sum;
  state.counters["fetch_wall_ms"] = fetch_wall_ms;
  state.counters["overlap_saved_ms"] =
      fetch_ms_sum > fetch_wall_ms ? fetch_ms_sum - fetch_wall_ms : 0;
}

// --- Derive-bound world ----------------------------------------------

struct GenealogyWorld {
  Fixture fixture;
  std::unique_ptr<InstanceStore> s1_store;
  std::unique_ptr<InstanceStore> s2_store;
  std::vector<Rule> rules;
};

GenealogyWorld MakeGenealogyWorld(size_t families) {
  GenealogyWorld world{MakeGenealogyFixture().value(), nullptr, nullptr, {}};
  world.s1_store = std::make_unique<InstanceStore>(&world.fixture.s1);
  world.s2_store = std::make_unique<InstanceStore>(&world.fixture.s2);
  (void)PopulateGenealogy(world.s1_store.get(), world.s2_store.get(),
                          families);
  const AssertionSet assertions =
      AssertionParser::Parse(world.fixture.assertion_text).value();
  RuleGenerator generator;
  world.rules =
      generator.Generate(*assertions.AllDerivations().front()).value();
  return world;
}

void BM_DeriveBoundFixpoint(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/400);
  size_t derived = 0;
  for (auto _ : state) {
    Evaluator evaluator;
    if (threads > 1) {
      evaluator.set_thread_pool(std::make_shared<ThreadPool>(threads));
    }
    evaluator.AddSource("S1", world.s1_store.get());
    evaluator.AddSource("S2", world.s2_store.get());
    (void)evaluator.BindConcept("IS(S1.parent)", "S1", "parent");
    (void)evaluator.BindConcept("IS(S1.brother)", "S1", "brother");
    (void)evaluator.BindConcept("IS(S2.uncle)", "S2", "uncle");
    for (const Rule& rule : world.rules) (void)evaluator.AddRule(rule);
    if (!evaluator.Evaluate().ok()) state.SkipWithError("evaluation failed");
    derived = evaluator.stats().derived_facts;
    benchmark::DoNotOptimize(evaluator.FactsOf("IS(S2.uncle)"));
  }
  state.counters["threads"] = threads;
  state.counters["derived"] = static_cast<double>(derived);
}

// --- Concurrent query serving ----------------------------------------

std::unique_ptr<Fsm> MakeFederation(size_t families) {
  const Fixture fixture = MakeGenealogyFixture().value();
  auto fsm = std::make_unique<Fsm>();
  std::unique_ptr<FsmAgent> a1 =
      FsmAgent::Create("agent1", "ooint", "db1", fixture.s1).value();
  std::unique_ptr<FsmAgent> a2 =
      FsmAgent::Create("agent2", "ooint", "db2", fixture.s2).value();
  (void)PopulateGenealogy(&a1->store(), &a2->store(), families);
  (void)fsm->RegisterAgent(std::move(a1));
  (void)fsm->RegisterAgent(std::move(a2));
  (void)fsm->DeclareAssertions(fixture.assertion_text);
  return fsm;
}

Query UncleQuery(const FsmClient& client) {
  Query query(client.GlobalNameOf("S2", "uncle").value());
  query.Where("niece_nephew", Value::String("C1a"));
  query.Select("Ussn#", "who");
  return query;
}

void BM_ConcurrentDemandServing(benchmark::State& state) {
  // One shared demand-mode client; every benchmark thread re-asks the
  // warm query, so this measures the shared-locked cache-hit path under
  // contention. Thread-safe magic statics keep setup once-only.
  static std::unique_ptr<Fsm>* fsm = new std::unique_ptr<Fsm>(
      MakeFederation(/*families=*/64));
  static FsmClient* client = [] {
    FederationOptions options;
    options.query_mode = QueryMode::kDemandDriven;
    options.num_threads = 2;
    auto* c = new FsmClient(fsm->get());
    (void)c->Connect(Fsm::Strategy::kAccumulation, options);
    return c;
  }();
  const Query query = UncleQuery(*client);
  if (!client->Run(query).ok()) {  // warm the cache
    state.SkipWithError("query failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->Run(query).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cache_hits"] =
      static_cast<double>(client->query_cache_stats().hits);
}

BENCHMARK(BM_FetchBoundConnect)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_DeriveBoundFixpoint)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConcurrentDemandServing)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace ooint

BENCHMARK_MAIN();
