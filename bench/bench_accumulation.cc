// Experiment E8 (Fig. 2): integrating N > 2 component schemas with the
// accumulation strategy (a) versus the balanced strategy (b). Each
// schema is a small workforce schema whose central class is equivalent
// across all N databases; chained pairwise assertions drive the rounds.
//
// BM_IntegrateConnectWorld times the integrate layer of one e2ebench
// connect: Fsm::IntegrateAll on a generated 32-class counterpart pair
// with the connect world's generator options (EXPERIMENTS E26).

#include <benchmark/benchmark.h>

#include "common/string_util.h"
#include "federation/fsm.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

/// An Fsm with one agent per fixture schema and the fixture's
/// assertions declared.
void SetUpFsm(Fsm* fsm, const FederationFixture& fixture) {
  for (size_t i = 0; i < fixture.schemas.size(); ++i) {
    (void)fsm->RegisterAgent(
        FsmAgent::Create(StrCat("agent", i), "ooint", StrCat("db", i),
                         fixture.schemas[i])
            .value());
  }
  (void)fsm->DeclareAssertions(fixture.assertion_text);
}

void RunStrategy(benchmark::State& state, Fsm::Strategy strategy) {
  const size_t schemas = static_cast<size_t>(state.range(0));
  Fsm fsm;
  SetUpFsm(&fsm, MakeWorkforceFederation(schemas).value());
  size_t rounds = 0;
  size_t pairs = 0;
  size_t classes = 0;
  for (auto _ : state) {
    const GlobalSchema global = fsm.IntegrateAll(strategy).value();
    rounds = global.rounds;
    pairs = global.total_stats.pairs_checked;
    classes = global.schema.NumClasses();
    benchmark::DoNotOptimize(global);
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["global_classes"] = static_cast<double>(classes);
}

void BM_Accumulation(benchmark::State& state) {
  RunStrategy(state, Fsm::Strategy::kAccumulation);
}

void BM_Balanced(benchmark::State& state) {
  RunStrategy(state, Fsm::Strategy::kBalanced);
}

BENCHMARK(BM_Accumulation)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Balanced)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_IntegrateConnectWorld(benchmark::State& state) {
  Fsm fsm;
  SetUpFsm(&fsm, MakeCounterpartFederation(32, /*seed=*/8).value());
  size_t pairs = 0;
  size_t rules = 0;
  for (auto _ : state) {
    const GlobalSchema global = fsm.IntegrateAll().value();
    pairs = global.total_stats.pairs_checked;
    rules = global.rules.size();
    benchmark::DoNotOptimize(global);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["rules"] = static_cast<double>(rules);
}

BENCHMARK(BM_IntegrateConnectWorld)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ooint

BENCHMARK_MAIN();
