// Experiment E2 (Section 6.1, observations 1-4): how each assertion
// kind changes the optimized algorithm's pruning. Each benchmark runs
// the optimized integrator on a workload dominated by one assertion
// kind and reports the check/skip counters; the naive baseline runs on
// the same workloads for reference.
//
// `bench_labels --regression_check` skips the benchmarks and instead
// integrates each mix once at n = 255 (naive and optimized) and once at
// n = 1023 (optimized only), failing (exit 1) unless the pruning
// counters equal their checked-in values — the guard scripts/check.sh
// runs in its bench-smoke step. Counters, unlike wall-clock ratios, do
// not move with the host.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "integrate/integrator.h"
#include "integrate/naive_integrator.h"
#include "workload/generator.h"

namespace ooint {
namespace {

struct Workload {
  Schema s1{"S1"};
  Schema s2{"S2"};
  AssertionSet assertions;
};

/// One E2 assertion mix: the fraction of classes given each kind.
struct Mix {
  const char* name;
  double eq;
  double inc;
  double dis;
  double der;
};

constexpr Mix kAllEquivalent{"all-equivalent", 1.0, 0, 0, 0};
constexpr Mix kInclusionHeavy{"inclusion-heavy", 0.1, 0.9, 0, 0};
constexpr Mix kDisjointHeavy{"disjoint-heavy", 0.1, 0, 0.9, 0};
constexpr Mix kDerivationHeavy{"derivation-heavy", 0.1, 0, 0, 0.9};
constexpr Mix kNoAssertions{"no-assertions", 0.02, 0, 0, 0};
constexpr Mix kMixedRealistic{"mixed-realistic", 0.4, 0.3, 0.1, 0.1};

Workload MakeWorkload(size_t n, const Mix& kinds) {
  SchemaGenOptions options;
  options.num_classes = n;
  options.degree = 2;
  Workload w;
  w.s1 = GenerateSchema(options).value();
  w.s2 = GenerateCounterpartSchema(w.s1, "S2", "d").value();
  AssertionGenOptions mix;
  mix.equivalence_fraction = kinds.eq;
  mix.inclusion_fraction = kinds.inc;
  mix.disjoint_fraction = kinds.dis;
  mix.derivation_fraction = kinds.der;
  w.assertions = GenerateAssertions(w.s1, w.s2, "c", "d", mix).value();
  return w;
}

void Report(benchmark::State& state, const IntegrationStats& optimized,
            const IntegrationStats& naive) {
  state.counters["pairs_opt"] = static_cast<double>(optimized.pairs_checked);
  state.counters["pairs_naive"] = static_cast<double>(naive.pairs_checked);
  state.counters["label_skips"] =
      static_cast<double>(optimized.pairs_skipped_by_labels);
  state.counters["sibling_removed"] =
      static_cast<double>(optimized.sibling_pairs_removed);
  state.counters["dfs_steps"] = static_cast<double>(optimized.dfs_steps);
  state.counters["saving"] =
      naive.pairs_checked == 0
          ? 0.0
          : 1.0 - static_cast<double>(optimized.pairs_checked) /
                      static_cast<double>(naive.pairs_checked);
}

void RunMix(benchmark::State& state, const Mix& kinds) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload w = MakeWorkload(n, kinds);
  IntegrationStats optimized;
  IntegrationStats naive;
  for (auto _ : state) {
    optimized = Integrator::Integrate(w.s1, w.s2, w.assertions)
                    .value()
                    .stats;
    naive = NaiveIntegrator::Integrate(w.s1, w.s2, w.assertions)
                .value()
                .stats;
  }
  Report(state, optimized, naive);
}

void BM_AllEquivalent(benchmark::State& state) {
  RunMix(state, kAllEquivalent);
}
void BM_InclusionHeavy(benchmark::State& state) {
  RunMix(state, kInclusionHeavy);
}
void BM_DisjointHeavy(benchmark::State& state) {
  RunMix(state, kDisjointHeavy);
}
void BM_DerivationHeavy(benchmark::State& state) {
  RunMix(state, kDerivationHeavy);
}
void BM_NoAssertions(benchmark::State& state) {
  RunMix(state, kNoAssertions);
}
void BM_MixedRealistic(benchmark::State& state) {
  RunMix(state, kMixedRealistic);
}

BENCHMARK(BM_AllEquivalent)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InclusionHeavy)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DisjointHeavy)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DerivationHeavy)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoAssertions)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MixedRealistic)->Arg(255)->Arg(1023)
    ->Unit(benchmark::kMillisecond);

/// The optimized integrator's pruning counters on one workload.
struct Pruning {
  size_t pairs;
  size_t skips;
  size_t removed;
  size_t dfs_steps;
};

/// --regression_check's expected counters per mix: the values when the
/// guard was written (the E2 table in EXPERIMENTS.md).
struct Expected {
  const Mix* mix;
  Pruning at_255;
  Pruning at_1023;
};

constexpr Expected kExpected[] = {
    {&kAllEquivalent, {255, 0, 254, 0}, {1023, 0, 1022, 0}},
    {&kInclusionHeavy, {63592, 249, 44, 251}, {1038772, 1041, 182, 1023}},
    {&kDisjointHeavy, {63761, 0, 8, 0}, {1041417, 0, 16, 0}},
    {&kDerivationHeavy, {64014, 0, 8, 0}, {1042438, 0, 16, 0}},
    {&kNoAssertions, {64517, 0, 2, 0}, {1044467, 0, 36, 0}},
    {&kMixedRealistic, {63541, 82, 118, 144}, {1039710, 831, 510, 602}},
};

/// Integrates `kinds` at size `n` and compares the optimized run's
/// counters (and, when `with_naive`, the naive run's n² pair checks)
/// with `expected`; prints one line either way.
bool CheckMix(const Mix& kinds, size_t n, const Pruning& expected,
              bool with_naive) {
  const Workload w = MakeWorkload(n, kinds);
  const IntegrationStats stats =
      Integrator::Integrate(w.s1, w.s2, w.assertions).value().stats;
  const Pruning got{stats.pairs_checked, stats.pairs_skipped_by_labels,
                    stats.sibling_pairs_removed, stats.dfs_steps};
  bool ok = got.pairs == expected.pairs && got.skips == expected.skips &&
            got.removed == expected.removed &&
            got.dfs_steps == expected.dfs_steps;
  std::printf("  %-16s n=%-4zu pairs %zu (expected %zu), skips %zu (%zu), "
              "removed %zu (%zu), dfs steps %zu (%zu)",
              kinds.name, n, got.pairs, expected.pairs, got.skips,
              expected.skips, got.removed, expected.removed, got.dfs_steps,
              expected.dfs_steps);
  if (with_naive) {
    const size_t naive_pairs =
        NaiveIntegrator::Integrate(w.s1, w.s2, w.assertions)
            .value()
            .stats.pairs_checked;
    std::printf(", naive pairs %zu (%zu)", naive_pairs, n * n);
    ok = ok && naive_pairs == n * n;
  }
  std::printf("%s\n", ok ? "" : "  <- MISMATCH");
  return ok;
}

/// The regression guard over every mix.
int RunRegressionCheck() {
  std::printf("bench_labels regression check (E2 pruning counters):\n");
  bool ok = true;
  for (const Expected& expected : kExpected) {
    ok = CheckMix(*expected.mix, 255, expected.at_255, /*with_naive=*/true) &&
         ok;
    ok = CheckMix(*expected.mix, 1023, expected.at_1023,
                  /*with_naive=*/false) &&
         ok;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: E2 pruning counters moved. Either fix the "
                 "regression or, if the algorithm changed intentionally, "
                 "update kExpected in bench/bench_labels.cc and the E2 "
                 "table in EXPERIMENTS.md.\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace ooint

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regression_check") == 0) {
      return ooint::RunRegressionCheck();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
