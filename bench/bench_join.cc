// Experiment E18: vectorized join kernels and the cost-based planner.
//
// Two derive-bound workloads, scaled by the number of base `hop` facts:
//
//  * Reach closure: reach(x,z) <= reach(x,y), hop(y,C,z) for four fixed
//    columns C, over a row/column graph. With y and the column bound,
//    `hop` is probed on TWO positions — decoding only the shorter
//    posting list would run the matcher on every candidate, while the
//    intersection kernel merges both lists and hands the matcher only
//    the (usually single) survivor. The picked
//    columns trace a Hamiltonian cycle over the rows, so 128 seeded
//    sources each walk the full cycle: the evaluation is derive-bound.
//  * Skewed join: out(y) <= big(x), small(x,y) where big has n rows and
//    small has four. Fixed SIP (and the connectivity SIP's delta
//    tie-break) enumerate big; the planner's cost override opens small.
//
// Each workload runs under two configurations: the default (kernels +
// cost-based planner) and kFixedSip (kernels, written order). Counters
// report the kernel telemetry (cursor_steps / merge_steps /
// gallop_steps / plan_reorders) surfaced through Stats.
//
// `bench_join --regression_check` skips the benchmarks and instead
// evaluates the reach closure at n = 512 once per configuration,
// failing (exit 1) when either derives other than kReachDerived facts
// or when the default run's deterministic join counters exceed their
// budgets — the guard scripts/check.sh runs in its bench-smoke step.
// Counters, unlike wall-clock ratios, do not move with the host.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "rules/evaluator.h"
#include "rules/planner.h"

namespace ooint {
namespace {

/// --regression_check's reach closure at n = 512: the derived fact
/// count every configuration must reproduce, and the default run's
/// join-counter budgets (its counts when the guard was written; a rise
/// means the kernels decode or intersect postings they used to skip).
constexpr size_t kReachDerived = 2808;
constexpr size_t kCursorStepsBudget = 472576;
constexpr size_t kMergeStepsBudget = 339840;
constexpr size_t kIndexProbesBudget = 20228;

/// Graph shape: kRows real rows, each with a wide fan of n/16 hops —
/// one into column 0 (the Hamiltonian cycle the closure walks), the
/// rest into odd columns no step rule ever probes. The kPickedColumns
/// probed columns are padded with hops from phantom rows the closure
/// never reaches, so their posting lists are long but intersect a real
/// row's fan in at most the one cycle hop: the kernel's merge discards
/// the rest of the fan in a few posting comparisons instead of
/// match-verifying it per rule per binding.
constexpr std::uint32_t kRows = 8;
constexpr std::uint32_t kColumns = 64;
constexpr std::uint32_t kPickedColumns = 4;
constexpr std::uint32_t kSources = 256;

Rule PredFact(const char* name, std::vector<std::int64_t> row) {
  Rule r;
  std::vector<TermArg> args;
  args.reserve(row.size());
  for (std::int64_t v : row) {
    args.push_back(TermArg::Constant(Value::Integer(v)));
  }
  r.head.push_back(Literal::OfPredicate(name, std::move(args)));
  return r;
}

/// A hop fact with a string payload column: candidate verification has
/// to unify the payload too, as real federated extents (§2 attribute
/// rows) would.
Rule HopFact(std::int64_t r, std::int64_t c, std::int64_t r2) {
  Rule rule = PredFact("hop", {r, c, r2});
  rule.head.front().args.push_back(TermArg::Constant(
      Value::String("edge-payload-" + std::to_string(r * 1000 + c))));
  return rule;
}

/// reach(x,z) <= reach(x,y), hop(y,C,z) for each picked column C, plus
/// the seed rule reach(x,y) <= src(x,y) and the base extents.
std::vector<Rule> MakeReachProgram(std::uint32_t n) {
  // n = 512 → fan 32, 64 postings per probed column; the hop extent
  // (fans + phantom padding) totals just under n facts.
  const std::uint32_t fan = n / 16;
  std::vector<Rule> program;
  program.reserve(n + kSources + kPickedColumns + 1);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    program.push_back(HopFact(r, 0, (r + 1) % kRows));  // the cycle hop
    for (std::uint32_t j = 1; j < fan; ++j) {
      // 17 is coprime with 32: the fan's odd columns are distinct per
      // row (for fan <= 32), so postings(hop, row) = fan.
      const std::uint32_t c = 1 + 2 * ((r * 5 + j * 17) % 32);
      program.push_back(HopFact(r, c, (r + j + 7) % kRows));
    }
  }
  // Phantom padding: every probed column gets 2*fan postings total,
  // from row ids the closure never visits.
  for (std::uint32_t i = 0; i < kPickedColumns; ++i) {
    const std::uint32_t c = i * (kColumns / kPickedColumns);
    const std::uint32_t pad = 2 * fan - (c == 0 ? kRows : 0);
    for (std::uint32_t p = 0; p < pad; ++p) {
      program.push_back(HopFact(10000 + c * 100 + p, c, 20000 + p));
    }
  }
  for (std::uint32_t s = 0; s < kSources; ++s) {
    program.push_back(PredFact("src", {s, s % kRows}));
  }

  Rule seed;
  seed.head.push_back(Literal::OfPredicate(
      "reach", {TermArg::Variable("x"), TermArg::Variable("y")}));
  seed.body.push_back(Literal::OfPredicate(
      "src", {TermArg::Variable("x"), TermArg::Variable("y")}));
  program.push_back(seed);

  for (std::uint32_t i = 0; i < kPickedColumns; ++i) {
    Rule step;
    step.head.push_back(Literal::OfPredicate(
        "reach", {TermArg::Variable("x"), TermArg::Variable("z")}));
    step.body.push_back(Literal::OfPredicate(
        "reach", {TermArg::Variable("x"), TermArg::Variable("y")}));
    step.body.push_back(Literal::OfPredicate(
        "hop",
        {TermArg::Variable("y"),
         TermArg::Constant(
             Value::Integer(i * (kColumns / kPickedColumns))),
         TermArg::Variable("z"), TermArg::Variable("w")}));
    program.push_back(step);
  }
  return program;
}

/// out(y) <= big(x), small(x,y): big has n rows, small has four.
std::vector<Rule> MakeSkewProgram(std::uint32_t n) {
  std::vector<Rule> program;
  program.reserve(n + 5);
  for (std::uint32_t i = 0; i < n; ++i) program.push_back(PredFact("big", {i}));
  for (std::uint32_t i = 0; i < 4; ++i) {
    program.push_back(PredFact("small", {i * (n / 4), i}));
  }
  Rule join;
  join.head.push_back(Literal::OfPredicate("out", {TermArg::Variable("y")}));
  join.body.push_back(Literal::OfPredicate("big", {TermArg::Variable("x")}));
  join.body.push_back(Literal::OfPredicate(
      "small", {TermArg::Variable("x"), TermArg::Variable("y")}));
  program.push_back(join);
  return program;
}

enum class Config { kDefault, kFixedSip };

/// One full evaluation of `program` under `config`; returns the stats.
Evaluator::Stats RunOnce(const std::vector<Rule>& program, Config config, bool* ok) {
  Evaluator evaluator;
  if (config == Config::kFixedSip) {
    evaluator.set_planner_mode(PlannerMode::kFixedSip);
  }
  for (const Rule& rule : program) {
    if (!evaluator.AddRule(rule).ok()) *ok = false;
  }
  if (!evaluator.Evaluate().ok()) *ok = false;
  return evaluator.stats();
}

void RunBench(benchmark::State& state, const std::vector<Rule>& program,
              Config config) {
  Evaluator::Stats stats;
  bool ok = true;
  for (auto _ : state) {
    stats = RunOnce(program, config, &ok);
    if (!ok) {
      state.SkipWithError("evaluation failed");
      return;
    }
  }
  state.counters["derived"] = static_cast<double>(stats.derived_facts);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["cursor_steps"] = static_cast<double>(stats.cursor_steps);
  state.counters["merge_steps"] = static_cast<double>(stats.merge_steps);
  state.counters["gallop_steps"] = static_cast<double>(stats.gallop_steps);
  state.counters["plan_reorders"] = static_cast<double>(stats.plan_reorders);
}

void BM_ReachClosure(benchmark::State& state) {
  RunBench(state, MakeReachProgram(static_cast<std::uint32_t>(state.range(0))),
           Config::kDefault);
}

void BM_ReachClosureFixedSip(benchmark::State& state) {
  RunBench(state, MakeReachProgram(static_cast<std::uint32_t>(state.range(0))),
           Config::kFixedSip);
}

void BM_SkewJoin(benchmark::State& state) {
  RunBench(state, MakeSkewProgram(static_cast<std::uint32_t>(state.range(0))),
           Config::kDefault);
}

void BM_SkewJoinFixedSip(benchmark::State& state) {
  RunBench(state, MakeSkewProgram(static_cast<std::uint32_t>(state.range(0))),
           Config::kFixedSip);
}

BENCHMARK(BM_ReachClosure)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReachClosureFixedSip)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkewJoin)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkewJoinFixedSip)->Arg(512)->Unit(benchmark::kMillisecond);

/// The regression guard: on the derive-bound reach closure at n = 512,
/// both configurations must derive kReachDerived facts, and the default
/// run's join counters must stay within their budgets.
int RunRegressionCheck() {
  const std::vector<Rule> program = MakeReachProgram(512);
  bool ok = true;
  const Evaluator::Stats planned = RunOnce(program, Config::kDefault, &ok);
  const Evaluator::Stats fixed_sip = RunOnce(program, Config::kFixedSip, &ok);
  if (!ok) {
    std::fprintf(stderr, "FAIL: evaluation error during regression check\n");
    return 1;
  }
  std::printf("bench_join regression check: reach closure n=512: derived "
              "%zu (fixed SIP %zu, expected %zu); cursor_steps %zu (budget "
              "%zu), merge_steps %zu (budget %zu), index_probes %zu "
              "(budget %zu)\n",
              planned.derived_facts, fixed_sip.derived_facts, kReachDerived,
              planned.cursor_steps, kCursorStepsBudget, planned.merge_steps,
              kMergeStepsBudget, planned.index_probes, kIndexProbesBudget);
  if (planned.derived_facts != kReachDerived ||
      fixed_sip.derived_facts != kReachDerived) {
    std::fprintf(stderr,
                 "FAIL: the reach closure must derive %zu facts under both "
                 "the cost-based planner and fixed SIP.\n",
                 kReachDerived);
    return 1;
  }
  if (planned.cursor_steps > kCursorStepsBudget ||
      planned.merge_steps > kMergeStepsBudget ||
      planned.index_probes > kIndexProbesBudget) {
    std::fprintf(stderr,
                 "FAIL: join counters exceed their budgets. Either fix the "
                 "regression or, if the workload changed intentionally, "
                 "update the budgets in bench/bench_join.cc and the E18 "
                 "table.\n");
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
