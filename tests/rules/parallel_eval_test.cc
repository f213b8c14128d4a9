// A thread pool must be invisible to evaluation: it only overlaps
// extent fetches, so with a pool attached Evaluate()/EvaluateDemand()
// derive exactly the fact sets — and report exactly the counters — the
// serial evaluator does, on flat derivations, on recursion, and run
// after run. Concurrent Query() calls against one evaluated store must
// also agree with serial reads.

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assertions/parser.h"
#include "common/thread_pool.h"
#include "rules/evaluator.h"
#include "rules/rule_generator.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

std::set<std::string> CanonicalKeys(const std::vector<const Fact*>& facts) {
  std::set<std::string> out;
  for (const Fact* f : facts) out.insert(f->CanonicalKey());
  return out;
}

Rule PredFact(const std::string& name, std::vector<Value> row) {
  Rule r;
  std::vector<TermArg> args;
  args.reserve(row.size());
  for (Value& v : row) args.push_back(TermArg::Constant(std::move(v)));
  r.head.push_back(Literal::OfPredicate(name, std::move(args)));
  return r;
}

// path(x, y) <= edge(x, y).
// path(x, z) <= edge(x, y), path(y, z).
std::vector<Rule> PathClosureRules() {
  std::vector<Rule> rules;
  Rule base;
  base.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("x"), TermArg::Variable("y")}));
  base.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("x"), TermArg::Variable("y")}));
  rules.push_back(std::move(base));
  Rule step;
  step.head.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("x"), TermArg::Variable("z")}));
  step.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("x"), TermArg::Variable("y")}));
  step.body.push_back(Literal::OfPredicate(
      "path", {TermArg::Variable("y"), TermArg::Variable("z")}));
  rules.push_back(std::move(step));
  return rules;
}

struct GenealogyWorld {
  Fixture fixture;
  std::unique_ptr<InstanceStore> s1_store;
  std::unique_ptr<InstanceStore> s2_store;
  std::vector<Rule> rules;
};

GenealogyWorld MakeGenealogyWorld(size_t families) {
  GenealogyWorld world{ValueOrDie(MakeGenealogyFixture()), nullptr, nullptr,
                       {}};
  world.s1_store = std::make_unique<InstanceStore>(&world.fixture.s1);
  world.s2_store = std::make_unique<InstanceStore>(&world.fixture.s2);
  EXPECT_OK(PopulateGenealogy(world.s1_store.get(), world.s2_store.get(),
                              families));
  const AssertionSet assertions =
      ValueOrDie(AssertionParser::Parse(world.fixture.assertion_text));
  RuleGenerator generator;
  world.rules = ValueOrDie(
      generator.Generate(*assertions.AllDerivations().front()));
  return world;
}

Evaluator MakeGenealogyEvaluator(const GenealogyWorld& world, int threads) {
  Evaluator evaluator;
  if (threads > 1) {
    evaluator.set_thread_pool(std::make_shared<ThreadPool>(threads));
  }
  evaluator.AddSource("S1", world.s1_store.get());
  evaluator.AddSource("S2", world.s2_store.get());
  EXPECT_OK(evaluator.BindConcept("IS(S1.parent)", "S1", "parent"));
  EXPECT_OK(evaluator.BindConcept("IS(S1.brother)", "S1", "brother"));
  EXPECT_OK(evaluator.BindConcept("IS(S2.uncle)", "S2", "uncle"));
  for (const Rule& rule : world.rules) EXPECT_OK(evaluator.AddRule(rule));
  return evaluator;
}

constexpr const char* kGenealogyConcepts[] = {"IS(S1.parent)",
                                              "IS(S1.brother)",
                                              "IS(S2.uncle)"};

TEST(ParallelEvalTest, GenealogyMatchesSerial) {
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/25);
  Evaluator serial = MakeGenealogyEvaluator(world, 1);
  ASSERT_OK(serial.Evaluate());
  for (int threads : {2, 4, 8}) {
    Evaluator parallel = MakeGenealogyEvaluator(world, threads);
    EXPECT_EQ(parallel.thread_count(), threads);
    ASSERT_OK(parallel.Evaluate());
    for (const char* c : kGenealogyConcepts) {
      EXPECT_EQ(CanonicalKeys(parallel.FactsOf(c)),
                CanonicalKeys(serial.FactsOf(c)))
          << c << " with " << threads << " threads";
    }
    EXPECT_EQ(parallel.stats().derived_facts, serial.stats().derived_facts);
  }
}

TEST(ParallelEvalTest, PoolLeavesEvaluationCountersUnchanged) {
  // The fixpoint runs on the calling thread whatever the pool size, so
  // every round and join counter is the serial evaluator's.
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/25);
  Evaluator serial = MakeGenealogyEvaluator(world, 1);
  ASSERT_OK(serial.Evaluate());
  const Evaluator::Stats& expected = serial.stats();
  for (int threads : {2, 4, 8}) {
    Evaluator parallel = MakeGenealogyEvaluator(world, threads);
    ASSERT_OK(parallel.Evaluate());
    const Evaluator::Stats& got = parallel.stats();
    EXPECT_EQ(got.iterations, expected.iterations) << threads << " threads";
    EXPECT_EQ(got.rule_applications, expected.rule_applications)
        << threads << " threads";
    EXPECT_EQ(got.delta_sizes, expected.delta_sizes) << threads << " threads";
    EXPECT_EQ(got.index_probes, expected.index_probes)
        << threads << " threads";
    EXPECT_EQ(got.cursor_steps, expected.cursor_steps)
        << threads << " threads";
    EXPECT_EQ(got.derived_facts, expected.derived_facts)
        << threads << " threads";
  }
}

TEST(ParallelEvalTest, RecursiveClosureMatchesSerial) {
  // The same chain+cycle workload the serial differential suite uses:
  // recursion exercises the semi-naive delta windows.
  std::vector<Rule> facts;
  for (int i = 1; i < 12; ++i) {
    facts.push_back(PredFact("edge", {Value::String("n" + std::to_string(i)),
                                      Value::String("n" +
                                                    std::to_string(i + 1))}));
  }
  facts.push_back(
      PredFact("edge", {Value::String("n3"), Value::String("n20")}));
  facts.push_back(
      PredFact("edge", {Value::String("n20"), Value::String("n21")}));
  facts.push_back(
      PredFact("edge", {Value::String("n21"), Value::String("n3")}));

  auto run = [&](int threads) {
    Evaluator evaluator;
    if (threads > 1) {
      evaluator.set_thread_pool(std::make_shared<ThreadPool>(threads));
    }
    for (const Rule& fact : facts) EXPECT_OK(evaluator.AddRule(fact));
    for (const Rule& rule : PathClosureRules()) {
      EXPECT_OK(evaluator.AddRule(rule));
    }
    EXPECT_OK(evaluator.Evaluate());
    return CanonicalKeys(evaluator.FactsOf("path"));
  };
  const std::set<std::string> serial_paths = run(1);
  ASSERT_GT(serial_paths.size(), facts.size());
  for (int threads : {2, 4}) {
    EXPECT_EQ(run(threads), serial_paths) << threads << " threads";
  }
}

TEST(ParallelEvalTest, DeterministicAcrossRuns) {
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/10);
  std::set<std::string> first;
  for (int run = 0; run < 3; ++run) {
    Evaluator evaluator = MakeGenealogyEvaluator(world, 4);
    ASSERT_OK(evaluator.Evaluate());
    std::set<std::string> keys;
    for (const char* c : kGenealogyConcepts) {
      const std::set<std::string> concept_keys =
          CanonicalKeys(evaluator.FactsOf(c));
      keys.insert(concept_keys.begin(), concept_keys.end());
    }
    if (run == 0) {
      first = std::move(keys);
    } else {
      EXPECT_EQ(keys, first) << "run " << run;
    }
  }
}

TEST(ParallelEvalTest, DemandEvaluationMatchesSerial) {
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/8);
  Evaluator serial = MakeGenealogyEvaluator(world, 1);
  Evaluator parallel = MakeGenealogyEvaluator(world, 4);

  OTerm goal;
  goal.object = TermArg::Variable("_self");
  goal.class_name = "IS(S2.uncle)";
  goal.attrs.push_back({"niece_nephew", false, TermArg::Variable("kid")});

  const Evaluator::DemandOutcome serial_outcome =
      ValueOrDie(serial.EvaluateDemand(goal));
  const Evaluator::DemandOutcome parallel_outcome =
      ValueOrDie(parallel.EvaluateDemand(goal));
  EXPECT_EQ(CanonicalKeys(parallel_outcome.sub->FactsOf(goal.class_name)),
            CanonicalKeys(serial_outcome.sub->FactsOf(goal.class_name)));
  EXPECT_EQ(parallel_outcome.rows.size(), serial_outcome.rows.size());
  EXPECT_EQ(parallel.PlanDemand(goal).program.applied,
            serial.PlanDemand(goal).program.applied);
}

TEST(ParallelEvalTest, ConcurrentQueriesAgreeWithSerialReads) {
  const GenealogyWorld world = MakeGenealogyWorld(/*families=*/12);
  Evaluator evaluator = MakeGenealogyEvaluator(world, 2);
  ASSERT_OK(evaluator.Evaluate());

  OTerm pattern;
  pattern.object = TermArg::Variable("_self");
  pattern.class_name = "IS(S2.uncle)";
  pattern.attrs.push_back({"niece_nephew", false, TermArg::Variable("kid")});
  const std::vector<Bindings> expected = ValueOrDie(evaluator.Query(pattern));
  ASSERT_FALSE(expected.empty());

  std::vector<std::thread> readers;
  std::vector<size_t> row_counts(8, 0);
  for (size_t t = 0; t < row_counts.size(); ++t) {
    readers.emplace_back([&evaluator, &pattern, &row_counts, t] {
      for (int i = 0; i < 20; ++i) {
        Result<std::vector<Bindings>> rows = evaluator.Query(pattern);
        if (!rows.ok()) return;  // leaves row_counts[t] wrong -> test fails
        row_counts[t] = rows.value().size();
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (size_t count : row_counts) EXPECT_EQ(count, expected.size());
}

}  // namespace
}  // namespace ooint
