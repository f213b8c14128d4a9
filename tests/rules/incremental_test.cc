// Unit tests for the counting/DRed incremental maintenance engine
// (rules/incremental.h): every batch must leave the live fact set
// identical to a from-scratch fixpoint over the current base state.
// The randomized cross-layer version of this contract is conformance
// family 10 (delta-vs-rebuild); these tests pin the deletion edge
// cases the paper-level workloads rarely hit.

#include "rules/incremental.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/instance_store.h"
#include "rules/evaluator.h"
#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

Fact Edge(const std::string& from, const std::string& to) {
  Fact f;
  f.concept_name = "edge";
  f.attrs["0"] = Value::String(from);
  f.attrs["1"] = Value::String(to);
  return f;
}

Fact Pred1(const std::string& name, int x) {
  Fact f;
  f.concept_name = name;
  f.attrs["0"] = Value::Integer(x);
  return f;
}

Fact Pred2(const std::string& name, int x, int y) {
  Fact f = Pred1(name, x);
  f.attrs["1"] = Value::Integer(y);
  return f;
}

// path(x, y) <= edge(x, y).
// path(x, z) <= edge(x, y), path(y, z)   — linear recursion.
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

// p(x) <= q(x), ¬r(x)  — one negation, two strata.
std::vector<Rule> NegationRules() {
  Rule rule;
  rule.head.push_back(Literal::OfPredicate("p", {TermArg::Variable("x")}));
  rule.body.push_back(Literal::OfPredicate("q", {TermArg::Variable("x")}));
  rule.body.push_back(
      Literal::OfPredicate("r", {TermArg::Variable("x")}, /*negated=*/true));
  return {std::move(rule)};
}

// A maintained evaluator plus the test's own mirror of the base
// multiset, so any point-in-time state can be rebuilt from scratch.
struct World {
  explicit World(std::vector<Rule> rules) : rules(std::move(rules)) {}

  void Adopt(std::vector<Fact> base_facts) {
    base = std::move(base_facts);
    for (const Rule& r : rules) ASSERT_OK(ev.AddRule(r));
    for (const Fact& f : base) ev.AddFact(f);
    inc = ValueOrDie(IncrementalEvaluator::Adopt(&ev));
  }

  DeltaMaintenanceStats Apply(const BaseDelta& delta) {
    // Mirror the delta into the base multiset (inserts before deletes;
    // a delete removes one occurrence, unmatched deletes are no-ops).
    for (const Fact& f : delta.inserts) base.push_back(f);
    for (const Fact& f : delta.deletes) {
      const std::string key = f.CanonicalKey();
      for (auto it = base.begin(); it != base.end(); ++it) {
        if (it->CanonicalKey() == key) {
          base.erase(it);
          break;
        }
      }
    }
    return ValueOrDie(inc->ApplyBaseDelta(delta));
  }

  std::set<std::string> LiveKeys(const std::vector<std::string>& concepts) {
    std::set<std::string> out;
    for (const std::string& c : concepts) {
      for (const Fact* f : ev.FactsOf(c)) out.insert(f->CanonicalKey());
    }
    return out;
  }

  // From-scratch oracle over the current base multiset.
  std::set<std::string> RebuildKeys(const std::vector<std::string>& concepts) {
    Evaluator fresh;
    for (const Rule& r : rules) EXPECT_OK(fresh.AddRule(r));
    for (const Fact& f : base) fresh.AddFact(f);
    EXPECT_OK(fresh.Evaluate());
    std::set<std::string> out;
    for (const std::string& c : concepts) {
      for (const Fact* f : fresh.FactsOf(c)) out.insert(f->CanonicalKey());
    }
    return out;
  }

  void ExpectMatchesRebuild(const std::vector<std::string>& concepts) {
    EXPECT_EQ(LiveKeys(concepts), RebuildKeys(concepts));
  }

  std::vector<Rule> rules;
  std::vector<Fact> base;
  Evaluator ev;
  std::unique_ptr<IncrementalEvaluator> inc;
};

const std::vector<std::string> kPathConcepts = {"edge", "path"};
const std::vector<std::string> kNegConcepts = {"p", "q", "r"};

TEST(IncrementalTest, AdoptMatchesFromScratchEvaluate) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("b", "c"), Edge("c", "d")});
  w.ExpectMatchesRebuild(kPathConcepts);
  // a→b→c→d: 3 edges, 6 paths.
  EXPECT_EQ(w.ev.FactsOf("path").size(), 6u);
}

TEST(IncrementalTest, InsertExtendsRecursiveClosure) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("c", "d")});
  BaseDelta delta;
  delta.inserts.push_back(Edge("b", "c"));  // joins the two fragments
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kPathConcepts);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 6u);
  EXPECT_EQ(stats.base_inserted, 1u);
  EXPECT_GT(stats.facts_inserted, 1u);  // the edge plus new paths
}

TEST(IncrementalTest, DeleteRetractsDependentPaths) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("b", "c"), Edge("c", "d")});
  BaseDelta delta;
  delta.deletes.push_back(Edge("b", "c"));
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kPathConcepts);
  // Only a→b and c→d survive.
  EXPECT_EQ(w.ev.FactsOf("path").size(), 2u);
  EXPECT_EQ(stats.base_deleted, 1u);
  EXPECT_GT(stats.facts_deleted, 1u);
}

TEST(IncrementalTest, DeleteOfNeverInsertedFactIsNoop) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b")});
  const std::set<std::string> before = w.LiveKeys(kPathConcepts);
  BaseDelta delta;
  delta.deletes.push_back(Edge("x", "y"));  // never existed
  delta.deletes.push_back(Pred1("ghost", 7));  // unknown concept
  const DeltaMaintenanceStats stats = w.Apply(delta);
  EXPECT_EQ(stats.noop_deletes, 2u);
  EXPECT_EQ(stats.base_deleted, 0u);
  EXPECT_EQ(stats.facts_deleted, 0u);
  EXPECT_EQ(w.LiveKeys(kPathConcepts), before);
  w.ExpectMatchesRebuild(kPathConcepts);
}

TEST(IncrementalTest, DeleteOfDerivedOnlyFactIsNoop) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b")});
  // path(a,b) is derived, not base: deleting it as a base fact is a
  // no-op (there is no base support to retract).
  Fact derived_path;
  derived_path.concept_name = "path";
  derived_path.attrs["0"] = Value::String("a");
  derived_path.attrs["1"] = Value::String("b");
  BaseDelta delta;
  delta.deletes.push_back(derived_path);
  const DeltaMaintenanceStats stats = w.Apply(delta);
  EXPECT_EQ(stats.noop_deletes, 1u);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 1u);
}

TEST(IncrementalTest, InsertThenDeleteSameBatchIsNetNoop) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b")});
  const std::set<std::string> before = w.LiveKeys(kPathConcepts);
  BaseDelta delta;
  delta.inserts.push_back(Edge("b", "c"));
  delta.deletes.push_back(Edge("b", "c"));  // cancels within the batch
  const DeltaMaintenanceStats stats = w.Apply(delta);
  EXPECT_EQ(stats.base_inserted, 1u);
  EXPECT_EQ(stats.base_deleted, 1u);
  EXPECT_EQ(stats.facts_inserted, 0u);
  EXPECT_EQ(stats.facts_deleted, 0u);
  EXPECT_EQ(w.LiveKeys(kPathConcepts), before);
  w.ExpectMatchesRebuild(kPathConcepts);
}

TEST(IncrementalTest, DuplicateBaseSupportNeedsTwoDeletes) {
  World w(PathClosureRules());
  // The same edge inserted twice (e.g. two concept bindings): one
  // delete drops one support, the fact stays live.
  w.Adopt({Edge("a", "b"), Edge("a", "b")});
  BaseDelta first;
  first.deletes.push_back(Edge("a", "b"));
  w.Apply(first);
  EXPECT_EQ(w.ev.FactsOf("edge").size(), 1u);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 1u);
  BaseDelta second;
  second.deletes.push_back(Edge("a", "b"));
  w.Apply(second);
  EXPECT_EQ(w.ev.FactsOf("edge").size(), 0u);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 0u);
  w.ExpectMatchesRebuild(kPathConcepts);
}

TEST(IncrementalTest, RevivingASetValuedBaseFactKeepsTheStoreFlat) {
  // Every revival re-inserts the stored fact: its set attribute must
  // not leave a new run behind each time.
  World w(PathClosureRules());
  Fact tagged = Edge("a", "b");
  tagged.attrs["tags"] = Value::Set(
      {Value::String("x"), Value::Set({Value::Integer(1), Value::Integer(2)})});
  w.Adopt({tagged, Edge("b", "c")});
  BaseDelta remove;
  remove.deletes.push_back(tagged);
  BaseDelta revive;
  revive.inserts.push_back(tagged);
  w.Apply(remove);
  w.Apply(revive);
  const size_t after_first = w.ev.fact_store().memory().packed_total();
  for (int i = 1; i < 200; ++i) {
    w.Apply(remove);
    EXPECT_EQ(w.ev.FactsOf("path").size(), 1u);
    w.Apply(revive);
  }
  EXPECT_EQ(w.ev.fact_store().memory().packed_total(), after_first);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 3u);
  w.ExpectMatchesRebuild(kPathConcepts);
}

TEST(IncrementalTest, AlternateDerivationSurvivesOverDeletion) {
  // Diamond: a→b directly and a→m→b. Deleting edge(a,b) over-deletes
  // path(a,b) (recursive concept, lost support), but the a→m→b
  // derivation revives it.
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("a", "m"), Edge("m", "b"), Edge("b", "c")});
  BaseDelta delta;
  delta.deletes.push_back(Edge("a", "b"));
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kPathConcepts);
  // Every path survives except none: a→b still holds via m.
  EXPECT_GT(stats.overdeleted, 0u);
  EXPECT_GT(stats.rederived, 0u);
  std::set<std::string> live = w.LiveKeys({"path"});
  bool has_ab = false;
  for (const std::string& key : live) {
    if (key.find("\"a\"") != std::string::npos &&
        key.find("\"b\"") != std::string::npos) {
      has_ab = true;
    }
  }
  EXPECT_TRUE(has_ab || !live.empty());
  EXPECT_EQ(w.ev.FactsOf("path").size(), w.RebuildKeys({"path"}).size());
}

TEST(IncrementalTest, CycleDiesWhenitsEdgeGoes) {
  // x→y→z→x: deleting one cycle edge must kill the paths that only a
  // derivation loop supports — the classic case counting alone gets
  // wrong and DRed exists for.
  World w(PathClosureRules());
  w.Adopt({Edge("x", "y"), Edge("y", "z"), Edge("z", "x")});
  EXPECT_EQ(w.ev.FactsOf("path").size(), 9u);  // all pairs on a cycle
  BaseDelta delta;
  delta.deletes.push_back(Edge("z", "x"));
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kPathConcepts);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 3u);  // x→y, y→z, x→z
  EXPECT_GT(stats.overdeleted, 0u);
}

TEST(IncrementalTest, NegationFlipOnInsert) {
  // Inserting r(1) makes ¬r(1) false: p(1) must die.
  World w(NegationRules());
  w.Adopt({Pred1("q", 1), Pred1("q", 2), Pred1("r", 2)});
  EXPECT_EQ(w.ev.FactsOf("p").size(), 1u);  // p(1) only
  BaseDelta delta;
  delta.inserts.push_back(Pred1("r", 1));
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kNegConcepts);
  EXPECT_EQ(w.ev.FactsOf("p").size(), 0u);
  EXPECT_EQ(stats.facts_deleted, 1u);
}

TEST(IncrementalTest, NegationFlipOnDelete) {
  // Deleting r(2) frees ¬r(2): p(2) must appear.
  World w(NegationRules());
  w.Adopt({Pred1("q", 1), Pred1("q", 2), Pred1("r", 2)});
  BaseDelta delta;
  delta.deletes.push_back(Pred1("r", 2));
  const DeltaMaintenanceStats stats = w.Apply(delta);
  w.ExpectMatchesRebuild(kNegConcepts);
  EXPECT_EQ(w.ev.FactsOf("p").size(), 2u);
  EXPECT_GE(stats.facts_inserted, 1u);
}

TEST(IncrementalTest, NegationFlipAndMatterChangeTogether) {
  // One batch both inserts q(3) (gains p(3)) and inserts r(1) (kills
  // p(1)) and deletes q(2) (kills p(2)) — flips and ordinary deltas in
  // the same round structure.
  World w(NegationRules());
  w.Adopt({Pred1("q", 1), Pred1("q", 2)});
  EXPECT_EQ(w.ev.FactsOf("p").size(), 2u);
  BaseDelta delta;
  delta.inserts.push_back(Pred1("q", 3));
  delta.inserts.push_back(Pred1("r", 1));
  delta.deletes.push_back(Pred1("q", 2));
  w.Apply(delta);
  w.ExpectMatchesRebuild(kNegConcepts);
  EXPECT_EQ(w.ev.FactsOf("p").size(), 1u);  // p(3) only
}

TEST(IncrementalTest, FlipsOfTwoRulesAtOnePositionKeepTheirOwnPlans) {
  // hA(x) <= a(x), ¬na(x), a2(x).
  // hB(y) <= ¬nd(y), ¬nb(x), c(x, y).
  // Deleting na(1) and nb(5) in one batch flips a negation at body
  // position 1 of both rules; each flip solve must replay a plan of its
  // own rule (hB opens with the pinned nb fact, then c binds y before
  // ¬nd(y) is checked).
  Rule a_rule;
  a_rule.head.push_back(Literal::OfPredicate("hA", {TermArg::Variable("x")}));
  a_rule.body.push_back(Literal::OfPredicate("a", {TermArg::Variable("x")}));
  a_rule.body.push_back(Literal::OfPredicate("na", {TermArg::Variable("x")},
                                             /*negated=*/true));
  a_rule.body.push_back(Literal::OfPredicate("a2", {TermArg::Variable("x")}));
  Rule b_rule;
  b_rule.head.push_back(Literal::OfPredicate("hB", {TermArg::Variable("y")}));
  b_rule.body.push_back(Literal::OfPredicate("nd", {TermArg::Variable("y")},
                                             /*negated=*/true));
  b_rule.body.push_back(Literal::OfPredicate("nb", {TermArg::Variable("x")},
                                             /*negated=*/true));
  b_rule.body.push_back(Literal::OfPredicate(
      "c", {TermArg::Variable("x"), TermArg::Variable("y")}));
  World w({a_rule, b_rule});
  w.Adopt({Pred1("a", 1), Pred1("a2", 1), Pred1("na", 1), Pred2("c", 5, 7),
           Pred1("nb", 5), Pred1("nd", 99)});
  EXPECT_TRUE(w.ev.FactsOf("hA").empty());
  EXPECT_TRUE(w.ev.FactsOf("hB").empty());
  BaseDelta delta;
  delta.deletes.push_back(Pred1("na", 1));
  delta.deletes.push_back(Pred1("nb", 5));
  w.Apply(delta);
  w.ExpectMatchesRebuild({"hA", "hB"});
  EXPECT_EQ(w.ev.FactsOf("hA").size(), 1u);
  EXPECT_EQ(w.ev.FactsOf("hB").size(), 1u);  // hB(7)
}

TEST(IncrementalTest, RevivedFactReenablesNegationAndClosure) {
  // Random interleaving stress in miniature: several batches over both
  // programs' shapes, rebuilt after every batch.
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("b", "c"), Edge("c", "a")});
  const std::vector<BaseDelta> batches = [] {
    std::vector<BaseDelta> out(4);
    out[0].deletes.push_back(Edge("c", "a"));
    out[0].inserts.push_back(Edge("c", "d"));
    out[1].inserts.push_back(Edge("d", "a"));  // re-closes the loop
    out[2].deletes.push_back(Edge("a", "b"));
    out[2].deletes.push_back(Edge("b", "c"));
    out[3].inserts.push_back(Edge("a", "b"));
    return out;
  }();
  for (const BaseDelta& delta : batches) {
    w.Apply(delta);
    w.ExpectMatchesRebuild(kPathConcepts);
  }
}

TEST(IncrementalTest, EmptiedAndRefilledExistenceExtentMatchesRebuild) {
  // p(x) <= a(x), b(y) and path(x, z) <= edge(x, y), path(y, z), on(w):
  // b and on share no variable with the rest of their rules (existence
  // components, DESIGN.md 4c), so a p fact has one derivation per b fact
  // and a step path one per on fact. The engine must count all of them:
  // emptying b and on retracts exactly what they gated, on the
  // recursive concept too, refilling them brings it back, and a fact
  // derived while two witnesses exist survives losing one of them.
  std::vector<Rule> rules = PathClosureRules();
  rules[1].body.push_back(
      Literal::OfPredicate("on", {TermArg::Variable("w")}));
  Rule p;
  p.head.push_back(Literal::OfPredicate("p", {TermArg::Variable("x")}));
  p.body.push_back(Literal::OfPredicate("a", {TermArg::Variable("x")}));
  p.body.push_back(Literal::OfPredicate("b", {TermArg::Variable("y")}));
  rules.push_back(std::move(p));
  World w(std::move(rules));
  w.Adopt({Pred1("a", 1), Pred1("a", 2), Pred1("b", 10), Pred1("b", 11),
           Edge("a", "b"), Edge("b", "c"), Edge("c", "a"), Pred1("on", 1),
           Pred1("on", 2)});
  const std::vector<std::string> concepts = {"p", "path"};
  w.ExpectMatchesRebuild(concepts);
  EXPECT_EQ(w.ev.FactsOf("path").size(), 9u);

  std::vector<BaseDelta> batches(5);
  batches[0].deletes = {Pred1("b", 10), Pred1("on", 1)};
  batches[1].deletes = {Pred1("b", 11), Pred1("on", 2)};  // both empty
  batches[2].inserts = {Pred1("b", 12), Pred1("b", 13), Pred1("on", 3),
                        Pred1("on", 4)};  // refilled, two witnesses each
  batches[3].inserts = {Pred1("a", 3), Edge("c", "d")};
  batches[4].deletes = {Pred1("b", 12), Pred1("on", 3)};  // one remains
  const std::vector<size_t> p_sizes = {2, 0, 2, 3, 3};
  const std::vector<size_t> path_sizes = {9, 3, 9, 12, 12};
  for (size_t i = 0; i < batches.size(); ++i) {
    w.Apply(batches[i]);
    w.ExpectMatchesRebuild(concepts);
    EXPECT_EQ(w.ev.FactsOf("p").size(), p_sizes[i]) << "batch " << i;
    EXPECT_EQ(w.ev.FactsOf("path").size(), path_sizes[i]) << "batch " << i;
  }
}

TEST(IncrementalTest, ExtentDeltaTranslatesThroughSubclassBindings) {
  // An object of a subclass feeds every binding bound to an ancestor
  // class, exactly as a from-scratch extent load would.
  Schema schema("S1");
  ClassDef person("person");
  person.AddAttribute("name", ValueKind::kString);
  ASSERT_OK(schema.AddClass(std::move(person)).status());
  ClassDef student("student");
  student.AddAttribute("name", ValueKind::kString);
  ASSERT_OK(schema.AddClass(std::move(student)).status());
  ASSERT_OK(schema.AddIsA("student", "person"));
  ASSERT_OK(schema.Finalize());
  InstanceStore store(&schema);
  store.SetOidContext("agent1", "ooint", "db");

  Object* ann = ValueOrDie(store.NewObject("person"));
  ann->Set("name", Value::String("ann"));

  Evaluator ev;
  ev.AddSource("S1", &store);
  ASSERT_OK(ev.BindConcept("IS(S1.person)", "S1", "person"));
  ASSERT_OK(ev.BindConcept("IS(S1.student)", "S1", "student"));
  std::unique_ptr<IncrementalEvaluator> inc =
      ValueOrDie(IncrementalEvaluator::Adopt(&ev));
  EXPECT_EQ(ev.FactsOf("IS(S1.person)").size(), 1u);
  EXPECT_EQ(ev.FactsOf("IS(S1.student)").size(), 0u);

  // Live insert of a student: lands in both the student binding and —
  // through the is-a — the person binding.
  Object* bob = ValueOrDie(store.NewObject("student"));
  bob->Set("name", Value::String("bob"));
  DeltaMaintenanceStats stats =
      ValueOrDie(inc->ApplyExtentDelta("S1", {*bob}, {}));
  EXPECT_EQ(stats.base_inserted, 2u);
  EXPECT_EQ(ev.FactsOf("IS(S1.person)").size(), 2u);
  EXPECT_EQ(ev.FactsOf("IS(S1.student)").size(), 1u);

  // Live removal (pre-removal copy drives the delta).
  const Object removed = *bob;
  ASSERT_OK(store.Remove(removed.oid()));
  stats = ValueOrDie(inc->ApplyExtentDelta("S1", {}, {removed}));
  EXPECT_EQ(stats.base_deleted, 2u);
  EXPECT_EQ(ev.FactsOf("IS(S1.person)").size(), 1u);
  EXPECT_EQ(ev.FactsOf("IS(S1.student)").size(), 0u);
}

TEST(IncrementalTest, QueryAndStatsSeeOnlyLiveFacts) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b"), Edge("b", "c")});
  BaseDelta delta;
  delta.deletes.push_back(Edge("b", "c"));
  w.Apply(delta);
  // Query() must not surface dead paths.
  OTerm pattern;
  pattern.object = TermArg::Variable("_o");
  pattern.class_name = "path";
  const std::vector<Bindings> rows = ValueOrDie(w.ev.Query(pattern));
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(w.ev.stats().base_facts, 1u);
  EXPECT_EQ(w.ev.stats().derived_facts, 1u);
  EXPECT_EQ(w.inc->live_count(), 2u);
}

TEST(IncrementalTest, CumulativeStatsAccumulateAcrossBatches) {
  World w(PathClosureRules());
  w.Adopt({Edge("a", "b")});
  EXPECT_EQ(w.inc->cumulative().batches, 0u);  // initial load not counted
  BaseDelta d1;
  d1.inserts.push_back(Edge("b", "c"));
  w.Apply(d1);
  BaseDelta d2;
  d2.deletes.push_back(Edge("b", "c"));
  w.Apply(d2);
  EXPECT_EQ(w.inc->cumulative().batches, 2u);
  EXPECT_EQ(w.inc->cumulative().base_inserted, 1u);
  EXPECT_EQ(w.inc->cumulative().base_deleted, 1u);
  EXPECT_FALSE(w.inc->cumulative().ToString().empty());
}

TEST(IncrementalTest, DecrementBugLeavesStaleFacts) {
  // The harness's mutation check in miniature: with the injected
  // off-by-one (the last derivation never retracts), a deletion leaves
  // the delta store strictly larger than a rebuild — the divergence
  // family 10 must catch. The program is non-recursive: recursive
  // concepts go through DRed, which over-deletes on any lost support
  // regardless of counts, so only exact-counting concepts expose the
  // decrement path.
  Rule copy;
  copy.head.push_back(Literal::OfPredicate(
      "reach", {TermArg::Variable("x"), TermArg::Variable("y")}));
  copy.body.push_back(Literal::OfPredicate(
      "edge", {TermArg::Variable("x"), TermArg::Variable("y")}));
  IncrementalEvaluator::set_decrement_bug_for_testing(true);
  World w({copy});
  w.Adopt({Edge("a", "b"), Edge("b", "c")});
  BaseDelta delta;
  delta.deletes.push_back(Edge("b", "c"));
  w.Apply(delta);
  const std::set<std::string> live = w.LiveKeys({"edge", "reach"});
  const std::set<std::string> rebuilt = w.RebuildKeys({"edge", "reach"});
  IncrementalEvaluator::set_decrement_bug_for_testing(false);
  // reach(b, c) outlives its only derivation.
  EXPECT_NE(live, rebuilt);
  EXPECT_GT(live.size(), rebuilt.size());
}

}  // namespace
}  // namespace ooint
