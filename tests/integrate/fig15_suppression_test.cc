// Fig. 15 / observation 1 (Section 6.1), deterministically: after
// N1 ≡ N2 matches, the sibling pairs (N1, M2j) and (M1i, N2) are
// removed from S_b without being checked — "the semantic
// correspondences between each pair of pa1 can be derived".

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "assertions/parser.h"
#include "integrate/integrator.h"
#include "integrate/naive_integrator.h"
#include "integrate/trace.h"
#include "model/schema_parser.h"
#include "test_util.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

TEST(Fig15SuppressionTest, SiblingPairsAreRemovedAfterEquivalence) {
  // S1: r1 ⊃ {A, B};  S2: r2 ⊃ {C, D};  r1 ≡ r2 and A ≡ C.
  Schema s1("S1");
  for (const char* n : {"r1", "A", "B"}) {
    ASSERT_OK(s1.AddClass(ClassDef(n)).status());
  }
  ASSERT_OK(s1.AddIsA("A", "r1"));
  ASSERT_OK(s1.AddIsA("B", "r1"));
  ASSERT_OK(s1.Finalize());
  Schema s2("S2");
  for (const char* n : {"r2", "C", "D"}) {
    ASSERT_OK(s2.AddClass(ClassDef(n)).status());
  }
  ASSERT_OK(s2.AddIsA("C", "r2"));
  ASSERT_OK(s2.AddIsA("D", "r2"));
  ASSERT_OK(s2.Finalize());

  AssertionSet assertions;
  auto equate = [&](const char* a, const char* b) {
    Assertion assertion;
    assertion.lhs = {{"S1", a}};
    assertion.rel = SetRel::kEquivalent;
    assertion.rhs = {"S2", b};
    ASSERT_OK(assertions.Add(std::move(assertion)));
  };
  equate("r1", "r2");
  equate("A", "C");

  IntegrationTrace trace;
  const IntegrationOutcome outcome = ValueOrDie(
      Integrator::Integrate(s1, s2, assertions, nullptr, &trace));

  // (A, C) matched ≡ → its sibling pairs were suppressed.
  EXPECT_EQ(trace.events()[trace.IndexOf(TraceEvent::Kind::kCase,
                                         "(A, C)")].detail,
            "==");
  EXPECT_TRUE(trace.Contains(TraceEvent::Kind::kSuppressSibling, "(A, D)"));
  EXPECT_TRUE(trace.Contains(TraceEvent::Kind::kSuppressSibling, "(B, C)"));
  // And those pairs were never *checked*.
  EXPECT_EQ(trace.IndexOf(TraceEvent::Kind::kCase, "(A, D)"), -1);
  EXPECT_EQ(trace.IndexOf(TraceEvent::Kind::kCase, "(B, C)"), -1);
  // (B, D) remains checked — nothing is derivable about it.
  EXPECT_GE(trace.IndexOf(TraceEvent::Kind::kCase, "(B, D)"), 0);
  EXPECT_EQ(outcome.stats.sibling_pairs_removed, 2u);
  // The derived relationships still hold in the result: IS(B) sits
  // below the merged root, as does IS(D).
  const auto closure = outcome.schema.IsAClosure();
  EXPECT_TRUE(closure.count({outcome.schema.NameOf({"S1", "B"}),
                             outcome.schema.NameOf({"S1", "r1"})}));
  EXPECT_TRUE(closure.count({outcome.schema.NameOf({"S2", "D"}),
                             outcome.schema.NameOf({"S2", "r2"})}));
}

TEST(Fig15SuppressionTest, OrderIndependenceOfTheEquivalenceMatch) {
  // If the diagonal pair pops later (C is the second child), the
  // suppression set changes but the integrated schema does not.
  Schema s1("S1");
  for (const char* n : {"r1", "A", "B"}) {
    ASSERT_OK(s1.AddClass(ClassDef(n)).status());
  }
  ASSERT_OK(s1.AddIsA("A", "r1"));
  ASSERT_OK(s1.AddIsA("B", "r1"));
  ASSERT_OK(s1.Finalize());
  Schema s2("S2");
  for (const char* n : {"r2", "D", "C"}) {  // reversed declaration order
    ASSERT_OK(s2.AddClass(ClassDef(n)).status());
  }
  ASSERT_OK(s2.AddIsA("C", "r2"));
  ASSERT_OK(s2.AddIsA("D", "r2"));
  ASSERT_OK(s2.Finalize());

  AssertionSet assertions;
  for (const auto& [a, b] :
       std::vector<std::pair<const char*, const char*>>{{"r1", "r2"},
                                                        {"A", "C"}}) {
    Assertion assertion;
    assertion.lhs = {{"S1", a}};
    assertion.rel = SetRel::kEquivalent;
    assertion.rhs = {"S2", b};
    ASSERT_OK(assertions.Add(std::move(assertion)));
  }
  const IntegrationOutcome outcome =
      ValueOrDie(Integrator::Integrate(s1, s2, assertions));
  EXPECT_NE(outcome.schema.FindClass("IS(S1.A,S2.C)"), nullptr);
  EXPECT_EQ(outcome.schema.classes().size(), 4u);  // 2 merged + 2 copies
}

TEST(Fig15SuppressionTest, EquivalenceStillChecksExplicitAssertionsBelowIt) {
  // The shrunk conformance seed 5212: c0 ≡ d0 matches, and a derivation
  // relates d0 to c6, two levels below c0. Child-with-child scheduling
  // never pairs c6 with the childless d0, yet the derivation is not
  // implied by the equivalence — its rule must still be generated.
  const Schema s1 = ValueOrDie(SchemaParser::Parse(R"(
    schema S1 {
      class c0 { key: string; }
      class c4 { key: string; }
      class c6 { key: string; }
      is_a(c4, c0);
      is_a(c6, c4);
    }
  )"));
  const Schema s2 = ValueOrDie(SchemaParser::Parse(R"(
    schema S2 {
      class d0 { key: string; }
    }
  )"));
  const AssertionSet assertions = ValueOrDie(AssertionParser::Parse(R"(
    assert S1.c0 == S2.d0 {
      attr: S1.c0.key == S2.d0.key;
    }
    assert S2.d0 -> S1.c6 {
      attr: S2.d0.key == S1.c6.key;
    }
  )"));
  IntegrationTrace trace;
  const IntegrationOutcome optimized = ValueOrDie(
      Integrator::Integrate(s1, s2, assertions, nullptr, &trace));
  const IntegrationOutcome naive =
      ValueOrDie(NaiveIntegrator::Integrate(s1, s2, assertions));
  EXPECT_GE(trace.IndexOf(TraceEvent::Kind::kCase, "(c6, d0)"), 0);
  std::multiset<std::string> optimized_rules;
  for (const Rule& rule : optimized.schema.rules()) {
    optimized_rules.insert(rule.ToString());
  }
  std::multiset<std::string> naive_rules;
  for (const Rule& rule : naive.schema.rules()) {
    naive_rules.insert(rule.ToString());
  }
  EXPECT_EQ(optimized_rules, naive_rules);
  EXPECT_EQ(optimized_rules.count(
                "<_o: IS(S1.c6) | key: x1> <= <o2: IS(S1.c0,S2.d0) | key: x1>"),
            1u);
  // Nothing else was pruned: the gate of conformance family 2 holds.
  EXPECT_EQ(optimized.stats.pairs_skipped_by_labels, 0u);
  EXPECT_EQ(optimized.stats.sibling_pairs_removed, 0u);
}

std::multiset<std::string> RuleTexts(const IntegrationOutcome& outcome) {
  std::multiset<std::string> out;
  for (const Rule& rule : outcome.schema.rules()) out.insert(rule.ToString());
  return out;
}

TEST(Fig15SuppressionTest, InclusionStillChecksExplicitDerivationsBelowIt) {
  // The shrunk soak seed 20261018281, in both directions: an inclusion
  // between c0 and d4 hands its label to every class below its subset
  // side, so (c3, d4) is never checked — child-with-child scheduling
  // does not pair it, and the label guard would skip it. Yet the
  // explicit derivation on that pair is not implied by the inclusion,
  // and its rule must still be generated.
  const Schema s1 = ValueOrDie(SchemaParser::Parse(R"(
    schema S1 {
      class c0 { key: string; }
      class c1 { key: string; }
      class c3 { key: string; }
      is_a(c1, c0);
      is_a(c3, c1);
    }
  )"));
  const Schema s2 = ValueOrDie(SchemaParser::Parse(R"(
    schema S2 {
      class d4 { key: string; }
    }
  )"));
  struct Case {
    const Schema* first;
    const Schema* second;
    const char* assertions;
    const char* pair;
    const char* rule;
  };
  const Case cases[] = {
      {&s1, &s2, R"(
        assert S1.c0 <= S2.d4;
        assert S1.c3 -> S2.d4 {
          attr: S1.c3.key == S2.d4.key;
        }
      )",
       "(c3, d4)", "<_o: IS(S2.d4) | key: x1> <= <o2: IS(S1.c3) | key: x1>"},
      // The mirror image: integrating S2 first makes it d4 ⊇ c0, and
      // the labelled subtree hangs below the second schema's class.
      {&s2, &s1, R"(
        assert S2.d4 >= S1.c0;
        assert S2.d4 -> S1.c3 {
          attr: S2.d4.key == S1.c3.key;
        }
      )",
       "(d4, c3)", "<_o: IS(S1.c3) | key: x1> <= <o2: IS(S2.d4) | key: x1>"},
  };
  for (const Case& c : cases) {
    const AssertionSet assertions =
        ValueOrDie(AssertionParser::Parse(c.assertions));
    IntegrationTrace trace;
    const IntegrationOutcome optimized = ValueOrDie(Integrator::Integrate(
        *c.first, *c.second, assertions, nullptr, &trace));
    const IntegrationOutcome naive = ValueOrDie(
        NaiveIntegrator::Integrate(*c.first, *c.second, assertions));
    EXPECT_EQ(RuleTexts(optimized), RuleTexts(naive)) << c.rule;
    EXPECT_EQ(RuleTexts(optimized).count(c.rule), 1u) << c.rule;
    // The step trace accounts for the rule: the hidden pair's case.
    const int cs = trace.IndexOf(TraceEvent::Kind::kCase, c.pair);
    ASSERT_GE(cs, 0) << c.pair;
    EXPECT_EQ(trace.events()[cs].detail, "->") << c.pair;
  }
}

}  // namespace
}  // namespace ooint
