// Differential coverage for FactMatcher's in-place binding (DESIGN.md
// §4k, the row cost model): the matcher must emit exactly the rows, in
// exactly the order, of the copying matcher it replaced — kept below as
// the reference — through packed FactStore views. Hand-built cases pin
// each feature of O-term matching; a seeded sweep draws random
// patterns, facts and starting bindings. A second
// sweep drains the query stream's handle rows over a two-layer store (a
// segment plus an overlay), de-duplicates them as Query does and ranks
// them through a top-k pipeline, against the reference's Bindings. The
// last case runs Query and drains OpenQueryStream from four threads on
// one evaluated federation, since every match now mutates a working
// frame.

#include "rules/matcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "assertions/parser.h"
#include "common/topk.h"
#include "datamap/data_mapping.h"
#include "rules/evaluator.h"
#include "rules/fact_store.h"
#include "rules/result_pipeline.h"
#include "rules/rule_generator.h"
#include "test_util.h"
#include "workload/fixtures.h"

namespace ooint {
namespace {

using ::ooint::testing::ValueOrDie;

/// The matcher FactMatcher replaced: every descriptor copies the
/// bindings it extends, once per candidate value.
class CopyingMatcher {
 public:
  CopyingMatcher(FactMatcher::OidResolver resolver,
                 const DataMappingRegistry* mappings)
      : resolver_(resolver), values_(resolver, mappings) {}

  void MatchOTerm(const OTerm& pattern, const FactView& fact,
                  const Bindings& bindings, std::vector<Bindings>* out) const {
    Bindings base = bindings;
    switch (pattern.object.kind) {
      case TermArg::Kind::kConstant:
        if (pattern.object.constant.kind() != ValueKind::kOid ||
            !values_.ValuesEqual(pattern.object.constant,
                                 fact.oid_handle().Materialize())) {
          return;
        }
        break;
      case TermArg::Kind::kVariable: {
        Value oid_value = fact.oid_handle().Materialize();
        auto [slot, inserted] = base.emplace(pattern.object.var, oid_value);
        if (!inserted && !values_.ValuesEqual(slot->second, oid_value)) {
          return;
        }
        break;
      }
      case TermArg::Kind::kNested:
        return;
    }
    MatchDescriptors(pattern.attrs, 0, fact, base, out);
  }

 private:
  void MatchDescriptors(const std::vector<AttrDescriptor>& descriptors,
                        size_t index, const FactView& fact,
                        const Bindings& bindings,
                        std::vector<Bindings>* out) const {
    if (index == descriptors.size()) {
      out->push_back(bindings);
      return;
    }
    const AttrDescriptor& d = descriptors[index];
    if (d.attr_is_variable) {
      auto it = bindings.find(d.attribute);
      if (it != bindings.end()) {
        if (it->second.kind() != ValueKind::kString) return;
        const std::string& name = it->second.AsString();
        const ValueHandle stored = fact.Find(name);
        if (!stored.valid()) return;
        MatchAttr(descriptors, index, fact, name, stored, bindings, out);
        return;
      }
      for (size_t i = 0; i < fact.attr_count(); ++i) {
        MatchAttr(descriptors, index, fact, fact.attr_name(i),
                  fact.attr_value(i), bindings, out);
      }
      return;
    }
    const ValueHandle stored = fact.Find(d.attribute);
    if (!stored.valid()) return;
    MatchAttr(descriptors, index, fact, d.attribute, stored, bindings, out);
  }

  void MatchAttr(const std::vector<AttrDescriptor>& descriptors, size_t index,
                 const FactView& fact, std::string_view name,
                 const ValueHandle& stored, const Bindings& bindings,
                 std::vector<Bindings>* out) const {
    const AttrDescriptor& d = descriptors[index];
    Bindings base = bindings;
    if (d.attr_is_variable) {
      Value name_value = Value::String(std::string(name));
      auto [slot, inserted] = base.emplace(d.attribute, name_value);
      if (!inserted && slot->second != name_value) return;
    }
    const bool is_set = stored.kind() == ValueKind::kSet;
    const size_t candidate_count = is_set ? stored.set_size() : 1;
    for (size_t c = 0; c < candidate_count; ++c) {
      const ValueHandle candidate = is_set ? stored.set_element(c) : stored;
      Bindings next = base;
      switch (d.value.kind) {
        case TermArg::Kind::kConstant:
          if (!values_.ValuesEqual(d.value.constant, candidate)) continue;
          break;
        case TermArg::Kind::kVariable: {
          auto bound = next.find(d.value.var);
          if (bound != next.end()) {
            if (!values_.ValuesEqual(bound->second, candidate)) continue;
          } else {
            next.emplace(d.value.var, candidate.Materialize());
          }
          break;
        }
        case TermArg::Kind::kNested: {
          if (candidate.kind() != ValueKind::kOid || !resolver_) continue;
          const FactView target = resolver_(candidate.MaterializeOid());
          if (!target.valid()) continue;
          std::vector<Bindings> nested;
          MatchDescriptors(d.value.nested, 0, target, next, &nested);
          for (const Bindings& n : nested) {
            MatchDescriptors(descriptors, index + 1, fact, n, out);
          }
          continue;
        }
      }
      MatchDescriptors(descriptors, index + 1, fact, next, out);
    }
  }

  FactMatcher::OidResolver resolver_;
  FactMatcher values_;  // ValuesEqual only
};

std::string RowsToString(const std::vector<Bindings>& rows) {
  std::string text;
  for (const Bindings& row : rows) {
    text += "{";
    for (const auto& [var, value] : row) {
      text += var + "=" + value.ToString() + " ";
    }
    text += "}\n";
  }
  return text;
}

Oid MakeOid(const std::string& relation, std::uint64_t number) {
  return Oid("agent", "dbms", "db", relation, number);
}

Fact MakeFact(const std::string& concept_name, Oid oid,
              std::map<std::string, Value> attrs) {
  Fact fact;
  fact.concept_name = concept_name;
  fact.oid = std::move(oid);
  fact.attrs = std::move(attrs);
  return fact;
}

/// Facts for patterns to match ("C") and for nested descriptors to reach
/// ("D"), packed in one FactStore.
class World {
 public:
  World(const std::vector<Fact>& facts, const std::vector<Fact>& targets) {
    for (const Fact& f : facts) fact_ids_.push_back(store_.Insert(f));
    for (const Fact& t : targets) store_.Insert(t);
  }

  DataMappingRegistry* mappings() { return &mappings_; }

  /// Checks fact `i` against the reference and returns its rows.
  std::vector<Bindings> MatchFact(const OTerm& pattern, size_t i,
                                  const Bindings& bindings) const {
    const FactMatcher::OidResolver resolver = [this](const Oid& oid) {
      return store_.ViewByOid(oid);
    };
    std::vector<Bindings> rows;
    CheckAgainstReference(resolver, pattern, store_.ViewById(fact_ids_[i]),
                          bindings, &rows);
    return rows;
  }

  /// Rows over every fact, in fact order.
  std::vector<Bindings> MatchAll(const OTerm& pattern,
                                 const Bindings& bindings = {}) const {
    std::vector<Bindings> rows;
    for (size_t i = 0; i < fact_ids_.size(); ++i) {
      for (Bindings& row : MatchFact(pattern, i, bindings)) {
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }

 private:
  void CheckAgainstReference(const FactMatcher::OidResolver& resolver,
                             const OTerm& pattern, const FactView& fact,
                             const Bindings& bindings,
                             std::vector<Bindings>* rows) const {
    const FactMatcher matcher(resolver, &mappings_);
    const CopyingMatcher reference(resolver, &mappings_);
    // Rows already in `out` stay: both matchers only append.
    std::vector<Bindings> expected = {bindings};
    std::vector<Bindings> actual = {bindings};
    reference.MatchOTerm(pattern, fact, bindings, &expected);
    const CompiledOTerm compiled(pattern);
    MatchFrame frame;
    frame.Reset(&compiled, &bindings);
    matcher.Match(fact, &frame, [&](const MatchFrame& match) {
      actual.push_back(match.ToBindings());
    });
    EXPECT_EQ(actual, expected)
        << pattern.ToString() << "\nreference:\n"
        << RowsToString(expected) << "in place:\n"
        << RowsToString(actual);
    rows->assign(actual.begin() + 1, actual.end());
  }

  std::vector<FactId> fact_ids_;
  FactStore store_;
  DataMappingRegistry mappings_;
};

OTerm Pattern(TermArg object, std::vector<AttrDescriptor> attrs) {
  OTerm pattern;
  pattern.object = std::move(object);
  pattern.class_name = "C";
  pattern.attrs = std::move(attrs);
  return pattern;
}

AttrDescriptor Attr(const std::string& name, TermArg value) {
  return {name, false, std::move(value)};
}

AttrDescriptor NameVar(const std::string& var, TermArg value) {
  return {var, true, std::move(value)};
}

TermArg Var(const std::string& name) { return TermArg::Variable(name); }
TermArg Const(Value value) { return TermArg::Constant(std::move(value)); }

/// c0..c2 over targets d0, d1; "twin" 0 is d0 under the registry and
/// "alias" 0 is c0.
class MatcherFeatureTest : public ::testing::Test {
 protected:
  MatcherFeatureTest()
      : world_(
            {MakeFact("C", MakeOid("c", 0),
                      {{"p", Value::Integer(1)},
                       {"q", Value::String("q")},
                       {"r", Value::Set({Value::Integer(1), Value::Integer(2),
                                         Value::Integer(2)})},
                       {"s", Value::OfOid(MakeOid("d", 0))}}),
             MakeFact("C", MakeOid("c", 1),
                      {{"p", Value::Integer(2)},
                       {"q", Value::String("x")},
                       {"r", Value::Set({Value::String("p"),
                                         Value::Integer(3)})},
                       {"s", Value::OfOid(MakeOid("d", 1))}}),
             MakeFact("C", MakeOid("c", 2),
                      {{"p", Value::Integer(1)},
                       {"r", Value::Set({})},
                       {"s", Value::OfOid(MakeOid("twin", 0))}})},
            {MakeFact("D", MakeOid("d", 0),
                      {{"p", Value::Integer(1)}, {"q", Value::String("x")}}),
             MakeFact("D", MakeOid("d", 1),
                      {{"p", Value::Integer(2)},
                       {"q", Value::String("y")}})}) {
    world_.mappings()->DeclareSameObject(MakeOid("twin", 0), MakeOid("d", 0));
    world_.mappings()->DeclareSameObject(MakeOid("alias", 0), MakeOid("c", 0));
  }

  World world_;
};

TEST_F(MatcherFeatureTest, ConstantsSelectFacts) {
  const auto rows =
      world_.MatchAll(Pattern(Var("o"), {Attr("p", Const(Value::Integer(1)))}));
  ASSERT_EQ(rows.size(), 2u);  // c0 and c2
  EXPECT_EQ(rows[0].at("o"), Value::OfOid(MakeOid("c", 0)));
  EXPECT_TRUE(world_.MatchAll(Pattern(Var("o"), {Attr("absent", Var("v"))}))
                  .empty());
}

TEST_F(MatcherFeatureTest, VariableRepeatedAcrossDescriptors) {
  // p's value must also be an element of r: only c0 (p = 1, 1 ∈ r).
  const auto rows =
      world_.MatchAll(Pattern(Var("o"), {Attr("p", Var("v")),
                                         Attr("r", Var("v"))}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("v"), Value::Integer(1));
}

TEST_F(MatcherFeatureTest, NameVariableIsAlsoTheValueVariable) {
  // An attribute whose value spells its own name: c0's q = "q".
  const auto rows = world_.MatchAll(Pattern(Var("o"), {NameVar("n", Var("n"))}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("n"), Value::String("q"));
}

TEST_F(MatcherFeatureTest, SetValuedAttributesMatchElementWise) {
  // c0's r = {1, 2, 2} yields three rows, c1's two, c2's empty set none.
  const auto rows = world_.MatchAll(Pattern(Var("o"), {Attr("r", Var("e"))}));
  EXPECT_EQ(rows.size(), 5u);
}

TEST_F(MatcherFeatureTest, UnboundAndBoundAttributeNameVariables) {
  // Unbound: every attribute of every fact, set elements one by one:
  // c0 has 1 + 1 + 3 + 1, c1 1 + 1 + 2 + 1, c2 1 + 0 + 1.
  const OTerm pattern = Pattern(Var("o"), {NameVar("n", Var("v"))});
  EXPECT_EQ(world_.MatchAll(pattern).size(), 13u);
  // Bound to "p": one row per fact, which keeps the binding.
  const auto rows = world_.MatchAll(pattern, {{"n", Value::String("p")}});
  ASSERT_EQ(rows.size(), 3u);
  for (const Bindings& row : rows) EXPECT_EQ(row.at("n"), Value::String("p"));
  // Bound to a non-string: nothing can match.
  EXPECT_TRUE(world_.MatchAll(pattern, {{"n", Value::Integer(1)}}).empty());
}

TEST_F(MatcherFeatureTest, NestedDescriptorsFollowTheResolver) {
  const OTerm pattern = Pattern(
      Var("o"),
      {Attr("s", TermArg::Nested({Attr("p", Var("x")), Attr("q", Var("y"))})),
       Attr("p", Var("x"))});
  // c0 -> d0 (p 1 = c0's p 1) and c1 -> d1 (p 2 = 2); c2's twin OID has
  // no fact of its own to resolve.
  const auto rows = world_.MatchAll(pattern);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("y"), Value::String("x"));
  EXPECT_EQ(rows[1].at("y"), Value::String("y"));
}

TEST_F(MatcherFeatureTest, OidIdentityThroughTheMappingRegistry) {
  // The alias of c0 names c0, as an object constant and as a bound
  // object variable.
  EXPECT_EQ(
      world_.MatchAll(Pattern(Const(Value::OfOid(MakeOid("alias", 0))), {}))
          .size(),
      1u);
  EXPECT_EQ(world_
                .MatchAll(Pattern(Var("o"), {}),
                          {{"o", Value::OfOid(MakeOid("alias", 0))}})
                .size(),
            1u);
  // d0 and its twin are one object: c0 (s = d0) and c2 (s = twin 0).
  EXPECT_EQ(world_
                .MatchAll(Pattern(Var("o"), {Attr("s", Const(Value::OfOid(
                                                           MakeOid("twin", 0))))}))
                .size(),
            2u);
}

/// Draws values, facts, patterns and starting bindings from small pools,
/// so that repeats, name/value collisions and OID identities are common.
class RandomWorld {
 public:
  /// `all_reals` adds 0.0 and NaN to the reals drawn (0.5 and -0.0).
  explicit RandomWorld(std::uint64_t seed, bool all_reals = false)
      : rng_(seed), all_reals_(all_reals) {}

  Value DrawScalar() {
    switch (Pick(4)) {
      case 0:
        return Value::Integer(static_cast<std::int64_t>(Pick(3)));
      case 1:
        return Value::String(kNames[Pick(kNameCount)]);
      case 2:
        return Value::OfOid(MakeOid(Pick(3) == 0 ? "twin" : "d", Pick(3)));
      default:
        if (all_reals_) {
          static constexpr double kReals[] = {
              0.5, -0.0, 0.0, std::numeric_limits<double>::quiet_NaN()};
          return Value::Real(kReals[Pick(4)]);
        }
        return Value::Real(Pick(2) == 0 ? 0.5 : -0.0);
    }
  }

  Value DrawValue() {
    if (Pick(3) != 0) return DrawScalar();
    std::vector<Value> elements;
    const size_t n = Pick(4);
    for (size_t i = 0; i < n; ++i) elements.push_back(DrawScalar());
    return Value::Set(std::move(elements));
  }

  std::map<std::string, Value> DrawAttrs() {
    std::map<std::string, Value> attrs;
    for (size_t i = 0; i < kNameCount; ++i) {
      if (Pick(10) < 7) attrs.emplace(kNames[i], DrawValue());
    }
    return attrs;
  }

  TermArg DrawTerm(int depth) {
    const size_t roll = Pick(depth < 2 ? 9 : 7);
    if (roll < 3) return Var(kVars[Pick(kVarCount)]);
    if (roll < 7) return Const(DrawValue());
    std::vector<AttrDescriptor> nested;
    const size_t n = 1 + Pick(2);
    for (size_t i = 0; i < n; ++i) nested.push_back(DrawDescriptor(depth + 1));
    return TermArg::Nested(std::move(nested));
  }

  AttrDescriptor DrawDescriptor(int depth) {
    if (Pick(5) < 2) return NameVar(kVars[Pick(kVarCount)], DrawTerm(depth));
    return Attr(Pick(6) == 0 ? "absent" : kNames[Pick(kNameCount)],
                DrawTerm(depth));
  }

  OTerm DrawPattern() {
    TermArg object = Pick(5) == 0
                         ? Const(Value::OfOid(MakeOid(
                               Pick(2) == 0 ? "alias" : "c", Pick(4))))
                         : Var(Pick(4) == 0 ? "v1" : "o");
    std::vector<AttrDescriptor> attrs;
    const size_t n = Pick(4);
    for (size_t i = 0; i < n; ++i) attrs.push_back(DrawDescriptor(0));
    return Pattern(std::move(object), std::move(attrs));
  }

  Bindings DrawBindings() {
    Bindings bindings;
    if (Pick(2) == 0) return bindings;
    if (Pick(2) == 0) bindings.emplace("n1", Value::String(kNames[Pick(kNameCount)]));
    if (Pick(2) == 0) bindings.emplace("v1", DrawScalar());
    if (Pick(3) == 0) {
      bindings.emplace("o", Value::OfOid(MakeOid(Pick(2) == 0 ? "alias" : "c",
                                                 Pick(4))));
    }
    return bindings;
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  static constexpr const char* kNames[] = {"p", "q", "r"};
  static constexpr size_t kNameCount = 3;
  static constexpr const char* kVars[] = {"v1", "v2", "n1", "o"};
  static constexpr size_t kVarCount = 4;

 private:
  std::mt19937_64 rng_;
  bool all_reals_;
};

TEST(MatcherDifferentialTest, SeededPatternsMatchTheCopyingReference) {
  size_t rows_total = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    RandomWorld draw(seed);
    std::vector<Fact> facts;
    for (std::uint64_t i = 0; i < 4; ++i) {
      facts.push_back(MakeFact("C", MakeOid("c", i), draw.DrawAttrs()));
    }
    std::vector<Fact> targets;
    for (std::uint64_t i = 0; i < 3; ++i) {
      targets.push_back(MakeFact("D", MakeOid("d", i), draw.DrawAttrs()));
    }
    World world(facts, targets);
    world.mappings()->DeclareSameObject(MakeOid("twin", 1), MakeOid("d", 1));
    world.mappings()->DeclareSameObject(MakeOid("alias", 2), MakeOid("c", 2));
    for (int p = 0; p < 24; ++p) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " pattern " << p);
      const OTerm pattern = draw.DrawPattern();
      const Bindings bindings = draw.DrawBindings();
      rows_total += world.MatchAll(pattern, bindings).size();
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The sweep must exercise matching, not only mismatches.
  EXPECT_GT(rows_total, 1000u);
}

/// The C facts and D targets split over a segment and an overlay (the
/// demand sub-evaluator's shape). The overlay also re-states segment C
/// facts under their own OIDs with one more attribute, so one pattern
/// binds equal rows in both layers, and Query-style de-duplication has
/// to see equal values across the two layers' dictionaries.
class LayeredWorld {
 public:
  LayeredWorld(const std::vector<Fact>& segment_facts,
               const std::vector<Fact>& overlay_facts,
               const std::vector<Fact>& targets) {
    auto segment = std::make_shared<FactStore>();
    for (const Fact& f : segment_facts) segment->Insert(f);
    for (size_t i = 0; i < targets.size(); i += 2) segment->Insert(targets[i]);
    overlay_.AttachSegment(std::move(segment));
    for (const Fact& f : overlay_facts) overlay_.Insert(f);
    for (size_t i = 1; i < targets.size(); i += 2) overlay_.Insert(targets[i]);
  }

  DataMappingRegistry* mappings() { return &mappings_; }
  const FactStore& store() const { return overlay_; }

  FactMatcher::OidResolver Resolver() const {
    return [this](const Oid& oid) { return overlay_.ViewByOid(oid); };
  }

  /// Every C ordinal, in order: the scan a query without a probe makes.
  std::vector<std::uint32_t> Ordinals() const {
    std::vector<std::uint32_t> ordinals(overlay_.CountOf(Concept()));
    for (std::uint32_t i = 0; i < ordinals.size(); ++i) ordinals[i] = i;
    return ordinals;
  }
  ConceptId Concept() const { return overlay_.FindConcept("C"); }

  /// The copying reference's rows over the same views, in ordinal order.
  std::vector<Bindings> ReferenceRows(const OTerm& pattern) const {
    const CopyingMatcher reference(Resolver(), &mappings_);
    std::vector<Bindings> rows;
    for (const std::uint32_t ordinal : Ordinals()) {
      reference.MatchOTerm(pattern, overlay_.ViewAt(Concept(), ordinal), {},
                           &rows);
    }
    return rows;
  }

  QueryStream Stream(const OTerm& pattern) const {
    return QueryStream(pattern, FactMatcher(Resolver(), &mappings_),
                       &overlay_, nullptr, Concept(), Ordinals());
  }

 private:
  FactStore overlay_;
  DataMappingRegistry mappings_;
};

/// Query's de-duplication over Bindings, as the evaluator kept it before
/// rows became handles: a row is dropped when a kept row has the same
/// digest and compares equal.
std::vector<Bindings> ReferenceDistinct(const std::vector<Bindings>& rows) {
  std::vector<Bindings> kept;
  std::vector<std::uint64_t> digests;
  for (const Bindings& row : rows) {
    std::uint64_t digest = 0;
    for (const auto& [var, value] : row) {
      digest = HashCombine(digest, HashString(var));
      digest = HashCombine(digest, HashValue(value));
    }
    bool seen = false;
    for (size_t k = 0; k < kept.size() && !seen; ++k) {
      seen = digests[k] == digest && kept[k] == row;
    }
    if (seen) continue;
    kept.push_back(row);
    digests.push_back(digest);
  }
  return kept;
}

TEST(MatcherDifferentialTest, StreamRowsOverTwoLayersMatchTheReference) {
  size_t rows_total = 0;
  size_t deduped_total = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    RandomWorld draw(seed, /*all_reals=*/true);
    std::vector<Fact> segment_facts;
    for (std::uint64_t i = 0; i < 3; ++i) {
      segment_facts.push_back(MakeFact("C", MakeOid("c", i), draw.DrawAttrs()));
    }
    std::vector<Fact> overlay_facts;
    for (std::uint64_t i = 0; i < 2; ++i) {
      Fact restated = segment_facts[draw.Pick(segment_facts.size())];
      restated.attrs["s"] = draw.DrawValue();
      overlay_facts.push_back(std::move(restated));
    }
    overlay_facts.push_back(MakeFact("C", MakeOid("c", 3), draw.DrawAttrs()));
    std::vector<Fact> targets;
    for (std::uint64_t i = 0; i < 3; ++i) {
      targets.push_back(MakeFact("D", MakeOid("d", i), draw.DrawAttrs()));
    }
    LayeredWorld world(segment_facts, overlay_facts, targets);
    world.mappings()->DeclareSameObject(MakeOid("twin", 1), MakeOid("d", 1));
    world.mappings()->DeclareSameObject(MakeOid("alias", 2), MakeOid("c", 2));
    for (int p = 0; p < 24; ++p) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " pattern " << p);
      const OTerm pattern = draw.DrawPattern();
      const std::vector<Bindings> expected = world.ReferenceRows(pattern);

      // The stream's rows, materialized as Page rows are.
      QueryStream stream = world.Stream(pattern);
      std::vector<Bindings> streamed;
      Bindings row;
      while (stream.NextBindings(&row)) streamed.push_back(row);
      ASSERT_EQ(RowsToString(streamed), RowsToString(expected))
          << pattern.ToString();

      // Query's drain: distinct handle rows, built only at the end.
      QueryStream again = world.Stream(pattern);
      DistinctRows distinct(&again.vars());
      const ValueHandle* cells = nullptr;
      while (again.Next(&cells)) distinct.Insert(cells);
      const std::vector<Bindings> kept = distinct.TakeRows();
      ASSERT_EQ(RowsToString(kept), RowsToString(ReferenceDistinct(expected)))
          << pattern.ToString();

      // A distinct top-3 cursor over the stream ranks handle rows from
      // both layers as RowOrder ranks their Bindings.
      if (!again.vars().empty()) {
        PipelineSpec spec;
        spec.order_by = again.vars()[seed % again.vars().size()];
        spec.descending = p % 2 == 1;
        spec.limit = 3;
        const RowOrder order{spec.order_by, spec.descending};
        BoundedTopK<Bindings, RowOrder> reference(spec.limit, order);
        for (const Bindings& r : expected) reference.Push(r);
        ResultPipeline pipeline(
            std::make_unique<QueryStream>(pattern,
                                          FactMatcher(world.Resolver(),
                                                      world.mappings()),
                                          &world.store(), nullptr,
                                          world.Concept(), world.Ordinals()),
            spec);
        std::vector<Bindings> ranked;
        while (pipeline.Next(&row)) ranked.push_back(row);
        ASSERT_EQ(RowsToString(ranked), RowsToString(reference.TakeSorted()))
            << pattern.ToString() << " by " << spec.order_by;
      }
      rows_total += expected.size();
      deduped_total += expected.size() - kept.size();
    }
  }
  // The sweep must match rows, and equal rows across the layers.
  EXPECT_GT(rows_total, 1000u);
  EXPECT_GT(deduped_total, 100u);
}

/// A genealogy federation evaluated once, then read from four threads.
TEST(MatcherConcurrencyTest, ConcurrentQueriesAndStreamsOnOneFederation) {
  Fixture fixture = ValueOrDie(MakeGenealogyFixture());
  InstanceStore s1(&fixture.s1);
  s1.SetOidContext("agent1", "ooint", "S1db");
  InstanceStore s2(&fixture.s2);
  s2.SetOidContext("agent2", "ooint", "S2db");
  ASSERT_OK(PopulateGenealogy(&s1, &s2, /*num_families=*/24));
  Evaluator evaluator;
  evaluator.AddSource("S1", &s1);
  evaluator.AddSource("S2", &s2);
  ASSERT_OK(evaluator.BindConcept("IS(S1.parent)", "S1", "parent"));
  ASSERT_OK(evaluator.BindConcept("IS(S1.brother)", "S1", "brother"));
  ASSERT_OK(evaluator.BindConcept("IS(S2.uncle)", "S2", "uncle"));
  const Assertion assertion =
      ValueOrDie(AssertionParser::ParseOne(fixture.assertion_text));
  RuleGenerator generator;
  for (Rule& rule : ValueOrDie(generator.Generate(assertion))) {
    ASSERT_OK(evaluator.AddRule(std::move(rule)));
  }
  ASSERT_OK(evaluator.Evaluate());

  OTerm uncles;
  uncles.object = Var("u");
  uncles.class_name = "IS(S2.uncle)";
  uncles.attrs = {Attr("niece_nephew", Var("kid")), Attr("Ussn#", Var("who"))};
  OTerm schematic;  // every attribute of every brother, sets element-wise
  schematic.object = Var("b");
  schematic.class_name = "IS(S1.brother)";
  schematic.attrs = {NameVar("n", Var("v"))};
  const std::vector<OTerm> patterns = {uncles, schematic};

  // An empty drain on error: every reference answer below is non-empty.
  auto drain = [&](const OTerm& pattern) {
    std::vector<Bindings> rows;
    Result<std::unique_ptr<RowSource>> stream =
        evaluator.OpenQueryStream(pattern);
    if (!stream.ok()) return rows;
    Bindings row;
    while (stream.value()->NextBindings(&row)) rows.push_back(row);
    return rows;
  };
  std::vector<std::vector<Bindings>> answers;
  std::vector<std::vector<Bindings>> streams;
  for (const OTerm& pattern : patterns) {
    answers.push_back(ValueOrDie(evaluator.Query(pattern)));
    streams.push_back(drain(pattern));
  }
  ASSERT_EQ(answers[0].size(), 48u);  // one per child, two per family
  ASSERT_EQ(streams[0].size(), 48u);
  ASSERT_GE(answers[1].size(), 24u * 3);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const size_t i = static_cast<size_t>(t + round) % patterns.size();
        Result<std::vector<Bindings>> answer = evaluator.Query(patterns[i]);
        if (!answer.ok() || answer.value() != answers[i]) ++mismatches;
        if (drain(patterns[i]) != streams[i]) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ooint
