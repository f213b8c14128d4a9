#include "harness/conformance.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "common/admission.h"
#include "common/cancel.h"
#include "common/string_util.h"
#include "common/topk.h"
#include "federation/agent_connection.h"
#include "federation/explain.h"
#include "federation/fault_injector.h"
#include "federation/fsm.h"
#include "federation/fsm_agent.h"
#include "federation/fsm_client.h"
#include "integrate/consistency.h"
#include "integrate/integrator.h"
#include "integrate/naive_integrator.h"
#include "model/schema_parser.h"
#include "rules/magic.h"
#include "rules/ref_fact_store.h"
#include "workload/generator.h"
#include "workload/populator.h"

namespace ooint {
namespace harness {

namespace {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

const char* OracleFamilyName(OracleFamily family) {
  switch (family) {
    case OracleFamily::kConsistency:
      return "consistency";
    case OracleFamily::kIntegratorAgreement:
      return "integrator-agreement";
    case OracleFamily::kEvaluatorAgreement:
      return "evaluator-agreement";
    case OracleFamily::kMetamorphic:
      return "metamorphic";
    case OracleFamily::kPartialAnswers:
      return "partial-answers";
    case OracleFamily::kDemandQuery:
      return "demand-query";
    case OracleFamily::kParallelSerial:
      return "parallel-vs-serial";
    case OracleFamily::kStoreDifferential:
      return "store-differential";
    case OracleFamily::kOverload:
      return "overload";
    case OracleFamily::kDeltaRebuild:
      return "delta-rebuild";
    case OracleFamily::kServing:
      return "serving";
    case OracleFamily::kPlannerSip:
      return "planner-vs-fixed-sip";
  }
  return "?";
}

std::string OracleOutcome::ToString() const {
  std::vector<std::string> families;
  for (OracleFamily f : ran) families.push_back(OracleFamilyName(f));
  std::string out = StrCat("ran {", Join(families, ", "), "}");
  if (failures.empty()) return out + ", all properties held";
  out += StrCat(", ", failures.size(), " failure(s):\n");
  for (const std::string& f : failures) out += "  - " + f + "\n";
  return out;
}

Result<ConcreteCase> MakeCase(std::uint64_t seed,
                              const CaseOptions& options) {
  if (options.max_classes < 3) {
    return Status::InvalidArgument("max_classes must be at least 3");
  }
  ConcreteCase c;
  c.seed = seed;

  SchemaGenOptions o1;
  o1.name = "S1";
  o1.class_prefix = "c";
  o1.num_classes = 3 + Draw(seed, 1) % (options.max_classes - 2);
  o1.shape = (Draw(seed, 2) % 2 == 0) ? IsAShape::kCompleteTree
                                      : IsAShape::kRandomDag;
  o1.degree = 2 + Draw(seed, 3) % 3;
  o1.max_parents = 1 + Draw(seed, 4) % 2;
  o1.attrs_per_class = 1 + Draw(seed, 5) % 3;
  o1.with_aggregations = Draw(seed, 6) % 2 == 0;
  o1.seed = Draw(seed, 7);
  OOINT_ASSIGN_OR_RETURN(c.s1, GenerateSchema(o1));

  const bool counterpart_mode = Draw(seed, 8) % 2 == 0;
  c.counterpart = counterpart_mode;
  AssertionSet set;
  if (counterpart_mode) {
    OOINT_ASSIGN_OR_RETURN(c.s2,
                           GenerateCounterpartSchema(c.s1, "S2", "d"));
    // A handful of curated mixes: the §6.3 all-equivalent setting plus
    // mixed-kind and inclusion-heavy regimes.
    struct Mix {
      double eq, inc, dis, der;
    };
    static const Mix kMixes[] = {{1.0, 0.0, 0.0, 0.0},
                                 {0.5, 0.3, 0.1, 0.1},
                                 {0.3, 0.3, 0.2, 0.2},
                                 {0.2, 0.6, 0.0, 0.2},
                                 {0.6, 0.0, 0.2, 0.2}};
    const Mix& mix = kMixes[Draw(seed, 9) % 5];
    AssertionGenOptions ao;
    ao.equivalence_fraction = mix.eq;
    ao.inclusion_fraction = mix.inc;
    ao.disjoint_fraction = mix.dis;
    ao.derivation_fraction = mix.der;
    ao.aggregation_correspondences =
        o1.with_aggregations && Draw(seed, 10) % 2 == 0;
    ao.seed = Draw(seed, 11);
    OOINT_ASSIGN_OR_RETURN(set,
                           GenerateAssertions(c.s1, c.s2, "c", "d", ao));
  } else {
    SchemaGenOptions o2;
    o2.name = "S2";
    o2.class_prefix = "d";
    o2.num_classes = 3 + Draw(seed, 12) % (options.max_classes - 2);
    o2.shape = (Draw(seed, 13) % 2 == 0) ? IsAShape::kCompleteTree
                                         : IsAShape::kRandomDag;
    o2.degree = 2 + Draw(seed, 14) % 3;
    o2.max_parents = 1 + Draw(seed, 15) % 2;
    o2.attrs_per_class = 1 + Draw(seed, 16) % 3;
    o2.with_aggregations = o1.with_aggregations;
    o2.seed = Draw(seed, 17);
    OOINT_ASSIGN_OR_RETURN(c.s2, GenerateSchema(o2));

    struct Mix {
      double eq, inc, ovl, dis, der;
    };
    static const Mix kMixes[] = {{0.3, 0.2, 0.1, 0.1, 0.1},
                                 {0.5, 0.2, 0.0, 0.0, 0.1},
                                 {0.2, 0.2, 0.2, 0.2, 0.2},
                                 {0.1, 0.5, 0.1, 0.1, 0.1}};
    const Mix& mix = kMixes[Draw(seed, 18) % 4];
    RandomAssertionGenOptions ro;
    ro.equivalence_fraction = mix.eq;
    ro.inclusion_fraction = mix.inc;
    ro.overlap_fraction = mix.ovl;
    ro.disjoint_fraction = mix.dis;
    ro.derivation_fraction = mix.der;
    ro.inconsistent_fraction =
        (options.allow_inconsistent && Draw(seed, 19) % 4 == 0) ? 0.4 : 0.0;
    ro.aggregation_correspondences =
        o1.with_aggregations && Draw(seed, 20) % 2 == 0;
    ro.seed = Draw(seed, 21);
    OOINT_ASSIGN_OR_RETURN(set, GenerateRandomAssertions(c.s1, c.s2, ro));
  }
  c.assertions = set.assertions();

  PopulateOptions p1;
  p1.num_objects = options.num_objects;
  p1.seed = Draw(seed, 22);
  OOINT_ASSIGN_OR_RETURN(c.instances1, GenerateInstances(c.s1, p1));
  PopulateOptions p2;
  p2.num_objects = options.num_objects;
  p2.seed = Draw(seed, 23);
  OOINT_ASSIGN_OR_RETURN(c.instances2, GenerateInstances(c.s2, p2));

  c.fault_rate = (Draw(seed, 24) % 2 == 0) ? options.fault_rate : 0.0;
  c.fault_seed = Draw(seed, 25);

  DeltaTraceGenOptions delta_options;
  delta_options.value_pool = 8;  // matches PopulateOptions::value_pool
  delta_options.seed = Draw(seed, 150);
  OOINT_ASSIGN_OR_RETURN(c.delta_trace,
                         GenerateDeltaTrace(c.s1, c.s2, delta_options));
  return c;
}

Result<AssertionSet> BuildAssertionSet(const ConcreteCase& c) {
  AssertionSet set;
  for (const Assertion& assertion : c.assertions) {
    OOINT_RETURN_IF_ERROR(set.Add(assertion));
  }
  OOINT_RETURN_IF_ERROR(set.Validate(c.s1, c.s2));
  return set;
}

namespace {

/// True when the integrated hierarchy contains a cycle: the closure
/// holds a mutual pair, or a class is its own parent.
bool HasCycle(const IntegratedSchema& schema) {
  const std::set<std::pair<std::string, std::string>> closure =
      schema.IsAClosure();
  for (const auto& [child, parent] : closure) {
    if (closure.count({parent, child}) > 0) return true;
  }
  for (const IntegratedClass& cls : schema.classes()) {
    if (schema.HasIsA(cls.name, cls.name)) return true;
  }
  return false;
}

/// Name-independent identity keys for integrated classes: source-ful
/// classes are keyed by (kind, sorted source refs) — with `unrename`
/// mapping renamed source refs back to the original namespace — and
/// synthetic classes (empty sources, e.g. Principle 3's virtual
/// intersections) by (kind, sorted keys of their is-a parents),
/// resolved to a fixpoint. The keys make integration outcomes
/// comparable across class renamings and operand swaps.
std::map<std::string, std::string> CanonicalKeys(
    const IntegratedSchema& schema,
    const std::map<std::string, std::string>& unrename) {
  std::map<std::string, std::string> keys;
  for (const IntegratedClass& cls : schema.classes()) {
    if (cls.sources.empty()) continue;
    std::vector<std::string> sources;
    for (const ClassRef& ref : cls.sources) {
      const std::string rendered = ref.ToString();
      const auto it = unrename.find(rendered);
      sources.push_back(it != unrename.end() ? it->second : rendered);
    }
    std::sort(sources.begin(), sources.end());
    keys[cls.name] =
        StrCat(ISClassKindName(cls.kind), "|", Join(sources, ","));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const IntegratedClass& cls : schema.classes()) {
      if (keys.count(cls.name) > 0) continue;
      std::vector<std::string> parent_keys;
      bool ready = true;
      for (const std::string& parent : schema.ParentsOf(cls.name)) {
        const auto it = keys.find(parent);
        if (it == keys.end()) {
          ready = false;
          break;
        }
        parent_keys.push_back(it->second);
      }
      if (!ready) continue;
      std::sort(parent_keys.begin(), parent_keys.end());
      keys[cls.name] = StrCat(ISClassKindName(cls.kind), "|under{",
                              Join(parent_keys, ","), "}");
      changed = true;
    }
  }
  for (const IntegratedClass& cls : schema.classes()) {
    if (keys.count(cls.name) == 0) {
      keys[cls.name] = StrCat(ISClassKindName(cls.kind), "|?");
    }
  }
  return keys;
}

/// A name-independent summary of an integration outcome, for the
/// metamorphic comparisons (renaming, commutativity).
struct Canonical {
  std::multiset<std::string> classes;
  std::multiset<std::string> edges;
  size_t rule_count = 0;

  friend bool operator==(const Canonical& a, const Canonical& b) {
    return a.classes == b.classes && a.edges == b.edges &&
           a.rule_count == b.rule_count;
  }
};

Canonical Canonicalize(const IntegratedSchema& schema,
                       const std::map<std::string, std::string>& unrename) {
  Canonical out;
  const std::map<std::string, std::string> keys =
      CanonicalKeys(schema, unrename);
  for (const auto& [name, key] : keys) out.classes.insert(key);
  for (const auto& [child, parent] : schema.IsAClosure()) {
    out.edges.insert(keys.at(child) + " -> " + keys.at(parent));
  }
  out.rule_count = schema.rules().size();
  return out;
}

std::string DescribeDifference(const Canonical& a, const Canonical& b) {
  if (a.rule_count != b.rule_count) {
    return StrCat("rule counts ", a.rule_count, " vs ", b.rule_count);
  }
  if (a.classes != b.classes) {
    std::vector<std::string> only_a;
    std::set_difference(a.classes.begin(), a.classes.end(),
                        b.classes.begin(), b.classes.end(),
                        std::back_inserter(only_a));
    std::vector<std::string> only_b;
    std::set_difference(b.classes.begin(), b.classes.end(),
                        a.classes.begin(), a.classes.end(),
                        std::back_inserter(only_b));
    return StrCat("class sets differ (", a.classes.size(), " vs ",
                  b.classes.size(), "; first extra left: ",
                  only_a.empty() ? "-" : only_a.front(),
                  "; first extra right: ",
                  only_b.empty() ? "-" : only_b.front(), ")");
  }
  if (a.edges != b.edges) {
    std::vector<std::string> only_a;
    std::set_difference(a.edges.begin(), a.edges.end(), b.edges.begin(),
                        b.edges.end(), std::back_inserter(only_a));
    std::vector<std::string> only_b;
    std::set_difference(b.edges.begin(), b.edges.end(), a.edges.begin(),
                        a.edges.end(), std::back_inserter(only_b));
    return StrCat("is-a closures differ (first extra left: ",
                  only_a.empty() ? "-" : only_a.front(),
                  "; first extra right: ",
                  only_b.empty() ? "-" : only_b.front(), ")");
  }
  return "equal";
}

/// Rebuilds `schema` with every class name prefixed by `prefix`.
Result<Schema> RenameSchemaClasses(const Schema& schema,
                                   const std::string& prefix) {
  Schema out(schema.name());
  for (size_t i = 0; i < schema.NumClasses(); ++i) {
    const ClassDef& original = schema.class_def(static_cast<ClassId>(i));
    ClassDef renamed(prefix + original.name());
    for (const Attribute& attr : original.attributes()) {
      if (attr.type.is_class()) {
        renamed.AddAttribute({attr.name,
                              AttributeType::OfClass(prefix +
                                                     attr.type.class_name),
                              attr.multi_valued});
      } else {
        renamed.AddAttribute(attr);
      }
    }
    for (const AggregationFunction& fn : original.aggregations()) {
      renamed.AddAggregation(fn.name, prefix + fn.range_class,
                             fn.cardinality);
    }
    OOINT_RETURN_IF_ERROR(out.AddClass(std::move(renamed)).status());
  }
  for (size_t i = 0; i < schema.NumClasses(); ++i) {
    const ClassDef& child = schema.class_def(static_cast<ClassId>(i));
    for (ClassId parent : schema.ParentsOf(static_cast<ClassId>(i))) {
      OOINT_RETURN_IF_ERROR(
          out.AddIsA(prefix + child.name(),
                     prefix + schema.class_def(parent).name()));
    }
  }
  OOINT_RETURN_IF_ERROR(out.Finalize());
  return out;
}

Path RenamePath(const Path& path, const std::string& schema_name,
                const std::string& prefix) {
  if (path.schema() != schema_name) return path;
  return Path(path.schema(), prefix + path.class_name(), path.components(),
              path.name_ref());
}

/// Rewrites every reference to a class of `schema_name` with the
/// prefixed name.
Assertion RenameAssertion(const Assertion& original,
                          const std::string& schema_name,
                          const std::string& prefix) {
  Assertion out = original;
  for (ClassRef& ref : out.lhs) {
    if (ref.schema == schema_name) ref.class_name = prefix + ref.class_name;
  }
  if (out.rhs.schema == schema_name) {
    out.rhs.class_name = prefix + out.rhs.class_name;
  }
  for (AttributeCorrespondence& corr : out.attr_corrs) {
    corr.lhs = RenamePath(corr.lhs, schema_name, prefix);
    corr.rhs = RenamePath(corr.rhs, schema_name, prefix);
    if (corr.with.has_value()) {
      corr.with->attribute =
          RenamePath(corr.with->attribute, schema_name, prefix);
    }
  }
  for (AggCorrespondence& corr : out.agg_corrs) {
    corr.lhs = RenamePath(corr.lhs, schema_name, prefix);
    corr.rhs = RenamePath(corr.rhs, schema_name, prefix);
  }
  for (ValueCorrespondence& corr : out.value_corrs) {
    corr.lhs = RenamePath(corr.lhs, schema_name, prefix);
    corr.rhs = RenamePath(corr.rhs, schema_name, prefix);
  }
  return out;
}

/// Fact multisets per global concept (AttrKey ignores the
/// strategy-dependent skolem OIDs of derived facts).
std::map<std::string, std::multiset<std::string>> Snapshot(
    const Evaluator& evaluator, const GlobalSchema& global) {
  std::set<std::string> concepts;
  for (const auto& [name, sources] : global.ground_sources) {
    concepts.insert(name);
  }
  for (const Rule& rule : global.rules) {
    for (const std::string& name : rule.HeadConceptNames()) {
      concepts.insert(name);
    }
  }
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : concepts) {
    std::multiset<std::string> keys;
    for (const Fact* fact : evaluator.FactsOf(name)) {
      keys.insert(fact->AttrKey());
    }
    out[name] = std::move(keys);
  }
  return out;
}

/// The serving-side counterpart of Snapshot: the same per-concept
/// AttrKey multisets, but read through a connected FsmClient's
/// Extent() — i.e. whatever the (incrementally maintained or
/// demand-driven) client would actually serve.
Result<std::map<std::string, std::multiset<std::string>>> ClientSnapshot(
    const FsmClient& client, const GlobalSchema& global) {
  std::set<std::string> concepts;
  for (const auto& [name, sources] : global.ground_sources) {
    concepts.insert(name);
  }
  for (const Rule& rule : global.rules) {
    for (const std::string& name : rule.HeadConceptNames()) {
      concepts.insert(name);
    }
  }
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : concepts) {
    OOINT_ASSIGN_OR_RETURN(const std::vector<const Fact*> facts,
                           client.Extent(name));
    std::multiset<std::string> keys;
    for (const Fact* fact : facts) {
      keys.insert(fact->AttrKey());
    }
    out[name] = std::move(keys);
  }
  return out;
}

/// One federation built from a case: agents, populated stores,
/// declared assertions, and the integrated global schema.
struct Federation {
  Fsm fsm;
  GlobalSchema global;
};

Result<std::unique_ptr<Federation>> BuildFederation(const ConcreteCase& c) {
  auto federation = std::make_unique<Federation>();
  OOINT_ASSIGN_OR_RETURN(
      std::unique_ptr<FsmAgent> a1,
      FsmAgent::Create("agent1", "ooint", "db1", c.s1));
  OOINT_ASSIGN_OR_RETURN(
      std::unique_ptr<FsmAgent> a2,
      FsmAgent::Create("agent2", "ooint", "db2", c.s2));
  OOINT_RETURN_IF_ERROR(ApplySpec(c.instances1, &a1->store()).status());
  OOINT_RETURN_IF_ERROR(ApplySpec(c.instances2, &a2->store()).status());
  OOINT_RETURN_IF_ERROR(federation->fsm.RegisterAgent(std::move(a1)));
  OOINT_RETURN_IF_ERROR(federation->fsm.RegisterAgent(std::move(a2)));
  for (const Assertion& assertion : c.assertions) {
    OOINT_RETURN_IF_ERROR(federation->fsm.AddAssertion(assertion));
  }
  OOINT_ASSIGN_OR_RETURN(federation->global,
                         federation->fsm.IntegrateAll());
  return federation;
}

/// True when `inner` is a sub-multiset of `outer`.
bool IsSubMultiset(const std::multiset<std::string>& inner,
                   const std::multiset<std::string>& outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(),
                       inner.end());
}

/// Query rows as comparable keys (every variable, object included).
std::multiset<std::string> RowKeys(const std::vector<Bindings>& rows) {
  std::multiset<std::string> keys;
  for (const Bindings& row : rows) {
    std::string key;
    for (const auto& [var, value] : row) {
      key += var + "=" + value.ToString() + ";";
    }
    keys.insert(key);
  }
  return keys;
}

}  // namespace

Result<OracleOutcome> CheckCase(const ConcreteCase& c) {
  OracleOutcome outcome;
  OOINT_ASSIGN_OR_RETURN(const AssertionSet set, BuildAssertionSet(c));

  const std::vector<ConsistencyFinding> findings =
      CheckConsistency(c.s1, c.s2, set);
  const bool errors = HasErrors(findings);
  bool shadowed = false;
  for (const ConsistencyFinding& finding : findings) {
    if (finding.kind == ConsistencyFinding::Kind::kShadowedByObservation3) {
      shadowed = true;
    }
  }

  const Result<IntegrationOutcome> naive =
      NaiveIntegrator::Integrate(c.s1, c.s2, set);
  const Result<IntegrationOutcome> optimized =
      Integrator::Integrate(c.s1, c.s2, set);

  // --- Family 1: consistency-checker / integrator agreement ----------
  outcome.ran.insert(OracleFamily::kConsistency);
  if (!errors) {
    if (!naive.ok()) {
      outcome.failures.push_back(StrCat(
          "consistency: checker found no errors but the naive integrator "
          "failed: ",
          naive.status().ToString()));
    } else if (HasCycle(naive.value().schema)) {
      outcome.failures.push_back(
          "consistency: checker found no errors but the naive integrator "
          "produced a cyclic is-a hierarchy");
    }
    if (!optimized.ok()) {
      outcome.failures.push_back(StrCat(
          "consistency: checker found no errors but the optimized "
          "integrator failed: ",
          optimized.status().ToString()));
    } else if (HasCycle(optimized.value().schema)) {
      outcome.failures.push_back(
          "consistency: checker found no errors but the optimized "
          "integrator produced a cyclic is-a hierarchy");
    }
  } else {
    // The naive integrator records every assertion, so a checker-found
    // forced cycle must surface in its output (or fail integration).
    if (naive.ok() && !HasCycle(naive.value().schema)) {
      outcome.failures.push_back(
          "consistency: checker reported a hierarchy cycle but the naive "
          "integrator accepted the set with an acyclic hierarchy");
    }
    // No requirement on the optimized integrator here: its labelled
    // traversal visits only the pairs observations 1-3 leave relevant,
    // so a checker-found forced cycle (e.g. `c3 ⊆ d0; c9 ⊇ d0` with c9
    // below c3) can be invisible to it without any recorded pruning.
    // The checker exists precisely because the optimized algorithm
    // cannot police such sets itself.
  }

  // --- Family 2: naive vs. optimized integrator agreement ------------
  // Comparable only on checker-clean, shadow-free workloads: assertions
  // below disjoint/derivation pairs are skipped by the optimized
  // traversal by design (Section 6.1, observation 3). On arbitrary
  // random pairs the label machinery additionally drops "crossing"
  // assertions (e.g. a derivation whose lhs sits below an
  // inclusion-matched ancestor), so those cases are comparable only
  // when the optimized run did not prune anything at all; counterpart
  // workloads are nesting-consistent by construction and always
  // comparable.
  const bool comparable =
      c.counterpart ||
      (optimized.ok() &&
       optimized.value().stats.pairs_skipped_by_labels == 0 &&
       optimized.value().stats.sibling_pairs_removed == 0);
  if (!errors && !shadowed && naive.ok() && optimized.ok() && comparable) {
    outcome.ran.insert(OracleFamily::kIntegratorAgreement);
    const IntegratedSchema& ns = naive.value().schema;
    const IntegratedSchema& os = optimized.value().schema;
    if (ns.classes().size() != os.classes().size()) {
      outcome.failures.push_back(
          StrCat("integrator-agreement: class counts differ (naive ",
                 ns.classes().size(), ", optimized ", os.classes().size(),
                 ")"));
    }
    for (const IntegratedClass& cls : ns.classes()) {
      const IntegratedClass* other = os.FindClass(cls.name);
      if (other == nullptr) {
        outcome.failures.push_back(
            StrCat("integrator-agreement: class ", cls.name,
                   " produced by naive only"));
        continue;
      }
      if (cls.kind != other->kind) {
        outcome.failures.push_back(
            StrCat("integrator-agreement: class ", cls.name,
                   " has kind ", ISClassKindName(cls.kind), " (naive) vs ",
                   ISClassKindName(other->kind), " (optimized)"));
      }
      if (cls.attributes.size() != other->attributes.size()) {
        outcome.failures.push_back(StrCat(
            "integrator-agreement: class ", cls.name,
            " attribute counts differ (naive ", cls.attributes.size(),
            ", optimized ", other->attributes.size(), ")"));
      }
    }
    if (ns.IsAClosure() != os.IsAClosure()) {
      outcome.failures.push_back(
          "integrator-agreement: is-a closures differ");
    }
    std::multiset<std::string> naive_rules;
    for (const Rule& rule : ns.rules()) naive_rules.insert(rule.ToString());
    std::multiset<std::string> optimized_rules;
    for (const Rule& rule : os.rules()) {
      optimized_rules.insert(rule.ToString());
    }
    if (naive_rules != optimized_rules) {
      outcome.failures.push_back("integrator-agreement: rule sets differ");
    }
    // No pairs_checked bound here: the Section 6.3 work-saving claim
    // holds on structured counterpart workloads (covered by
    // tests/integrate/property_test.cc); on arbitrary random pairs the
    // labelled traversal can legitimately re-visit a pair the naive
    // sweep counts once.
  }

  // --- Family 4: metamorphic invariances -----------------------------
  if (!errors && !shadowed && optimized.ok()) {
    outcome.ran.insert(OracleFamily::kMetamorphic);
    // (a) Assertion-order permutation: exact output equality.
    {
      std::vector<size_t> order(c.assertions.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[Draw(c.seed, 0x9000 + i) % i]);
      }
      AssertionSet permuted;
      Status add_status = Status::OK();
      for (size_t index : order) {
        const Status added = permuted.Add(c.assertions[index]);
        if (!added.ok()) add_status = added;
      }
      if (!add_status.ok()) {
        outcome.failures.push_back(StrCat(
            "metamorphic: permuted assertion set failed to build: ",
            add_status.ToString()));
      } else {
        const Result<IntegrationOutcome> permuted_outcome =
            Integrator::Integrate(c.s1, c.s2, permuted);
        if (!permuted_outcome.ok()) {
          outcome.failures.push_back(StrCat(
              "metamorphic: integration failed after permuting assertion "
              "order: ",
              permuted_outcome.status().ToString()));
        } else {
          const Canonical before = Canonicalize(optimized.value().schema, {});
          const Canonical after =
              Canonicalize(permuted_outcome.value().schema, {});
          if (!(before == after)) {
            outcome.failures.push_back(StrCat(
                "metamorphic: assertion-order permutation changed the "
                "integration outcome — ",
                DescribeDifference(before, after)));
          }
        }
      }
    }
    // (b) Class renaming: outcome invariant up to the induced renaming.
    {
      const std::string prefix = "ren_";
      const Result<Schema> renamed_s1 = RenameSchemaClasses(c.s1, prefix);
      if (!renamed_s1.ok()) {
        outcome.failures.push_back(
            StrCat("metamorphic: class renaming failed to rebuild s1: ",
                   renamed_s1.status().ToString()));
      } else {
        AssertionSet renamed_set;
        Status add_status = Status::OK();
        for (const Assertion& assertion : c.assertions) {
          const Status added = renamed_set.Add(
              RenameAssertion(assertion, c.s1.name(), prefix));
          if (!added.ok()) add_status = added;
        }
        std::map<std::string, std::string> unrename;
        for (size_t i = 0; i < c.s1.NumClasses(); ++i) {
          const std::string& name =
              c.s1.class_def(static_cast<ClassId>(i)).name();
          unrename[c.s1.name() + "." + prefix + name] =
              c.s1.name() + "." + name;
        }
        const Result<IntegrationOutcome> renamed_outcome =
            add_status.ok()
                ? Integrator::Integrate(renamed_s1.value(), c.s2,
                                        renamed_set)
                : Result<IntegrationOutcome>(add_status);
        if (!renamed_outcome.ok()) {
          outcome.failures.push_back(StrCat(
              "metamorphic: integration failed after renaming s1 "
              "classes: ",
              renamed_outcome.status().ToString()));
        } else {
          const Canonical before = Canonicalize(optimized.value().schema, {});
          const Canonical after =
              Canonicalize(renamed_outcome.value().schema, unrename);
          if (!(before == after)) {
            outcome.failures.push_back(StrCat(
                "metamorphic: class renaming changed the integration "
                "outcome — ",
                DescribeDifference(before, after)));
          }
        }
      }
    }
    // (c) Commutativity: S1 ⊕ S2 ≅ S2 ⊕ S1. The set is mirrored with
    // Assertion::Reversed so every assertion reads S2-side first.
    // Derivations are directional and cannot be reoriented, so the
    // check only applies to derivation-free sets.
    const bool has_derivation =
        std::any_of(c.assertions.begin(), c.assertions.end(),
                    [](const Assertion& assertion) {
                      return assertion.rel == SetRel::kDerivation;
                    });
    if (!has_derivation) {
      AssertionSet mirrored;
      Status mirror_status = Status::OK();
      for (const Assertion& assertion : c.assertions) {
        const Status added = mirrored.Add(assertion.Reversed());
        if (!added.ok()) mirror_status = added;
      }
      const Result<IntegrationOutcome> swapped =
          mirror_status.ok()
              ? Integrator::Integrate(c.s2, c.s1, mirrored)
              : Result<IntegrationOutcome>(mirror_status);
      if (!swapped.ok()) {
        outcome.failures.push_back(
            StrCat("metamorphic: integration failed with operands "
                   "swapped: ",
                   swapped.status().ToString()));
      } else {
        const Canonical before = Canonicalize(optimized.value().schema, {});
        const Canonical after = Canonicalize(swapped.value().schema, {});
        if (!(before == after)) {
          outcome.failures.push_back(
              StrCat("metamorphic: S1+S2 and S2+S1 integrate "
                     "differently — ",
                     DescribeDifference(before, after)));
        }
      }
    }
  }

  // --- Families 3 and 5: evaluation over the federation ---------------
  if (!errors && optimized.ok()) {
    const Result<std::unique_ptr<Federation>> federation_result =
        BuildFederation(c);
    if (!federation_result.ok()) {
      outcome.ran.insert(OracleFamily::kEvaluatorAgreement);
      outcome.failures.push_back(
          StrCat("evaluator-agreement: the federation failed to "
                 "integrate or populate: ",
                 federation_result.status().ToString()));
      return outcome;
    }
    Federation& federation = *federation_result.value();
    const Result<std::unique_ptr<Evaluator>> baseline_result =
        federation.fsm.MakeEvaluator(federation.global);
    if (!baseline_result.ok()) {
      outcome.ran.insert(OracleFamily::kEvaluatorAgreement);
      outcome.failures.push_back(StrCat(
          "evaluator-agreement: the fault-free evaluator failed: ",
          baseline_result.status().ToString()));
      return outcome;
    }
    Evaluator& baseline = *baseline_result.value();

    // Family 3: kSemiNaive vs kNaive on the same rules and facts.
    outcome.ran.insert(OracleFamily::kEvaluatorAgreement);
    const std::map<std::string, std::multiset<std::string>> semi_naive =
        Snapshot(baseline, federation.global);
    baseline.Reset();
    baseline.set_strategy(EvalStrategy::kNaive);
    const Status naive_eval = baseline.Evaluate();
    if (!naive_eval.ok()) {
      outcome.failures.push_back(
          StrCat("evaluator-agreement: naive re-evaluation failed: ",
                 naive_eval.ToString()));
    } else {
      const std::map<std::string, std::multiset<std::string>> naive_facts =
          Snapshot(baseline, federation.global);
      if (semi_naive != naive_facts) {
        for (const auto& [name, keys] : semi_naive) {
          const auto it = naive_facts.find(name);
          if (it == naive_facts.end() || it->second != keys) {
            outcome.failures.push_back(StrCat(
                "evaluator-agreement: concept ", name,
                " has ", keys.size(), " facts under kSemiNaive vs ",
                it == naive_facts.end() ? 0 : it->second.size(),
                " under kNaive"));
          }
        }
      }
    }
    // Family 12: cost-based planner vs forced left-to-right joins
    // (kFixedSip, indexes still on). Body order steers only how the
    // fixpoint enumerates instantiations, so the derived per-concept
    // fact multisets must be identical.
    outcome.ran.insert(OracleFamily::kPlannerSip);
    baseline.Reset();
    baseline.set_strategy(EvalStrategy::kSemiNaive);
    baseline.set_planner_mode(PlannerMode::kFixedSip);
    const Status sip_eval = baseline.Evaluate();
    if (!sip_eval.ok()) {
      outcome.failures.push_back(
          StrCat("planner-vs-fixed-sip: fixed-SIP re-evaluation failed: ",
                 sip_eval.ToString()));
    } else {
      const std::map<std::string, std::multiset<std::string>> sip_facts =
          Snapshot(baseline, federation.global);
      if (sip_facts != semi_naive) {
        for (const auto& [name, keys] : semi_naive) {
          const auto it = sip_facts.find(name);
          if (it == sip_facts.end() || it->second != keys) {
            outcome.failures.push_back(StrCat(
                "planner-vs-fixed-sip: concept ", name, " has ",
                keys.size(), " facts under the cost-based planner vs ",
                it == sip_facts.end() ? 0 : it->second.size(),
                " under fixed left-to-right"));
          }
        }
      }
    }

    // Restore the semi-naive, cost-based state for the partial-answer
    // comparison.
    baseline.Reset();
    baseline.set_strategy(EvalStrategy::kSemiNaive);
    baseline.set_planner_mode(PlannerMode::kCostBased);
    OOINT_RETURN_IF_ERROR(baseline.Evaluate());

    // Family 5: partial answers under the case's fault schedule.
    outcome.ran.insert(OracleFamily::kPartialAnswers);
    FaultInjector partial_injector(c.fault_seed, c.fault_rate);
    FederationOptions partial_options;
    partial_options.failure_policy = FailurePolicy::kPartial;
    partial_options.injector = &partial_injector;
    const Result<FederatedEvaluator> partial =
        federation.fsm.MakeFederatedEvaluator(federation.global,
                                              partial_options);
    if (!partial.ok()) {
      outcome.failures.push_back(
          StrCat("partial-answers: partial-mode evaluation failed "
                 "outright: ",
                 partial.status().ToString()));
      return outcome;
    }
    const DegradedInfo& degraded = partial.value().evaluator->degraded();

    FaultInjector strict_injector(c.fault_seed, c.fault_rate);
    FederationOptions strict_options;
    strict_options.failure_policy = FailurePolicy::kStrict;
    strict_options.injector = &strict_injector;
    const Result<FederatedEvaluator> strict =
        federation.fsm.MakeFederatedEvaluator(federation.global,
                                              strict_options);
    if (strict.ok() == degraded.degraded()) {
      outcome.failures.push_back(StrCat(
          "partial-answers: strict mode ", strict.ok() ? "succeeded" : "failed",
          " but partial mode ", degraded.degraded() ? "degraded" : "did not degrade",
          " under the same fault schedule"));
    }

    const std::map<std::string, std::multiset<std::string>> partial_facts =
        Snapshot(*partial.value().evaluator, federation.global);

    // Family 12 under faults: a fixed-SIP kPartial federation on the
    // same fault schedule must degrade identically — byte-identical
    // DegradedInfo and identical fact multisets. Faults are injected
    // per extent *fetch*, which the planner never reorders, so join
    // order must not change what is derived or what is admitted to
    // have been missed.
    {
      FaultInjector sip_injector(c.fault_seed, c.fault_rate);
      FederationOptions sip_options;
      sip_options.failure_policy = FailurePolicy::kPartial;
      sip_options.query_mode = QueryMode::kDemandDriven;  // build only
      sip_options.injector = &sip_injector;
      Result<FederatedEvaluator> sip_partial =
          federation.fsm.MakeFederatedEvaluator(federation.global,
                                                sip_options);
      Status sip_status = sip_partial.status();
      if (sip_partial.ok()) {
        // The build fetched nothing, so the fixed-SIP run below draws
        // the injector's faults in the order the cost-based build did.
        Evaluator& sip_ev = *sip_partial.value().evaluator;
        sip_ev.set_planner_mode(PlannerMode::kFixedSip);
        sip_status = sip_ev.Evaluate();
      }
      if (!sip_status.ok()) {
        outcome.failures.push_back(StrCat(
            "planner-vs-fixed-sip: fixed-SIP partial-mode evaluation "
            "failed outright: ",
            sip_status.ToString()));
      } else {
        const std::string cost_degraded = degraded.ToString();
        const std::string sip_degraded =
            sip_partial.value().evaluator->degraded().ToString();
        if (cost_degraded != sip_degraded) {
          outcome.failures.push_back(StrCat(
              "planner-vs-fixed-sip: DegradedInfo diverges under the "
              "same fault schedule — cost-based {", cost_degraded,
              "} vs fixed-SIP {", sip_degraded, "}"));
        }
        const std::map<std::string, std::multiset<std::string>> sip_facts =
            Snapshot(*sip_partial.value().evaluator, federation.global);
        if (sip_facts != partial_facts) {
          outcome.failures.push_back(
              "planner-vs-fixed-sip: degraded fact multisets diverge "
              "between the cost-based and fixed-SIP planners under the "
              "same fault schedule");
        }
      }
    }

    const std::set<std::string> unsound(degraded.unsound_concepts.begin(),
                                        degraded.unsound_concepts.end());
    const std::set<std::string> incomplete(
        degraded.incomplete_concepts.begin(),
        degraded.incomplete_concepts.end());
    for (const auto& [name, keys] : semi_naive) {
      if (unsound.count(name) > 0) continue;
      const auto it = partial_facts.find(name);
      const std::multiset<std::string> empty;
      const std::multiset<std::string>& partial_keys =
          it == partial_facts.end() ? empty : it->second;
      if (!IsSubMultiset(partial_keys, keys)) {
        outcome.failures.push_back(StrCat(
            "partial-answers: concept ", name,
            " has partial answers that are not a subset of the "
            "fault-free answers (", partial_keys.size(), " vs ",
            keys.size(), ")"));
      }
      if (incomplete.count(name) == 0 && partial_keys != keys) {
        outcome.failures.push_back(StrCat(
            "partial-answers: concept ", name,
            " is not marked incomplete but lost facts (",
            partial_keys.size(), " vs ", keys.size(), ")"));
      }
    }
    // Incompleteness marking must be explained by the skipped agents:
    // a skipped agent implies at least one incomplete concept, and
    // every marked concept must lie in the rule-dependency closure of
    // the concepts bound to a skipped agent. (The converse does not
    // hold — a "skipped" agent may still have served its other
    // extents, since faults are injected per fetch, not per agent.)
    std::set<std::string> skipped;
    for (const DegradedInfo::SkippedAgent& agent : degraded.skipped) {
      skipped.insert(agent.schema_name);
    }
    if (!skipped.empty() && incomplete.empty()) {
      outcome.failures.push_back(
          "partial-answers: agents were skipped but no concept is "
          "marked incomplete");
    }
    std::set<std::string> explainable;
    for (const auto& [name, sources] : federation.global.ground_sources) {
      for (const ClassRef& source : sources) {
        if (skipped.count(source.schema) > 0) explainable.insert(name);
      }
    }
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Rule& rule : federation.global.rules) {
        bool body_hit = false;
        for (const std::string& body : rule.BodyConceptNames(false)) {
          if (explainable.count(body) > 0) {
            body_hit = true;
            break;
          }
        }
        if (!body_hit) continue;
        for (const std::string& head : rule.HeadConceptNames()) {
          if (explainable.insert(head).second) grew = true;
        }
      }
    }
    for (const std::string& name : incomplete) {
      if (explainable.count(name) == 0) {
        outcome.failures.push_back(StrCat(
            "partial-answers: concept ", name, " is marked incomplete "
            "but no skipped agent can explain it"));
      }
    }
    if (!degraded.degraded()) {
      if (partial_facts != semi_naive) {
        outcome.failures.push_back(
            "partial-answers: no degradation reported but the partial "
            "answers differ from the fault-free answers");
      }
    }

    // --- Family 6: demand-driven query agreement ----------------------
    // Sampled bound goals: the demand-driven (magic-rewritten or
    // fallback) answer must equal the full fixpoint's answer to the
    // same pattern. Fault-free the claim is unconditional; under the
    // case's fault schedule it is conditioned on the demand outcome's
    // own degradation record, since the sub-evaluation draws its own
    // faults: equal when the goal is untouched, subset when it is
    // incomplete, no claim when unsound. Relevance-pruned agents are
    // never fault-skipped — pruning means never contacted.
    outcome.ran.insert(OracleFamily::kDemandQuery);
    std::vector<std::string> goal_pool;
    for (const auto& [name, keys] : semi_naive) {
      if (!keys.empty()) goal_pool.push_back(name);
    }
    size_t goals_checked = 0;
    for (std::uint64_t k = 0; k < 8 && goals_checked < 3 && !goal_pool.empty();
         ++k) {
      const std::string& goal =
          goal_pool[Draw(c.seed, 60 + k) % goal_pool.size()];
      const std::vector<const Fact*> goal_facts = baseline.FactsOf(goal);
      if (goal_facts.empty()) continue;
      const Fact* sample =
          goal_facts[Draw(c.seed, 70 + k) % goal_facts.size()];
      // Bind on a scalar attribute (a set constant would test value
      // matching, not demand propagation).
      std::vector<std::pair<std::string, Value>> scalars;
      for (const auto& [attr, value] : sample->attrs) {
        if (value.kind() != ValueKind::kSet) scalars.emplace_back(attr, value);
      }
      if (scalars.empty()) continue;
      const auto& [bind_attr, bind_value] =
          scalars[Draw(c.seed, 80 + k) % scalars.size()];
      OTerm pattern;
      pattern.object = TermArg::Variable("_self");
      pattern.class_name = goal;
      pattern.attrs.push_back({bind_attr, false, TermArg::Constant(bind_value)});
      ++goals_checked;

      const Result<std::vector<Bindings>> expected = baseline.Query(pattern);
      if (!expected.ok()) {
        outcome.failures.push_back(
            StrCat("demand-query: full-fixpoint query on ", goal,
                   " failed: ", expected.status().ToString()));
        continue;
      }
      const std::multiset<std::string> expected_keys =
          RowKeys(expected.value());

      const Result<Evaluator::DemandOutcome> demand =
          baseline.EvaluateDemand(pattern);
      if (!demand.ok()) {
        outcome.failures.push_back(
            StrCat("demand-query: fault-free demand evaluation of ", goal,
                   " failed: ", demand.status().ToString()));
        continue;
      }
      const MagicProgram program = baseline.PlanDemand(pattern).program;
      if (RowKeys(demand.value().rows) != expected_keys) {
        outcome.failures.push_back(StrCat(
            "demand-query: goal ", goal, " bound on ", bind_attr, " has ",
            demand.value().rows.size(), " demand-driven rows vs ",
            expected.value().size(), " from the full fixpoint ",
            program.applied
                ? StrCat("(magic, adornment [", program.goal_adornment, "])")
                : StrCat("(fallback: ", program.fallback_reason, ")")));
      }
      if (demand.value().degraded.degraded()) {
        outcome.failures.push_back(
            StrCat("demand-query: fault-free demand evaluation of ", goal,
                   " reported degradation: ",
                   demand.value().degraded.ToString()));
      }
      // Explain reads the same rule graph the run did: its plan for the
      // goal names every agent the run contacted (every bound agent it
      // did not prune) and, when the rewrite could prune soundly,
      // exactly the agents the run pruned.
      const Result<QueryPlan> plan = ExplainQuery(federation.global, goal);
      if (!plan.ok()) {
        outcome.failures.push_back(StrCat("demand-query: explaining ", goal,
                                          " failed: ",
                                          plan.status().ToString()));
      } else {
        const std::vector<std::string>& pruned =
            demand.value().degraded.pruned_agents;
        const std::vector<std::string>& agents = plan.value().agents;
        std::set<std::string> contacted;
        for (const auto& [name, sources] : federation.global.ground_sources) {
          for (const ClassRef& source : sources) {
            if (std::find(pruned.begin(), pruned.end(), source.schema) ==
                pruned.end()) {
              contacted.insert(source.schema);
            }
          }
        }
        for (const std::string& agent : contacted) {
          if (std::find(agents.begin(), agents.end(), agent) == agents.end()) {
            outcome.failures.push_back(StrCat(
                "demand-query: the demand run of ", goal, " contacted ",
                agent, " but Explain's plan names only [", Join(agents, ", "),
                "]"));
          }
        }
        if (program.relevance_safe && plan.value().pruned_agents != pruned) {
          outcome.failures.push_back(StrCat(
              "demand-query: the demand run of ", goal, " pruned [",
              Join(pruned, ", "), "] but Explain's plan prunes [",
              Join(plan.value().pruned_agents, ", "), "]"));
        }
      }

      if (c.fault_rate > 0.0) {
        FaultInjector injector(Draw(c.fault_seed, 90 + k), c.fault_rate);
        FederationOptions options;
        options.failure_policy = FailurePolicy::kPartial;
        options.query_mode = QueryMode::kDemandDriven;
        options.injector = &injector;
        const Result<FederatedEvaluator> fed =
            federation.fsm.MakeFederatedEvaluator(federation.global, options);
        if (!fed.ok()) {
          outcome.failures.push_back(
              StrCat("demand-query: demand-mode federated evaluator "
                     "failed outright: ",
                     fed.status().ToString()));
          continue;
        }
        const Result<Evaluator::DemandOutcome> faulted =
            fed.value().evaluator->EvaluateDemand(pattern);
        if (!faulted.ok()) {
          outcome.failures.push_back(
              StrCat("demand-query: faulted demand evaluation of ", goal,
                     " failed under kPartial: ",
                     faulted.status().ToString()));
          continue;
        }
        const Evaluator::DemandOutcome& out = faulted.value();
        for (const std::string& pruned : out.degraded.pruned_agents) {
          if (out.degraded.SkippedAgentNamed(pruned)) {
            outcome.failures.push_back(StrCat(
                "demand-query: agent ", pruned,
                " is reported both relevance-pruned and fault-skipped"));
          }
        }
        const bool unsound =
            std::find(out.degraded.unsound_concepts.begin(),
                      out.degraded.unsound_concepts.end(),
                      goal) != out.degraded.unsound_concepts.end();
        const bool incomplete =
            std::find(out.degraded.incomplete_concepts.begin(),
                      out.degraded.incomplete_concepts.end(),
                      goal) != out.degraded.incomplete_concepts.end();
        if (unsound) continue;  // no claim about tainted answers
        const std::multiset<std::string> faulted_keys = RowKeys(out.rows);
        if (!incomplete && faulted_keys != expected_keys) {
          outcome.failures.push_back(StrCat(
              "demand-query: goal ", goal, " is not marked incomplete "
              "under the fault schedule but its demand answers diverge "
              "from the fault-free ones (", faulted_keys.size(), " vs ",
              expected_keys.size(), ")"));
        } else if (!IsSubMultiset(faulted_keys, expected_keys)) {
          outcome.failures.push_back(StrCat(
              "demand-query: goal ", goal, " has faulted demand answers "
              "that are not a subset of the fault-free ones (",
              faulted_keys.size(), " vs ", expected_keys.size(), ")"));
        }
      }
    }

    // --- Family 7: parallel-vs-serial runtime equality ----------------
    // num_threads may change wall-clock behaviour only. One seed-drawn
    // pool size in {2, 4, 8} (or OOINT_SOAK_THREADS) re-runs the
    // materialized fixpoint, the partial-mode run and one demand-driven
    // goal: fact multisets, degradation records and answers must be
    // exactly what the serial runs above produced.
    outcome.ran.insert(OracleFamily::kParallelSerial);
    int threads = 2 << (Draw(c.seed, 100) % 3);
    if (const char* env = std::getenv("OOINT_SOAK_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed > 1) threads = parsed;
    }
    FederationOptions fault_free_options;
    fault_free_options.num_threads = threads;
    const Result<FederatedEvaluator> par = federation.fsm.MakeFederatedEvaluator(
        federation.global, fault_free_options);
    if (!par.ok()) {
      outcome.failures.push_back(StrCat(
          "parallel-vs-serial: fault-free parallel evaluation with ",
          threads, " threads failed: ", par.status().ToString()));
    } else if (Snapshot(*par.value().evaluator, federation.global) !=
               semi_naive) {
      outcome.failures.push_back(StrCat(
          "parallel-vs-serial: the ", threads, "-thread fact multisets "
          "differ from the serial fixpoint"));
    }

    FaultInjector par_injector(c.fault_seed, c.fault_rate);
    FederationOptions par_partial_options;
    par_partial_options.failure_policy = FailurePolicy::kPartial;
    par_partial_options.injector = &par_injector;
    par_partial_options.num_threads = threads;
    const Result<FederatedEvaluator> par_partial =
        federation.fsm.MakeFederatedEvaluator(federation.global,
                                              par_partial_options);
    if (!par_partial.ok()) {
      outcome.failures.push_back(StrCat(
          "parallel-vs-serial: partial-mode parallel evaluation with ",
          threads, " threads failed: ", par_partial.status().ToString()));
    } else {
      const DegradedInfo& par_degraded =
          par_partial.value().evaluator->degraded();
      bool skips_match =
          par_degraded.skipped.size() == degraded.skipped.size();
      for (size_t i = 0; skips_match && i < degraded.skipped.size(); ++i) {
        skips_match = par_degraded.skipped[i].schema_name ==
                          degraded.skipped[i].schema_name &&
                      par_degraded.skipped[i].status.code() ==
                          degraded.skipped[i].status.code();
      }
      if (!skips_match ||
          par_degraded.incomplete_concepts != degraded.incomplete_concepts ||
          par_degraded.unsound_concepts != degraded.unsound_concepts) {
        outcome.failures.push_back(StrCat(
            "parallel-vs-serial: the ", threads, "-thread partial run "
            "degraded differently from the serial one — the identical "
            "fault schedule must be consumed in the identical order"));
      }
      if (Snapshot(*par_partial.value().evaluator, federation.global) !=
          partial_facts) {
        outcome.failures.push_back(StrCat(
            "parallel-vs-serial: the ", threads, "-thread partial-answer "
            "multisets differ from the serial partial run"));
      }
    }

    for (std::uint64_t k = 0; k < 4 && !goal_pool.empty(); ++k) {
      const std::string& goal =
          goal_pool[Draw(c.seed, 110 + k) % goal_pool.size()];
      const std::vector<const Fact*> goal_facts = baseline.FactsOf(goal);
      if (goal_facts.empty()) continue;
      const Fact* sample =
          goal_facts[Draw(c.seed, 120 + k) % goal_facts.size()];
      std::vector<std::pair<std::string, Value>> scalars;
      for (const auto& [attr, value] : sample->attrs) {
        if (value.kind() != ValueKind::kSet) scalars.emplace_back(attr, value);
      }
      if (scalars.empty()) continue;
      const auto& [bind_attr, bind_value] =
          scalars[Draw(c.seed, 130 + k) % scalars.size()];
      OTerm pattern;
      pattern.object = TermArg::Variable("_self");
      pattern.class_name = goal;
      pattern.attrs.push_back(
          {bind_attr, false, TermArg::Constant(bind_value)});
      const Result<std::vector<Bindings>> expected = baseline.Query(pattern);
      if (!expected.ok()) continue;  // family 6 already reports this

      FederationOptions demand_options;
      demand_options.query_mode = QueryMode::kDemandDriven;
      demand_options.num_threads = threads;
      const Result<FederatedEvaluator> demand_fed =
          federation.fsm.MakeFederatedEvaluator(federation.global,
                                                demand_options);
      if (!demand_fed.ok()) {
        outcome.failures.push_back(StrCat(
            "parallel-vs-serial: the demand-mode parallel evaluator "
            "failed outright: ",
            demand_fed.status().ToString()));
        break;
      }
      const Result<Evaluator::DemandOutcome> par_demand =
          demand_fed.value().evaluator->EvaluateDemand(pattern);
      if (!par_demand.ok()) {
        outcome.failures.push_back(StrCat(
            "parallel-vs-serial: ", threads, "-thread demand evaluation "
            "of ", goal, " failed: ", par_demand.status().ToString()));
      } else if (RowKeys(par_demand.value().rows) !=
                 RowKeys(expected.value())) {
        outcome.failures.push_back(StrCat(
            "parallel-vs-serial: goal ", goal, " bound on ", bind_attr,
            " has ", par_demand.value().rows.size(), " rows under ",
            threads, "-thread demand evaluation vs ",
            expected.value().size(), " from the serial full fixpoint"));
      }
      break;  // one demand goal per case keeps the sweep fast
    }

    // --- Family 8: columnar vs reference store differential -----------
    // The baseline evaluation's fact universe (base + derived, in
    // insertion order) replays into a fresh columnar FactStore and the
    // pre-columnar ReferenceFactStore; every observable must agree.
    outcome.ran.insert(OracleFamily::kStoreDifferential);
    {
      const FactStore& evaluated = baseline.fact_store();
      std::vector<const Fact*> replay;
      replay.reserve(evaluated.size());
      for (FactId id = 0; id < evaluated.size(); ++id) {
        replay.push_back(evaluated.FactById(id));
      }
      ReferenceFactStore ref;
      FactStore col;
      bool diverged = false;
      for (const Fact* fact : replay) {
        const bool ref_new = ref.Insert(*fact) != nullptr;
        const bool col_new = col.Insert(*fact) != kNoFact;
        if (!ref_new || !col_new) {
          outcome.failures.push_back(StrCat(
              "store-differential: replaying the evaluated universe hit a "
              "duplicate (ref_new=", ref_new, " col_new=", col_new,
              ") for ", fact->CanonicalKey()));
          diverged = true;
          break;
        }
      }
      // Duplicate re-insertion must be rejected by both.
      for (const Fact* fact : diverged ? std::vector<const Fact*>{} : replay) {
        if (ref.Insert(*fact) != nullptr || col.Insert(*fact) != kNoFact) {
          outcome.failures.push_back(StrCat(
              "store-differential: a duplicate re-insertion was accepted "
              "for ", fact->CanonicalKey()));
          diverged = true;
          break;
        }
      }
      // Per-concept extents: bit-identical fact sequences.
      for (ConceptId cid = 0; !diverged && cid < evaluated.concept_count();
           ++cid) {
        const std::string& concept_name = evaluated.ConceptName(cid);
        const std::vector<const Fact*>& ref_extent = ref.FactsOf(concept_name);
        const std::vector<const Fact*> col_extent = col.FactsOf(concept_name);
        if (ref_extent.size() != col_extent.size()) {
          outcome.failures.push_back(StrCat(
              "store-differential: concept ", concept_name, " has ",
              ref_extent.size(), " reference facts vs ", col_extent.size(),
              " columnar facts"));
          diverged = true;
          break;
        }
        for (size_t i = 0; i < ref_extent.size(); ++i) {
          if (ref_extent[i]->CanonicalKey() != col_extent[i]->CanonicalKey()) {
            outcome.failures.push_back(StrCat(
                "store-differential: concept ", concept_name, " ordinal ", i,
                " differs: ", ref_extent[i]->CanonicalKey(), " vs ",
                col_extent[i]->CanonicalKey()));
            diverged = true;
            break;
          }
        }
      }
      // OID lookups for every stored OID, against the reference's
      // FindByOid overloads: ViewByOid (the matcher's resolver, first
      // inserted first) and the first ProbeOid ordinal (the join path's
      // concept-scoped lookup).
      for (const Fact* fact : diverged ? std::vector<const Fact*>{} : replay) {
        if (fact->oid.empty()) continue;
        const Fact* by_ref = ref.FindByOid(fact->oid);
        const FactView by_col = col.ViewByOid(fact->oid);
        if (by_ref == nullptr || !by_col.valid() ||
            by_ref->CanonicalKey() !=
                col.FactById(by_col.id())->CanonicalKey()) {
          outcome.failures.push_back(StrCat(
              "store-differential: ViewByOid(", fact->oid.ToString(),
              ") disagrees with the reference FindByOid"));
          break;
        }
        const ConceptId ref_cid = ref.FindConcept(fact->concept_name);
        const ConceptId col_cid = col.FindConcept(fact->concept_name);
        const Fact* scoped_ref = ref.FindByOid(fact->oid, ref_cid);
        std::vector<std::uint32_t> ordinals;
        col.ProbeOid(col_cid, fact->oid, &ordinals);
        if (scoped_ref == nullptr || ordinals.empty() ||
            scoped_ref->CanonicalKey() !=
                col.FactAt(col_cid, ordinals.front())->CanonicalKey()) {
          outcome.failures.push_back(StrCat(
              "store-differential: ProbeOid(", fact->concept_name, ", ",
              fact->oid.ToString(), ") disagrees with the reference "
              "FindByOid"));
          break;
        }
      }
      // Verified probes: for every (fact, attr, scalar value / set
      // element), the exact-match result sets must agree. Candidates are
      // re-verified the way the matcher does (equal, or a set containing
      // an equal element), since reference probes may carry hash-
      // collision false positives.
      auto probe_matches = [](const Fact& fact, const std::string& attr,
                              const Value& v) {
        auto it = fact.attrs.find(attr);
        if (it == fact.attrs.end()) return false;
        if (it->second == v) return true;
        if (it->second.kind() != ValueKind::kSet) return false;
        for (const Value& e : it->second.AsSet()) {
          if (e == v) return true;
        }
        return false;
      };
      for (const Fact* fact : diverged ? std::vector<const Fact*>{} : replay) {
        const ConceptId ref_cid = ref.FindConcept(fact->concept_name);
        const ConceptId col_cid = col.FindConcept(fact->concept_name);
        bool probe_diverged = false;
        for (const auto& [attr, value] : fact->attrs) {
          std::vector<const Value*> probes;
          if (value.kind() == ValueKind::kSet) {
            for (const Value& e : value.AsSet()) probes.push_back(&e);
          } else {
            probes.push_back(&value);
          }
          for (const Value* v : probes) {
            std::multiset<std::string> ref_hits;
            if (const std::vector<std::uint32_t>* ordinals =
                    ref.Probe(ref_cid, attr, *v)) {
              for (std::uint32_t ordinal : *ordinals) {
                const Fact* hit = ref.FactAt(ref_cid, ordinal);
                if (probe_matches(*hit, attr, *v)) {
                  ref_hits.insert(hit->CanonicalKey());
                }
              }
            }
            std::multiset<std::string> col_hits;
            PostingsCursor cursor = col.Probe(col_cid, attr, *v);
            std::uint32_t ordinal = 0;
            while (cursor.Next(&ordinal)) {
              const Fact* hit = col.FactAt(col_cid, ordinal);
              if (probe_matches(*hit, attr, *v)) {
                col_hits.insert(hit->CanonicalKey());
              }
            }
            if (ref_hits != col_hits) {
              outcome.failures.push_back(StrCat(
                  "store-differential: verified Probe(", fact->concept_name,
                  ", ", attr, ") result sets differ (", ref_hits.size(),
                  " vs ", col_hits.size(), ")"));
              probe_diverged = true;
              break;
            }
          }
          if (probe_diverged) break;
        }
        if (probe_diverged) break;
      }
    }

    // --- Family 9: overload robustness --------------------------------
    // Deadlines, cancellation and admission control. Everything here
    // runs serial (num_threads == 1), so the deadline's truncation
    // point is a pure function of the seed.
    outcome.ran.insert(OracleFamily::kOverload);
    {
      // (a) Deadline-truncated answers are a sound subset of the
      // unbounded fault-free answers, with exact DegradedInfo
      // accounting. The budget is drawn small enough that many seeds
      // truncate mid-load or mid-fixpoint. (0 is excluded here — an
      // already-expired deadline fails the whole build under either
      // policy; part (b) covers that.)
      const double budget_ms = 1 + static_cast<double>(Draw(c.seed, 140) % 12);
      FaultInjector overload_injector(c.fault_seed, c.fault_rate);
      FederationOptions overload_options;
      overload_options.failure_policy = FailurePolicy::kPartial;
      overload_options.injector = &overload_injector;
      overload_options.query_deadline_ms = budget_ms;
      const Result<FederatedEvaluator> bounded =
          federation.fsm.MakeFederatedEvaluator(federation.global,
                                                overload_options);
      if (!bounded.ok()) {
        outcome.failures.push_back(StrCat(
            "overload: kPartial evaluation under a ", budget_ms,
            "ms deadline failed outright: ", bounded.status().ToString()));
      } else {
        const DegradedInfo& deg = bounded.value().evaluator->degraded();
        const std::map<std::string, std::multiset<std::string>>
            bounded_facts =
                Snapshot(*bounded.value().evaluator, federation.global);
        std::set<std::string> accounted(deg.incomplete_concepts.begin(),
                                        deg.incomplete_concepts.end());
        accounted.insert(deg.truncated_concepts.begin(),
                         deg.truncated_concepts.end());
        accounted.insert(deg.unsound_concepts.begin(),
                         deg.unsound_concepts.end());
        const std::set<std::string> unsound_bounded(
            deg.unsound_concepts.begin(), deg.unsound_concepts.end());
        for (const auto& [name, keys] : semi_naive) {
          const auto it = bounded_facts.find(name);
          const std::multiset<std::string> empty;
          const std::multiset<std::string>& got =
              it == bounded_facts.end() ? empty : it->second;
          if (unsound_bounded.count(name) == 0 &&
              !IsSubMultiset(got, keys)) {
            outcome.failures.push_back(StrCat(
                "overload: concept ", name, " under a ", budget_ms,
                "ms deadline has answers that are not a subset of the "
                "unbounded fault-free answers (", got.size(), " vs ",
                keys.size(), ")"));
          }
          if (accounted.count(name) == 0 && got != keys) {
            outcome.failures.push_back(StrCat(
                "overload: concept ", name, " lost facts under a ",
                budget_ms, "ms deadline without being accounted as "
                "incomplete, deadline-truncated or unsound (", got.size(),
                " vs ", keys.size(), ")"));
          }
        }
      }
      // Truncation must only ever appear under a finite deadline: the
      // unbounded partial run above is the witness.
      if (degraded.deadline_truncated) {
        outcome.failures.push_back(
            "overload: an unbounded partial run reported deadline "
            "truncation");
      }

      // (b) Strict unwind: an out-of-budget (or cancelled) evaluation
      // fails with kDeadlineExceeded and leaves the fact store
      // identical to a never-started one.
      FederationOptions strict_build;
      strict_build.query_mode = QueryMode::kDemandDriven;  // build only
      const Result<FederatedEvaluator> strict_fed =
          federation.fsm.MakeFederatedEvaluator(federation.global,
                                                strict_build);
      if (strict_fed.ok()) {
        Evaluator& ev = *strict_fed.value().evaluator;
        ev.set_cancel_token(CancelToken::WithBudget(0));
        const Status bounded_eval = ev.Evaluate();
        if (bounded_eval.code() != StatusCode::kDeadlineExceeded) {
          outcome.failures.push_back(StrCat(
              "overload: a 0ms-deadline strict evaluation returned ",
              StatusCodeName(bounded_eval.code()),
              " instead of DeadlineExceeded"));
        }
        if (ev.fact_store().size() != 0) {
          outcome.failures.push_back(StrCat(
              "overload: a deadline-failed strict evaluation left ",
              ev.fact_store().size(),
              " facts behind (store must equal never-started)"));
        }
        const CancelToken cancel = CancelToken::Cancellable();
        cancel.Cancel();
        ev.set_cancel_token(cancel);
        const Status cancelled_eval = ev.Evaluate();
        if (cancelled_eval.code() != StatusCode::kDeadlineExceeded) {
          outcome.failures.push_back(StrCat(
              "overload: a cancelled strict evaluation returned ",
              StatusCodeName(cancelled_eval.code()),
              " instead of DeadlineExceeded"));
        }
        if (ev.fact_store().size() != 0) {
          outcome.failures.push_back(
              "overload: a cancelled strict evaluation left facts "
              "behind");
        }
      }

      // (c) Admission storm: offered > capacity with no queue, so the
      // outcome is deterministic — no deadlock, no slot leak, exact
      // accounting.
      const int limit = 1 + static_cast<int>(Draw(c.seed, 141) % 3);
      AdmissionPolicy policy;
      policy.max_concurrent = limit;
      policy.max_queue_depth = 0;
      AdmissionController controller(policy);
      const int offered =
          limit + 2 + static_cast<int>(Draw(c.seed, 142) % 5);
      std::vector<AdmissionSlot> held;
      int admitted = 0;
      int rejected = 0;
      for (int i = 0; i < offered; ++i) {
        AdmissionSlot slot(&controller);
        if (slot.status().ok()) {
          ++admitted;
          held.push_back(std::move(slot));
        } else if (slot.status().code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          outcome.failures.push_back(StrCat(
              "overload: admission rejected with ",
              StatusCodeName(slot.status().code()),
              " instead of ResourceExhausted"));
        }
      }
      if (admitted != limit || rejected != offered - limit) {
        outcome.failures.push_back(StrCat(
            "overload: admission accounting off — admitted ", admitted,
            "/", limit, ", rejected ", rejected, "/", offered - limit));
      }
      held.clear();  // release every slot
      const AdmissionController::Stats adm = controller.stats();
      if (adm.active != 0 || adm.queued != 0) {
        outcome.failures.push_back(StrCat(
            "overload: admission leaked capacity after the storm "
            "(active=",
            adm.active, " queued=", adm.queued, ")"));
      }
      if (adm.admitted != admitted ||
          adm.rejected_full + adm.rejected_wait != rejected) {
        outcome.failures.push_back(
            "overload: controller stats disagree with observed outcomes");
      }
    }

    // --- Family 11: serving-pipeline equivalence ----------------------
    // Union-of-pages == whole answer set (no row duplicated across page
    // boundaries, none lost) and top-k == the k-prefix of the fully
    // sorted answers, on a demand-mode client. Fault-free, and under
    // the case's fault schedule with kPartial — there the cursor is
    // compared against the *same client's* Run answer, which shares the
    // cached demand snapshot, so the properties hold whatever the
    // faults removed. Page sizes are seed-drawn so boundaries land in
    // arbitrary places (including exactly-full last pages). A
    // materialized client repeats the checks on rows whose handles read
    // a base segment and its overlay, and pages one selected attribute
    // projected, distinct and ranked, against that client's Run rows
    // projected, de-duplicated and ranked as Bindings.
    outcome.ran.insert(OracleFamily::kServing);
    {
      auto row_key = [](const Bindings& row) {
        std::string key;
        for (const auto& [var, value] : row) {
          key += var + "=" + value.ToString() + ";";
        }
        return key;
      };
      // Drains every page of `cursor`; returns false (with a failure
      // recorded) on a cursor error or a runaway pagination loop.
      auto drain = [&](ServingCursor* cursor, const char* leg,
                       const std::string& goal, size_t max_rows,
                       std::vector<Bindings>* rows) {
        for (size_t pages = 0; pages <= max_rows + 2; ++pages) {
          Result<Page> page = cursor->NextPage();
          if (!page.ok()) {
            outcome.failures.push_back(
                StrCat("serving: ", leg, " cursor on ", goal,
                       " failed at page ", pages, ": ",
                       page.status().ToString()));
            return false;
          }
          for (Bindings& row : page.value().rows) {
            rows->push_back(std::move(row));
          }
          if (!page.value().has_more) return true;
        }
        outcome.failures.push_back(
            StrCat("serving: ", leg, " cursor on ", goal,
                   " kept reporting has_more past every possible row"));
        return false;
      };
      auto check_serving = [&](const FsmClient& client, const char* leg,
                               std::uint64_t k, const std::string& goal,
                               const Query& query) {
        const Result<std::vector<Bindings>> whole = client.Run(query);
        if (!whole.ok()) {
          outcome.failures.push_back(StrCat("serving: ", leg, " Run on ",
                                            goal, " failed: ",
                                            whole.status().ToString()));
          return;
        }
        // (a) union of pages over a seed-drawn page size.
        ServingOptions paged;
        paged.page_size = 1 + Draw(c.seed, 178 + k) % 5;
        Result<std::unique_ptr<ServingCursor>> cursor =
            client.OpenCursor(query, paged);
        if (!cursor.ok()) {
          outcome.failures.push_back(
              StrCat("serving: ", leg, " OpenCursor on ", goal,
                     " failed: ", cursor.status().ToString()));
          return;
        }
        std::vector<Bindings> paged_rows;
        if (drain(cursor.value().get(), leg, goal, whole.value().size(),
                  &paged_rows)) {
          if (RowKeys(paged_rows) != RowKeys(whole.value())) {
            outcome.failures.push_back(StrCat(
                "serving: ", leg, " union of pages (page_size=",
                paged.page_size, ") on ", goal, " has ", paged_rows.size(),
                " rows vs ", whole.value().size(),
                " from Run — a page boundary duplicated or lost a row"));
          }
        }
        // (b) top-k == prefix of the fully sorted answers, in order.
        ServingOptions topk;
        topk.page_size = 1 + Draw(c.seed, 178 + k) % 5;
        topk.order_by = "_self";
        topk.limit = 1 + Draw(c.seed, 184 + k) % 3;
        topk.descending = Draw(c.seed, 190 + k) % 2 == 1;
        cursor = client.OpenCursor(query, topk);
        if (!cursor.ok()) {
          outcome.failures.push_back(
              StrCat("serving: ", leg, " top-k OpenCursor on ", goal,
                     " failed: ", cursor.status().ToString()));
          return;
        }
        std::vector<Bindings> sorted = whole.value();
        std::sort(sorted.begin(), sorted.end(),
                  RowOrder{topk.order_by, topk.descending});
        std::vector<Bindings> streamed;
        if (!drain(cursor.value().get(), leg, goal, topk.limit, &streamed)) {
          return;
        }
        const size_t expect_n =
            std::min<size_t>(topk.limit, sorted.size());
        if (streamed.size() != expect_n) {
          outcome.failures.push_back(StrCat(
              "serving: ", leg, " top-", topk.limit, " on ", goal,
              " streamed ", streamed.size(), " rows, expected ", expect_n));
          return;
        }
        for (size_t i = 0; i < expect_n; ++i) {
          if (row_key(streamed[i]) != row_key(sorted[i])) {
            outcome.failures.push_back(StrCat(
                "serving: ", leg, " top-", topk.limit, " on ", goal,
                " diverges from the sorted prefix at row ", i, " (",
                row_key(streamed[i]), " vs ", row_key(sorted[i]), ")"));
            break;
          }
        }
      };

      // The materialized leg's projected checks: the goal's `attr` as
      // variable "v", paged distinct and ranked by "v".
      auto check_projected = [&](const FsmClient& client, std::uint64_t k,
                                 const std::string& goal,
                                 const std::string& attr) {
        Query query(goal);
        query.Select(attr, "v");
        const Result<std::vector<Bindings>> whole = client.Run(query);
        if (!whole.ok()) {
          outcome.failures.push_back(StrCat("serving: materialized Run on ",
                                            goal, ".", attr, " failed: ",
                                            whole.status().ToString()));
          return;
        }
        std::vector<Bindings> projected;
        for (const Bindings& row : whole.value()) {
          Bindings p;
          auto v = row.find("v");
          if (v != row.end()) p.emplace("v", v->second);
          projected.push_back(std::move(p));
        }
        ServingOptions options;
        options.page_size = 1 + Draw(c.seed, 202 + k) % 4;
        options.project = {"v"};
        std::vector<Bindings> paged;
        Result<std::unique_ptr<ServingCursor>> cursor =
            client.OpenCursor(query, options);
        if (!cursor.ok() || !drain(cursor.value().get(), "materialized",
                                   goal, projected.size(), &paged)) {
          if (!cursor.ok()) {
            outcome.failures.push_back(StrCat(
                "serving: materialized projected OpenCursor on ", goal,
                " failed: ", cursor.status().ToString()));
          }
          return;
        }
        const std::multiset<std::string> want_keys = RowKeys(projected);
        const std::set<std::string> distinct_keys(want_keys.begin(),
                                                  want_keys.end());
        const std::multiset<std::string> got_keys = RowKeys(paged);
        if (got_keys != std::multiset<std::string>(distinct_keys.begin(),
                                                   distinct_keys.end())) {
          outcome.failures.push_back(StrCat(
              "serving: materialized distinct projection of ", goal, ".",
              attr, " paged ", paged.size(), " rows vs ",
              distinct_keys.size(), " distinct projected Run rows"));
        }
        options.order_by = "v";
        options.limit = 1 + Draw(c.seed, 208 + k) % 4;
        options.descending = Draw(c.seed, 214 + k) % 2 == 1;
        const RowOrder order{options.order_by, options.descending};
        BoundedTopK<Bindings, RowOrder> reference(options.limit, order,
                                                  /*dedup=*/true);
        for (const Bindings& row : projected) reference.Push(row);
        const std::vector<Bindings> want = reference.TakeSorted();
        std::vector<Bindings> ranked;
        cursor = client.OpenCursor(query, options);
        if (!cursor.ok() || !drain(cursor.value().get(), "materialized",
                                   goal, options.limit, &ranked)) {
          if (!cursor.ok()) {
            outcome.failures.push_back(StrCat(
                "serving: materialized top-k OpenCursor on ", goal,
                " failed: ", cursor.status().ToString()));
          }
          return;
        }
        bool same = ranked.size() == want.size();
        for (size_t i = 0; same && i < want.size(); ++i) {
          same = row_key(ranked[i]) == row_key(want[i]);
        }
        if (!same) {
          outcome.failures.push_back(StrCat(
              "serving: materialized top-", options.limit, " of ", goal, ".",
              attr, " by v (descending=", options.descending,
              ") differs from the ranked projected Run rows"));
        }
      };

      FsmClient materialized_client(&federation.fsm);
      const Status materialized_connect = materialized_client.Connect();
      if (!materialized_connect.ok()) {
        outcome.failures.push_back(
            StrCat("serving: materialized client failed to connect: ",
                   materialized_connect.ToString()));
      }

      FsmClient serving_client(&federation.fsm);
      FederationOptions serving_options;
      serving_options.query_mode = QueryMode::kDemandDriven;
      const Status serving_connect = serving_client.Connect(
          Fsm::Strategy::kAccumulation, serving_options);
      if (!serving_connect.ok()) {
        outcome.failures.push_back(
            StrCat("serving: demand-mode client failed to connect: ",
                   serving_connect.ToString()));
      } else {
        size_t serving_checked = 0;
        for (std::uint64_t k = 0;
             k < 8 && serving_checked < 3 && !goal_pool.empty(); ++k) {
          const std::string& goal =
              goal_pool[Draw(c.seed, 160 + k) % goal_pool.size()];
          const std::vector<const Fact*> goal_facts = baseline.FactsOf(goal);
          if (goal_facts.empty()) continue;
          const Fact* sample =
              goal_facts[Draw(c.seed, 166 + k) % goal_facts.size()];
          std::vector<std::pair<std::string, Value>> scalars;
          for (const auto& [attr, value] : sample->attrs) {
            if (value.kind() != ValueKind::kSet) {
              scalars.emplace_back(attr, value);
            }
          }
          if (scalars.empty()) continue;
          const auto& [bind_attr, bind_value] =
              scalars[Draw(c.seed, 172 + k) % scalars.size()];
          ++serving_checked;
          Query query(goal);
          query.Where(bind_attr, bind_value);
          check_serving(serving_client, "fault-free", k, goal, query);
          if (materialized_connect.ok()) {
            check_serving(materialized_client, "materialized", k, goal, query);
            const auto& attrs = sample->attrs;
            auto selected = attrs.begin();
            std::advance(selected, Draw(c.seed, 220 + k) % attrs.size());
            check_projected(materialized_client, k, goal, selected->first);
          }

          if (c.fault_rate > 0.0) {
            FaultInjector injector(Draw(c.fault_seed, 196 + k),
                                   c.fault_rate);
            FederationOptions faulted_options;
            faulted_options.failure_policy = FailurePolicy::kPartial;
            faulted_options.query_mode = QueryMode::kDemandDriven;
            faulted_options.injector = &injector;
            FsmClient faulted(&federation.fsm);
            const Status faulted_connect = faulted.Connect(
                Fsm::Strategy::kAccumulation, faulted_options);
            if (!faulted_connect.ok()) {
              outcome.failures.push_back(StrCat(
                  "serving: faulted demand-mode client failed to "
                  "connect: ",
                  faulted_connect.ToString()));
              continue;
            }
            check_serving(faulted, "faulted", k, goal, query);
          }
        }
      }
    }

    // --- Family 10: delta-vs-rebuild ----------------------------------
    // The case's seeded delta trace is applied batch by batch to the
    // live agent stores and fed to a live-updates client (counting /
    // DRed maintenance) and a demand-driven client; after every batch
    // the maintained store must be fact-set-identical to a from-scratch
    // fixpoint over the same post-batch base state. Before every batch
    // the demand client is warmed on a sampled goal and a second goal
    // over the same bindings, so encoded base segments meet every delta
    // (DESIGN.md §4f). A second demand client is warmed the same way but
    // never sent a feed: its cached answers must notice the store
    // changes through the data epochs they read. Runs last: it mutates
    // the stores every earlier family snapshots.
    if (!c.delta_trace.empty()) {
      outcome.ran.insert(OracleFamily::kDeltaRebuild);
      FsmClient live(&federation.fsm);
      FederationOptions live_options;
      live_options.live_updates = true;
      const Status live_connect =
          live.Connect(Fsm::Strategy::kAccumulation, live_options);
      FsmClient demand(&federation.fsm);
      FsmClient unannounced(&federation.fsm);
      FederationOptions demand_options;
      demand_options.query_mode = QueryMode::kDemandDriven;
      const Status demand_connect =
          demand.Connect(Fsm::Strategy::kAccumulation, demand_options);
      const Status unannounced_connect =
          unannounced.Connect(Fsm::Strategy::kAccumulation, demand_options);
      const struct {
        FsmClient* client;
        const char* name;
      } demand_clients[] = {{&demand, "delta-fed demand client"},
                            {&unannounced, "unannounced demand client"}};
      if (!live_connect.ok() || !demand_connect.ok() ||
          !unannounced_connect.ok()) {
        outcome.failures.push_back(StrCat(
            "delta-rebuild: the ",
            live_connect.ok() ? "demand-driven" : "live-updates",
            " client failed to connect: ",
            (!live_connect.ok()     ? live_connect
             : !demand_connect.ok() ? demand_connect
                                    : unannounced_connect)
                .ToString()));
      } else {
        std::map<std::string, std::uint64_t> feed_epochs;
        bool aborted = false;
        // The last checkpoint's extents (the baseline before batch 0).
        std::map<std::string, std::multiset<std::string>> checkpoint =
            semi_naive;
        for (size_t b = 0; b < c.delta_trace.batches.size() && !aborted;
             ++b) {
          // Warm the demand clients: a goal sampled from the checkpoint
          // through Extent(), then the same concept under other pattern
          // text — a distinct cache entry that overlays the same base
          // segment. Neither may answer stale after the batch below.
          std::vector<const std::string*> warm_pool;
          for (const auto& [name, keys] : checkpoint) {
            if (!keys.empty()) warm_pool.push_back(&name);
          }
          std::string warm_goal;
          if (!warm_pool.empty()) {
            warm_goal =
                *warm_pool[Draw(c.seed, 0x5e90 + b) % warm_pool.size()];
            Query second(warm_goal);
            second.SelectObject("warm_oid");
            for (const auto& [client, client_name] : demand_clients) {
              const Result<std::vector<const Fact*>> warmed =
                  client->Extent(warm_goal);
              const Result<std::vector<Bindings>> second_rows =
                  client->Run(second);
              if (!warmed.ok() || !second_rows.ok()) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: the ", client_name,
                    " failed to answer ", warm_goal, " before batch ", b,
                    ": ",
                    (warmed.ok() ? second_rows.status() : warmed.status())
                        .ToString()));
              }
            }
          }
          // Interpret each op against the live stores, accumulating one
          // feed per touched agent. Every step is deterministic and
          // op-local, so shrunk traces stay interpretable (a missing
          // class or an empty extent is a no-op).
          std::map<std::string, ExtentDelta> feeds;
          for (const DeltaOp& op : c.delta_trace.batches[b].ops) {
            const Schema& schema = op.side == 1 ? c.s1 : c.s2;
            FsmAgent* agent = federation.fsm.FindAgent(schema.name());
            if (agent == nullptr) continue;
            InstanceStore& store = agent->store();
            ExtentDelta& feed = feeds[schema.name()];
            feed.agent_name = schema.name();
            switch (op.kind) {
              case DeltaOp::Kind::kInsert: {
                Result<Object*> fresh = store.NewObject(op.object.class_name);
                if (!fresh.ok()) break;
                for (const auto& [name, value] : op.object.attrs) {
                  fresh.value()->Set(name, value);
                }
                feed.inserted.push_back(*fresh.value());
                break;
              }
              case DeltaOp::Kind::kDelete: {
                const Result<std::vector<Oid>> extent =
                    store.Extent(op.class_name);
                if (!extent.ok() || extent.value().empty()) break;
                const Oid victim =
                    extent.value()[op.pick % extent.value().size()];
                const Object* object = store.Find(victim);
                if (object == nullptr) break;
                feed.deleted.push_back(*object);
                (void)store.Remove(victim);
                break;
              }
              case DeltaOp::Kind::kPhantomDelete: {
                // Materialize the ghost just long enough to copy it,
                // so its feed entry is shaped like a real object while
                // the base state never contains it.
                Result<Object*> ghost =
                    store.NewObject(op.object.class_name);
                if (!ghost.ok()) break;
                for (const auto& [name, value] : op.object.attrs) {
                  ghost.value()->Set(name, value);
                }
                const Object copy = *ghost.value();
                (void)store.Remove(copy.oid());
                feed.deleted.push_back(copy);
                break;
              }
            }
          }
          for (auto& [agent_name, feed] : feeds) {
            if (feed.inserted.empty() && feed.deleted.empty()) continue;
            feed.epoch = ++feed_epochs[agent_name];
            const Status live_applied = live.ApplyDelta(feed);
            if (!live_applied.ok()) {
              outcome.failures.push_back(StrCat(
                  "delta-rebuild: batch ", b, " failed to apply to the "
                  "live-updates client: ",
                  live_applied.ToString()));
              aborted = true;
              break;
            }
            const Status demand_applied = demand.ApplyDelta(feed);
            if (!demand_applied.ok()) {
              outcome.failures.push_back(StrCat(
                  "delta-rebuild: batch ", b, " failed to apply to the "
                  "demand-driven client: ",
                  demand_applied.ToString()));
              aborted = true;
              break;
            }
          }
          if (aborted) break;

          // Checkpoint: a from-scratch fixpoint over the same
          // post-batch base state (store replay is exact — OID numbers
          // are never reused).
          const Result<std::unique_ptr<Evaluator>> rebuilt =
              federation.fsm.MakeEvaluator(federation.global);
          if (!rebuilt.ok()) {
            outcome.failures.push_back(StrCat(
                "delta-rebuild: the from-scratch rebuild after batch ", b,
                " failed: ", rebuilt.status().ToString()));
            break;
          }
          const std::map<std::string, std::multiset<std::string>>
              rebuilt_facts = Snapshot(*rebuilt.value(), federation.global);
          const Result<std::map<std::string, std::multiset<std::string>>>
              live_facts = ClientSnapshot(live, federation.global);
          if (!live_facts.ok()) {
            outcome.failures.push_back(StrCat(
                "delta-rebuild: reading the maintained extents after "
                "batch ", b, " failed: ", live_facts.status().ToString()));
            break;
          }
          if (live_facts.value() != rebuilt_facts) {
            for (const auto& [name, keys] : rebuilt_facts) {
              const auto it = live_facts.value().find(name);
              const std::multiset<std::string> empty;
              const std::multiset<std::string>& got =
                  it == live_facts.value().end() ? empty : it->second;
              if (got != keys) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: after batch ", b, " concept ", name,
                    " has ", got.size(),
                    " maintained facts vs ", keys.size(),
                    " in the from-scratch rebuild"));
              }
            }
            break;
          }

          // Demand agreement: a goal sampled from the rebuild's
          // non-empty concepts, and the goal warmed before the batch,
          // must answer identically through both demand clients.
          std::vector<const std::string*> goal_pool;
          for (const auto& [name, keys] : rebuilt_facts) {
            if (!keys.empty()) goal_pool.push_back(&name);
          }
          std::vector<std::string> goals;
          if (!goal_pool.empty()) {
            goals.push_back(
                *goal_pool[Draw(c.seed, 160 + b) % goal_pool.size()]);
          }
          if (!warm_goal.empty() && rebuilt_facts.count(warm_goal) != 0) {
            goals.push_back(warm_goal);
          }
          for (const std::string& goal : goals) {
            for (const auto& [client, client_name] : demand_clients) {
              const Result<std::vector<const Fact*>> answered =
                  client->Extent(goal);
              if (!answered.ok()) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: the ", client_name,
                    " failed to answer ", goal, " after batch ", b, ": ",
                    answered.status().ToString()));
                continue;
              }
              std::multiset<std::string> got;
              for (const Fact* fact : answered.value()) {
                got.insert(fact->AttrKey());
              }
              if (got != rebuilt_facts.at(goal)) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: after batch ", b, " the ", client_name,
                    " answers ", goal, " with ", got.size(), " facts vs ",
                    rebuilt_facts.at(goal).size(),
                    " in the from-scratch rebuild"));
              }
            }
          }
          checkpoint = rebuilt_facts;
        }

        // Post-trace faulted leg: the family-5 guarantees must hold
        // against the post-trace rebuild — subset everywhere sound,
        // equality outside the incomplete set.
        if (!aborted && c.fault_rate > 0) {
          const Result<std::unique_ptr<Evaluator>> settled =
              federation.fsm.MakeEvaluator(federation.global);
          FaultInjector trace_injector(Draw(c.fault_seed, 170),
                                       c.fault_rate);
          FederationOptions faulted_options;
          faulted_options.failure_policy = FailurePolicy::kPartial;
          faulted_options.injector = &trace_injector;
          const Result<FederatedEvaluator> faulted =
              federation.fsm.MakeFederatedEvaluator(federation.global,
                                                    faulted_options);
          if (!settled.ok()) {
            outcome.failures.push_back(StrCat(
                "delta-rebuild: the post-trace rebuild failed: ",
                settled.status().ToString()));
          } else if (!faulted.ok()) {
            outcome.failures.push_back(StrCat(
                "delta-rebuild: the post-trace kPartial evaluation "
                "failed outright: ",
                faulted.status().ToString()));
          } else {
            const std::map<std::string, std::multiset<std::string>>
                settled_facts =
                    Snapshot(*settled.value(), federation.global);
            const std::map<std::string, std::multiset<std::string>>
                faulted_facts =
                    Snapshot(*faulted.value().evaluator, federation.global);
            const DegradedInfo& deg = faulted.value().evaluator->degraded();
            const std::set<std::string> trace_unsound(
                deg.unsound_concepts.begin(), deg.unsound_concepts.end());
            std::set<std::string> trace_accounted(
                deg.incomplete_concepts.begin(),
                deg.incomplete_concepts.end());
            trace_accounted.insert(deg.unsound_concepts.begin(),
                                   deg.unsound_concepts.end());
            for (const auto& [name, keys] : settled_facts) {
              const auto it = faulted_facts.find(name);
              const std::multiset<std::string> empty;
              const std::multiset<std::string>& got =
                  it == faulted_facts.end() ? empty : it->second;
              if (trace_unsound.count(name) == 0 &&
                  !IsSubMultiset(got, keys)) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: post-trace faulted concept ", name,
                    " is not a subset of the post-trace rebuild (",
                    got.size(), " vs ", keys.size(), ")"));
              }
              if (trace_accounted.count(name) == 0 && got != keys) {
                outcome.failures.push_back(StrCat(
                    "delta-rebuild: post-trace faulted concept ", name,
                    " lost facts without being accounted as incomplete "
                    "or unsound (",
                    got.size(), " vs ", keys.size(), ")"));
              }
            }
          }
        }
      }
    }
  }

  return outcome;
}

std::string RenderCase(const ConcreteCase& c) {
  std::string out = StrCat("# conformance case, seed ", c.seed, " (size ",
                           c.Size(), ")\n");
  out += StrCat("# fault schedule: seed=", c.fault_seed, " rate=",
                std::to_string(c.fault_rate), "\n\n");
  out += StrCat("# --- schema ", c.s1.name(), " ---\n");
  out += SchemaToText(c.s1);
  out += StrCat("\n# --- schema ", c.s2.name(), " ---\n");
  out += SchemaToText(c.s2);
  out += "\n# --- assertions ---\n";
  for (const Assertion& assertion : c.assertions) {
    out += assertion.ToString();
    out += "\n";
  }
  out += StrCat("\n# --- instances of ", c.s1.name(), " ---\n");
  out += StoreSpecToText(c.instances1);
  out += StrCat("\n# --- instances of ", c.s2.name(), " ---\n");
  out += StoreSpecToText(c.instances2);
  if (!c.delta_trace.empty()) {
    out += "\n# --- delta trace ---\n";
    out += DeltaTraceToText(c.delta_trace);
  }
  return out;
}

}  // namespace harness
}  // namespace ooint
