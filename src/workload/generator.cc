#include "workload/generator.h"

#include <set>

#include "common/hash.h"
#include "common/string_util.h"
#include "workload/populator.h"

namespace ooint {

namespace {

/// Seeded draws (Draw, splitmix64) rather than std::mt19937, whose
/// distributions vary across standard libraries.
double Rand01(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(Draw(seed, index) >> 11) /
         static_cast<double>(1ULL << 53);
}

size_t RandBelow(std::uint64_t seed, std::uint64_t index, size_t bound) {
  return static_cast<size_t>(Rand01(seed, index) * static_cast<double>(bound));
}

ValueKind KindFor(size_t index) {
  switch (index % 4) {
    case 0:
      return ValueKind::kString;
    case 1:
      return ValueKind::kInteger;
    case 2:
      return ValueKind::kReal;
    default:
      return ValueKind::kBoolean;
  }
}

Status CheckFraction(const char* name, double value) {
  if (value < 0.0 || value > 1.0) {
    return Status::InvalidArgument(
        StrCat(name, " must lie in [0, 1], got ", std::to_string(value)));
  }
  return Status::OK();
}

Status CheckProbability(const char* name, double value) {
  return CheckFraction(name, value);
}

/// Parents of class i under the configured shape, all with index < i.
std::vector<size_t> DrawParents(const SchemaGenOptions& options, size_t i) {
  std::vector<size_t> parents;
  if (i == 0) return parents;
  if (options.shape == IsAShape::kCompleteTree) {
    parents.push_back((i - 1) / options.degree);
    return parents;
  }
  // kRandomDag: maybe an extra root, else 1..max_parents distinct
  // earlier classes. Stream indices are salted per decision so draws
  // stay independent.
  const std::uint64_t base = i * 1000003ULL;
  if (Rand01(options.seed, base) < options.root_probability) return parents;
  std::set<size_t> chosen;
  chosen.insert(RandBelow(options.seed, base + 1, i));
  for (size_t slot = 1; slot < options.max_parents; ++slot) {
    if (Rand01(options.seed, base + 2 * slot) >=
        options.extra_parent_probability) {
      continue;
    }
    chosen.insert(RandBelow(options.seed, base + 2 * slot + 1, i));
  }
  parents.assign(chosen.begin(), chosen.end());
  return parents;
}

Cardinality DrawCardinality(const SchemaGenOptions& options, size_t i) {
  if (options.shape == IsAShape::kCompleteTree) {
    return (i % 2 == 0) ? Cardinality::ManyToOne() : Cardinality::OneToOne();
  }
  switch (SplitMix64(options.seed ^ (i * 0x51afd6edULL)) % 4) {
    case 0:
      return Cardinality::OneToOne();
    case 1:
      return Cardinality::OneToMany();
    case 2:
      return Cardinality::ManyToOne();
    default:
      return Cardinality::ManyToMany();
  }
}

}  // namespace

Result<Schema> GenerateSchema(const SchemaGenOptions& options) {
  if (options.num_classes == 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (options.degree == 0) {
    return Status::InvalidArgument("degree must be positive");
  }
  if (options.shape == IsAShape::kRandomDag && options.max_parents == 0) {
    return Status::InvalidArgument("max_parents must be positive");
  }
  OOINT_RETURN_IF_ERROR(
      CheckProbability("root_probability", options.root_probability));
  OOINT_RETURN_IF_ERROR(CheckProbability("extra_parent_probability",
                                         options.extra_parent_probability));

  // Parent sets first: aggregation generation needs them.
  std::vector<std::vector<size_t>> parents(options.num_classes);
  for (size_t i = 1; i < options.num_classes; ++i) {
    parents[i] = DrawParents(options, i);
  }

  Schema schema(options.name);
  for (size_t i = 0; i < options.num_classes; ++i) {
    ClassDef class_def(StrCat(options.class_prefix, i));
    class_def.AddAttribute("key", ValueKind::kString);
    for (size_t a = 0; a < options.attrs_per_class; ++a) {
      class_def.AddAttribute(StrCat("a", a), KindFor(a + i));
    }
    if (options.with_aggregations && !parents[i].empty()) {
      class_def.AddAggregation(
          "ref_parent", StrCat(options.class_prefix, parents[i].front()),
          DrawCardinality(options, i));
    }
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(class_def)).status());
  }
  for (size_t i = 1; i < options.num_classes; ++i) {
    for (size_t parent : parents[i]) {
      OOINT_RETURN_IF_ERROR(schema.AddIsA(StrCat(options.class_prefix, i),
                                          StrCat(options.class_prefix,
                                                 parent)));
    }
  }
  OOINT_RETURN_IF_ERROR(schema.Finalize());
  return schema;
}

Result<Schema> GenerateCounterpartSchema(const Schema& schema,
                                         const std::string& new_name,
                                         const std::string& class_prefix) {
  Schema out(new_name);
  for (size_t i = 0; i < schema.NumClasses(); ++i) {
    const ClassDef& original = schema.class_def(static_cast<ClassId>(i));
    ClassDef copy(StrCat(class_prefix, i));
    for (const Attribute& attr : original.attributes()) {
      copy.AddAttribute(attr);
    }
    for (const AggregationFunction& fn : original.aggregations()) {
      // Ranges rename along with the classes; alternate the cardinality
      // differently from the original so counterpart integration hits
      // constraint conflicts (Principle 6).
      const ClassId range = schema.FindClass(fn.range_class);
      copy.AddAggregation(fn.name, StrCat(class_prefix, range),
                          (i % 3 == 0) ? Cardinality::OneToMany()
                                       : fn.cardinality);
    }
    OOINT_RETURN_IF_ERROR(out.AddClass(std::move(copy)).status());
  }
  for (size_t i = 0; i < schema.NumClasses(); ++i) {
    for (ClassId parent : schema.ParentsOf(static_cast<ClassId>(i))) {
      OOINT_RETURN_IF_ERROR(out.AddIsA(StrCat(class_prefix, i),
                                       StrCat(class_prefix, parent)));
    }
  }
  OOINT_RETURN_IF_ERROR(out.Finalize());
  return out;
}

Result<AssertionSet> GenerateAssertions(const Schema& s1, const Schema& s2,
                                        const std::string& s1_prefix,
                                        const std::string& s2_prefix,
                                        const AssertionGenOptions& options) {
  if (s1.NumClasses() != s2.NumClasses()) {
    return Status::InvalidArgument(
        "assertion generation expects counterpart schemas of equal size");
  }
  OOINT_RETURN_IF_ERROR(
      CheckFraction("equivalence_fraction", options.equivalence_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("inclusion_fraction", options.inclusion_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("disjoint_fraction", options.disjoint_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("derivation_fraction", options.derivation_fraction));
  const double sum = options.equivalence_fraction +
                     options.inclusion_fraction + options.disjoint_fraction +
                     options.derivation_fraction;
  if (sum > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        StrCat("assertion-kind fractions must sum to at most 1, got ",
               std::to_string(sum)));
  }
  AssertionSet set;
  const double eq = options.equivalence_fraction;
  const double inc = eq + options.inclusion_fraction;
  const double dis = inc + options.disjoint_fraction;
  const double der = dis + options.derivation_fraction;

  // The assertion kind drawn for each class index (used to keep the set
  // coherent: per observation 3 of Section 6.1, DBAs "tend not to give
  // an assertion" for descendants of disjoint / derivation-related
  // classes, so such children draw no assertion here).
  auto kind_of = [&](size_t i) -> int {
    const double u = Rand01(options.seed, i);
    if (u < eq || i == 0) return 0;  // equivalence
    if (u < inc) return 1;           // inclusion
    if (u < dis) return 2;           // disjoint
    if (u < der) return 3;           // derivation
    return 4;                        // none
  };
  for (size_t i = 0; i < s1.NumClasses(); ++i) {
    const ClassRef a{s1.name(), StrCat(s1_prefix, i)};
    const ClassRef b{s2.name(), StrCat(s2_prefix, i)};
    const double u = Rand01(options.seed, i);
    Assertion assertion;
    const std::vector<ClassId> parents =
        s1.ParentsOf(static_cast<ClassId>(i));
    if (i != 0 && !parents.empty()) {
      const int parent_kind = kind_of(static_cast<size_t>(parents.front()));
      if (parent_kind == 2 || parent_kind == 3) continue;
    }
    if (u < eq || i == 0) {
      assertion.lhs = {a};
      assertion.rel = SetRel::kEquivalent;
      assertion.rhs = b;
      if (options.attribute_correspondences) {
        assertion.attr_corrs.push_back(
            {Path::Attr(a.schema, a.class_name, "key"), AttrRel::kEquivalent,
             Path::Attr(b.schema, b.class_name, "key"), "", std::nullopt});
      }
      // Extra DAG roots carry no ref_parent; only pair the functions
      // where both counterpart classes actually declare them.
      if (options.aggregation_correspondences && i > 0 &&
          s1.class_def(static_cast<ClassId>(i))
                  .FindAggregation("ref_parent") != nullptr &&
          s2.class_def(static_cast<ClassId>(i))
                  .FindAggregation("ref_parent") != nullptr) {
        assertion.agg_corrs.push_back(
            {Path::Attr(a.schema, a.class_name, "ref_parent"),
             AggRel::kEquivalent,
             Path::Attr(b.schema, b.class_name, "ref_parent")});
      }
    } else if (u < inc) {
      if (parents.empty()) continue;  // extra roots have no parent to chain
      // Include into the counterparts of the parent AND the grandparent
      // (when one exists) — the inclusion chains of Fig. 8, which
      // path_labelling collapses into the single deepest is-a link and
      // whose labels prune later sibling/descendant pairs.
      const size_t parent = static_cast<size_t>(parents.front());
      const std::vector<ClassId> grandparents =
          s1.ParentsOf(static_cast<ClassId>(parent));
      if (!grandparents.empty()) {
        Assertion chain;
        chain.lhs = {a};
        chain.rel = SetRel::kSubset;
        chain.rhs = {s2.name(),
                     StrCat(s2_prefix, static_cast<size_t>(
                                           grandparents.front()))};
        const Status added = set.Add(std::move(chain));
        if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
          return added;
        }
      }
      assertion.lhs = {a};
      assertion.rel = SetRel::kSubset;
      assertion.rhs = {s2.name(), StrCat(s2_prefix, parent)};
    } else if (u < dis) {
      assertion.lhs = {a};
      assertion.rel = SetRel::kDisjoint;
      assertion.rhs = b;
    } else if (u < der) {
      if (parents.empty()) continue;
      const size_t parent = static_cast<size_t>(parents.front());
      assertion.lhs = {a, {s1.name(), StrCat(s1_prefix, parent)}};
      assertion.rel = SetRel::kDerivation;
      assertion.rhs = b;
      assertion.attr_corrs.push_back(
          {Path::Attr(a.schema, a.class_name, "key"), AttrRel::kEquivalent,
           Path::Attr(b.schema, b.class_name, "key"), "", std::nullopt});
    } else {
      continue;  // no assertion for this class
    }
    const Status added = set.Add(std::move(assertion));
    if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
      return added;
    }
  }
  return set;
}

Result<AssertionSet> GenerateRandomAssertions(
    const Schema& s1, const Schema& s2,
    const RandomAssertionGenOptions& options) {
  OOINT_RETURN_IF_ERROR(
      CheckFraction("equivalence_fraction", options.equivalence_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("inclusion_fraction", options.inclusion_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("overlap_fraction", options.overlap_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("disjoint_fraction", options.disjoint_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("derivation_fraction", options.derivation_fraction));
  OOINT_RETURN_IF_ERROR(
      CheckFraction("inconsistent_fraction", options.inconsistent_fraction));
  const double sum = options.equivalence_fraction +
                     options.inclusion_fraction + options.overlap_fraction +
                     options.disjoint_fraction + options.derivation_fraction;
  if (sum > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        StrCat("assertion-kind fractions must sum to at most 1, got ",
               std::to_string(sum)));
  }
  if (s1.NumClasses() == 0 || s2.NumClasses() == 0) {
    return Status::InvalidArgument("both schemas must have classes");
  }

  const double eq = options.equivalence_fraction;
  const double inc = eq + options.inclusion_fraction;
  const double ovl = inc + options.overlap_fraction;
  const double dis = ovl + options.disjoint_fraction;
  const double der = dis + options.derivation_fraction;

  auto ref_of = [](const Schema& schema, size_t i) {
    return ClassRef{schema.name(),
                    schema.class_def(static_cast<ClassId>(i)).name()};
  };
  auto key_corr = [&](const ClassRef& a, const ClassRef& b)
      -> std::optional<AttributeCorrespondence> {
    if (!options.attribute_correspondences) return std::nullopt;
    const ClassDef& ca = *([&]() {
      const Schema& schema = (a.schema == s1.name()) ? s1 : s2;
      return &schema.class_def(schema.FindClass(a.class_name));
    }());
    const ClassDef& cb = *([&]() {
      const Schema& schema = (b.schema == s1.name()) ? s1 : s2;
      return &schema.class_def(schema.FindClass(b.class_name));
    }());
    if (ca.FindAttribute("key") == nullptr ||
        cb.FindAttribute("key") == nullptr) {
      return std::nullopt;
    }
    return AttributeCorrespondence{
        Path::Attr(a.schema, a.class_name, "key"), AttrRel::kEquivalent,
        Path::Attr(b.schema, b.class_name, "key"), "", std::nullopt};
  };

  AssertionSet set;
  auto add = [&set](Assertion assertion) -> Status {
    const Status added = set.Add(std::move(assertion));
    if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
      return added;
    }
    return Status::OK();
  };

  // s2 classes already claimed by a set-relation assertion
  // (unique_partners mode).
  std::set<size_t> claimed;
  for (size_t i = 0; i < s1.NumClasses(); ++i) {
    const std::uint64_t base = 0x7f4a7c15ULL + i * 7919ULL;
    const double u = Rand01(options.seed, base);
    size_t j = RandBelow(options.seed, base + 1, s2.NumClasses());
    const bool set_relation = u < dis;  // ≡ / ⊆ / ⊇ / ∩ / ∅
    if (options.unique_partners && set_relation) {
      // Linear-probe to the next unclaimed s2 class; give up (no
      // assertion for class i) when every partner is taken.
      size_t probes = 0;
      while (claimed.count(j) > 0 && probes < s2.NumClasses()) {
        j = (j + 1) % s2.NumClasses();
        ++probes;
      }
      if (claimed.count(j) > 0) continue;
      claimed.insert(j);
    }
    const ClassRef a = ref_of(s1, i);
    const ClassRef b = ref_of(s2, j);

    Assertion assertion;
    assertion.lhs = {a};
    assertion.rhs = b;
    bool emit = true;
    if (u < eq) {
      assertion.rel = SetRel::kEquivalent;
      if (auto corr = key_corr(a, b)) assertion.attr_corrs.push_back(*corr);
      if (options.aggregation_correspondences) {
        const ClassDef& ca = s1.class_def(static_cast<ClassId>(i));
        const ClassDef& cb = s2.class_def(static_cast<ClassId>(j));
        if (ca.FindAggregation("ref_parent") != nullptr &&
            cb.FindAggregation("ref_parent") != nullptr) {
          assertion.agg_corrs.push_back(
              {Path::Attr(a.schema, a.class_name, "ref_parent"),
               AggRel::kEquivalent,
               Path::Attr(b.schema, b.class_name, "ref_parent")});
        }
      }
    } else if (u < inc) {
      assertion.rel = (Rand01(options.seed, base + 2) < 0.5)
                          ? SetRel::kSubset
                          : SetRel::kSuperset;
    } else if (u < ovl) {
      assertion.rel = SetRel::kOverlap;
    } else if (u < dis) {
      assertion.rel = SetRel::kDisjoint;
    } else if (u < der) {
      // Derivations run in both directions; about half derive an s1
      // concept from s2, the rest the other way around. A second lhs
      // class (the parent, when one exists) exercises multi-class
      // derivations, optionally tied together by a same-schema value
      // correspondence.
      const bool forward = Rand01(options.seed, base + 3) < 0.5;
      const ClassRef& derived = forward ? b : a;
      const ClassRef& ground = forward ? a : b;
      const Schema& ground_schema = forward ? s1 : s2;
      const size_t ground_index = forward ? i : j;
      assertion.lhs = {ground};
      assertion.rhs = derived;
      assertion.rel = SetRel::kDerivation;
      const std::vector<ClassId> parents =
          ground_schema.ParentsOf(static_cast<ClassId>(ground_index));
      if (!parents.empty() && Rand01(options.seed, base + 4) < 0.5) {
        const ClassRef second =
            ref_of(ground_schema, static_cast<size_t>(parents.front()));
        assertion.lhs.push_back(second);
        if (Rand01(options.seed, base + 5) < 0.5) {
          ValueCorrespondence vc;
          // The correspondence ties the two ground (lhs) classes
          // together, whichever schema they live in — always side 1.
          vc.side = 1;
          vc.lhs = Path::Attr(ground.schema, ground.class_name, "key");
          vc.rel = ValueRel::kEq;
          vc.rhs = Path::Attr(second.schema, second.class_name, "key");
          assertion.value_corrs.push_back(vc);
        }
      }
      if (auto corr = key_corr(ground, derived)) {
        assertion.attr_corrs.push_back(*corr);
      }
    } else {
      emit = false;  // no assertion for this class
    }
    if (emit) OOINT_RETURN_IF_ERROR(add(std::move(assertion)));

    // Deliberate inconsistency: with is_a(c_i, c_p) local to s1, the
    // pair { c_p ⊆ d_j', d_j' ⊆ c_i } forces the cycle
    // c_i → c_p → d_j' → c_i, which CheckConsistency must flag as a
    // hierarchy-cycle error.
    if (options.inconsistent_fraction > 0.0 &&
        Rand01(options.seed, base + 6) < options.inconsistent_fraction) {
      const std::vector<ClassId> parents =
          s1.ParentsOf(static_cast<ClassId>(i));
      if (!parents.empty()) {
        const size_t jj = RandBelow(options.seed, base + 7, s2.NumClasses());
        const ClassRef parent =
            ref_of(s1, static_cast<size_t>(parents.front()));
        const ClassRef target = ref_of(s2, jj);
        Assertion up;
        up.lhs = {parent};
        up.rel = SetRel::kSubset;
        up.rhs = target;
        OOINT_RETURN_IF_ERROR(add(std::move(up)));
        Assertion down;
        down.lhs = {a};
        down.rel = SetRel::kSuperset;
        down.rhs = target;
        OOINT_RETURN_IF_ERROR(add(std::move(down)));
      }
    }
  }
  return set;
}

}  // namespace ooint
