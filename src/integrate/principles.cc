#include "integrate/principles.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "rules/rule_generator.h"

namespace ooint {

bool PendingOperations::Seen(const Assertion* assertion) {
  return !seen_assertions_.insert(assertion).second;
}

void PendingOperations::Record(const ClassPairIndex::Lookup& lookup,
                               int side, ClassId n1, ClassId n2) {
  if (!lookup.found()) return;
  switch (lookup.rel) {
    case SetRel::kEquivalent:
      if (!Seen(lookup.assertion)) equivalences_.push_back(lookup.assertion);
      break;
    case SetRel::kSubset:
      RecordIsA(side, n1, n2);
      break;
    case SetRel::kSuperset:
      RecordIsA(3 - side, n2, n1);
      break;
    case SetRel::kOverlap:
      if (!Seen(lookup.assertion)) intersections_.push_back(lookup.assertion);
      break;
    case SetRel::kDisjoint:
      if (!Seen(lookup.assertion)) disjoints_.push_back(lookup.assertion);
      break;
    case SetRel::kDerivation:
      for (const Assertion* derivation : *lookup.derivations) {
        if (!Seen(derivation)) derivations_.push_back(derivation);
      }
      break;
  }
}

void PendingOperations::RecordIsA(int side, ClassId sub, ClassId super) {
  if (seen_isa_.emplace(side, sub, super).second) {
    inclusions_.push_back({side, sub, super});
  }
}

namespace {

constexpr size_t kNoClass = IntegratedSchema::kNoClass;

std::string CopyName(const ClassRef& ref) {
  return StrCat("IS(", ref.schema, ".", ref.class_name, ")");
}

std::string MergedName(const ClassRef& a, const ClassRef& b) {
  return StrCat("IS(", a.schema, ".", a.class_name, ",", b.schema, ".",
                b.class_name, ")");
}

/// Integrated-attribute naming: the shared name when both sides agree,
/// otherwise lhs_rhs (the paper's income_study_support pattern).
std::string JoinAttrName(const std::string& a, const std::string& b) {
  return a == b ? a : StrCat(a, "_", b);
}

/// Adds `attribute` to `out`, qualifying the name with "@<schema>" on
/// collision (unasserted same-named attributes accumulated from both
/// sides).
void AddAttributeUnique(IntegratedClass* out, IntegratedAttribute attribute,
                        const std::string& qualifier) {
  if (out->FindAttribute(attribute.name) != nullptr) {
    attribute.name = StrCat(attribute.name, "@", qualifier);
    if (out->FindAttribute(attribute.name) != nullptr) return;  // duplicate
  }
  out->attributes.push_back(std::move(attribute));
}

/// Gives `attribute` the scalar type and multiplicity of the first of
/// `locals` that exists and is scalar — the local attributes its sources
/// name, in source order. A concatenation keeps the default string type.
IntegratedAttribute Typed(IntegratedAttribute attribute,
                          std::initializer_list<const Attribute*> locals) {
  for (const Attribute* local : locals) {
    if (local == nullptr || local->type.is_class()) continue;
    attribute.type = local->type.scalar;
    attribute.multi_valued = local->multi_valued;
    break;
  }
  return attribute;
}

/// The attribute `name` of `class_def`; nullptr when either is missing.
const Attribute* AttributeOf(const ClassDef* class_def,
                             const std::string& name) {
  return class_def == nullptr ? nullptr : class_def->FindAttribute(name);
}

/// True when `path` denotes a direct attribute (or aggregation) of the
/// class `ref` — merging only handles one-component paths; deeper paths
/// are the business of derivation rules.
bool IsDirectPathOf(const Path& path, const ClassRef& ref) {
  return path.schema() == ref.schema && path.class_name() == ref.class_name &&
         path.components().size() == 1 && !path.name_ref();
}

/// Records that local class `local` (named `ref`) is represented by the
/// integrated class at `index`, in the result's source map and by id.
void MapLocal(IntegrationContext* ctx, const LocalClass& local,
              const ClassRef& ref, size_t index) {
  ctx->result.MapSource(ref, index);
  ctx->IndexOf(local.side, local.id) = index;
}

/// Integrates the attribute correspondences of `assertion` into `out`
/// (the switch of Principle 1); records handled local attribute names in
/// `handled_lhs` / `handled_rhs`. `class_a` and `class_b` are the local
/// classes behind `a` and `b`.
void IntegrateAttrCorrs(const Assertion& assertion, const ClassRef& a,
                        const ClassRef& b, const ClassDef* class_a,
                        const ClassDef* class_b, IntegratedClass* out,
                        std::set<std::string>* handled_lhs,
                        std::set<std::string>* handled_rhs) {
  for (const AttributeCorrespondence& ac : assertion.attr_corrs) {
    // Normalize orientation: la rooted at a, rb rooted at b.
    const AttributeCorrespondence* corr = &ac;
    AttributeCorrespondence flipped;
    bool flipped_orientation = false;
    if (IsDirectPathOf(ac.lhs, b) && IsDirectPathOf(ac.rhs, a)) {
      flipped = ac;
      std::swap(flipped.lhs, flipped.rhs);
      flipped.rel = ReverseAttrRel(ac.rel);
      corr = &flipped;
      flipped_orientation = true;
    } else if (!(IsDirectPathOf(ac.lhs, a) && IsDirectPathOf(ac.rhs, b))) {
      continue;  // nested path correspondence: handled by rules
    }
    const std::string& la = corr->lhs.leaf();
    const std::string& rb = corr->rhs.leaf();
    const Attribute* attr_a = AttributeOf(class_a, la);
    const Attribute* attr_b = AttributeOf(class_b, rb);
    handled_lhs->insert(la);
    handled_rhs->insert(rb);
    switch (corr->rel) {
      case AttrRel::kEquivalent:
      case AttrRel::kSubset:
      case AttrRel::kSuperset:
        out->attributes.push_back(
            Typed({JoinAttrName(la, rb), ValueSetOp::kUnion,
                   {corr->lhs, corr->rhs}, ""},
                  {attr_a, attr_b}));
        break;
      case AttrRel::kOverlap:
        // Three new attributes a_, b_ and a_b (Principle 1, case a∩b).
        out->attributes.push_back(
            Typed({StrCat(la, "_"), ValueSetOp::kDifference,
                   {corr->lhs, corr->rhs}, ""},
                  {attr_a, attr_b}));
        out->attributes.push_back(
            Typed({StrCat(rb, "_"), ValueSetOp::kDifference,
                   {corr->rhs, corr->lhs}, ""},
                  {attr_b, attr_a}));
        out->attributes.push_back(
            Typed({StrCat(la, "_", rb), ValueSetOp::kIntersectAif,
                   {corr->lhs, corr->rhs}, StrCat("AIF_", la, "_", rb)},
                  {attr_a, attr_b}));
        break;
      case AttrRel::kDisjoint:
        out->attributes.push_back(
            Typed({la, ValueSetOp::kCopy, {corr->lhs}, ""}, {attr_a}));
        AddAttributeUnique(
            out, Typed({rb, ValueSetOp::kCopy, {corr->rhs}, ""}, {attr_b}),
            corr->rhs.schema());
        break;
      case AttrRel::kComposedInto:
        out->attributes.push_back({corr->composed_name,
                                   ValueSetOp::kConcatenation,
                                   {corr->lhs, corr->rhs}, ""});
        break;
      case AttrRel::kMoreSpecific: {
        // β is directional: keep the more specific attribute — the lhs
        // of the correspondence as *declared* (swapping operands does
        // not mirror β the way it mirrors ⊆/⊇).
        const Path& specific = flipped_orientation ? corr->rhs : corr->lhs;
        const Path& general = flipped_orientation ? corr->lhs : corr->rhs;
        const Attribute* specific_attr = flipped_orientation ? attr_b : attr_a;
        const Attribute* general_attr = flipped_orientation ? attr_a : attr_b;
        out->attributes.push_back(Typed(
            {specific.leaf(), ValueSetOp::kMoreSpecific, {specific, general},
             ""},
            {specific_attr, general_attr}));
        break;
      }
    }
  }
}

/// Integrates the aggregation-function correspondences (Principle 1's
/// second switch, deferring cardinality resolution to the lattice of
/// Principle 6).
void IntegrateAggCorrs(IntegrationContext* ctx, const Assertion& assertion,
                       const ClassRef& a, const ClassRef& b,
                       const ClassDef* class_a, const ClassDef* class_b,
                       IntegratedClass* out,
                       std::set<std::string>* handled_lhs,
                       std::set<std::string>* handled_rhs) {
  for (const AggCorrespondence& gc : assertion.agg_corrs) {
    const AggCorrespondence* corr = &gc;
    AggCorrespondence flipped;
    if (IsDirectPathOf(gc.lhs, b) && IsDirectPathOf(gc.rhs, a)) {
      flipped = gc;
      std::swap(flipped.lhs, flipped.rhs);
      flipped.rel = ReverseAggRel(gc.rel);
      corr = &flipped;
    } else if (!(IsDirectPathOf(gc.lhs, a) && IsDirectPathOf(gc.rhs, b))) {
      continue;
    }
    const AggregationFunction* fa =
        class_a == nullptr ? nullptr : class_a->FindAggregation(
                                           corr->lhs.leaf());
    const AggregationFunction* fb =
        class_b == nullptr ? nullptr : class_b->FindAggregation(
                                           corr->rhs.leaf());
    if (fa == nullptr || fb == nullptr) continue;
    handled_lhs->insert(fa->name);
    handled_rhs->insert(fb->name);
    switch (corr->rel) {
      case AggRel::kReverse:
      case AggRel::kDisjoint:
        // Both functions kept with their local cardinality constraints.
        out->aggregations.push_back({fa->name,
                                     {a.schema, fa->range_class},
                                     "",
                                     fa->cardinality,
                                     {corr->lhs}});
        out->aggregations.push_back({fb->name == fa->name
                                         ? StrCat(fb->name, "@", b.schema)
                                         : fb->name,
                                     {b.schema, fb->range_class},
                                     "",
                                     fb->cardinality,
                                     {corr->rhs}});
        break;
      case AggRel::kEquivalent:
      case AggRel::kSubset:
      case AggRel::kSuperset:
      case AggRel::kOverlap: {
        // Merge into IS_fg with lcs(cc1, cc2) (Principle 6).
        if (fa->cardinality != fb->cardinality) {
          ++ctx->stats.cardinality_conflicts_resolved;
        }
        out->aggregations.push_back(
            {JoinAttrName(fa->name, fb->name),
             {a.schema, fa->range_class},
             "",
             Cardinality::LeastCommonSuper(fa->cardinality, fb->cardinality),
             {corr->lhs, corr->rhs}});
        break;
      }
    }
  }
}

/// Accumulates the attributes and aggregations of local class
/// `class_def` (named `ref`) not mentioned in any correspondence
/// (default strategy 2: unasserted attributes are semantically disjoint
/// and simply accumulated).
void AccumulateRemaining(const ClassDef& class_def, const ClassRef& ref,
                         const std::set<std::string>& handled,
                         IntegratedClass* out) {
  for (const Attribute& attr : class_def.attributes()) {
    if (handled.count(attr.name) != 0) continue;
    // Typed like its source path, which names the first attribute
    // called attr.name.
    AddAttributeUnique(
        out,
        Typed({attr.name,
               ValueSetOp::kCopy,
               {Path::Attr(ref.schema, ref.class_name, attr.name)},
               ""},
              {class_def.FindAttribute(attr.name)}),
        ref.schema);
  }
  for (const AggregationFunction& fn : class_def.aggregations()) {
    if (handled.count(fn.name) != 0) continue;
    out->aggregations.push_back({fn.name,
                                 {ref.schema, fn.range_class},
                                 "",
                                 fn.cardinality,
                                 {Path::Attr(ref.schema, ref.class_name,
                                             fn.name)}});
  }
}

/// Default strategy 1 for a resolved local class: its integrated class,
/// copied from it unless one already represents it. Returns the index.
Result<size_t> EnsureLocalCopy(IntegrationContext* ctx,
                               const LocalClass& local, const ClassRef& ref) {
  const size_t existing = ctx->IndexOf(local.side, local.id);
  if (existing != kNoClass) return existing;
  IntegratedClass copy;
  copy.name = CopyName(ref);
  copy.kind = ISClassKind::kCopied;
  copy.sources = {ref};
  AccumulateRemaining(*local.def, ref, {}, &copy);
  OOINT_ASSIGN_OR_RETURN(const size_t index,
                         ctx->result.AddClass(std::move(copy)));
  MapLocal(ctx, local, ref, index);
  return index;
}

/// Principle 1: merges two equivalent classes into one integrated class.
Status ApplyEquivalence(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  const LocalClass local_a = ctx->Resolve(a);
  const LocalClass local_b = ctx->Resolve(b);
  if (!local_a.found() || !local_b.found()) {
    return Status::NotFound(StrCat("equivalence ", a.ToString(), " == ",
                                   b.ToString(),
                                   " names a class in neither schema"));
  }
  const size_t existing_a = ctx->IndexOf(local_a.side, local_a.id);
  const size_t existing_b = ctx->IndexOf(local_b.side, local_b.id);
  if (existing_a != kNoClass && existing_a == existing_b) return Status::OK();

  std::set<std::string> handled_lhs;
  std::set<std::string> handled_rhs;
  if (existing_a != kNoClass || existing_b != kNoClass) {
    // A second equivalence touching an already-merged class: extend the
    // existing merged class with the new counterpart's material.
    const bool a_mapped = existing_a != kNoClass;
    const size_t index = a_mapped ? existing_a : existing_b;
    const ClassRef& incoming = a_mapped ? b : a;
    const LocalClass& incoming_local = a_mapped ? local_b : local_a;
    IntegratedClass* merged = ctx->result.MutableClass(index);
    merged->sources.push_back(incoming);
    IntegrateAttrCorrs(assertion, a, b, local_a.def, local_b.def, merged,
                       &handled_lhs, &handled_rhs);
    IntegrateAggCorrs(ctx, assertion, a, b, local_a.def, local_b.def, merged,
                      &handled_lhs, &handled_rhs);
    AccumulateRemaining(*incoming_local.def, incoming,
                        a_mapped ? handled_rhs : handled_lhs, merged);
    MapLocal(ctx, incoming_local, incoming, index);
    ++ctx->stats.classes_merged;
    return Status::OK();
  }

  IntegratedClass merged;
  merged.name = MergedName(a, b);
  merged.kind = ISClassKind::kMerged;
  merged.sources = {a, b};
  IntegrateAttrCorrs(assertion, a, b, local_a.def, local_b.def, &merged,
                     &handled_lhs, &handled_rhs);
  IntegrateAggCorrs(ctx, assertion, a, b, local_a.def, local_b.def, &merged,
                    &handled_lhs, &handled_rhs);
  AccumulateRemaining(*local_a.def, a, handled_lhs, &merged);
  AccumulateRemaining(*local_b.def, b, handled_rhs, &merged);
  OOINT_ASSIGN_OR_RETURN(const size_t index,
                         ctx->result.AddClass(std::move(merged)));
  MapLocal(ctx, local_a, a, index);
  MapLocal(ctx, local_b, b, index);
  ++ctx->stats.classes_merged;
  return Status::OK();
}

/// Resolves `ref` into `*local` and ensures its integrated copy; NotFound
/// when `ref` names a class of neither schema.
Result<size_t> ResolveAndCopy(IntegrationContext* ctx, const ClassRef& ref,
                              LocalClass* local) {
  *local = ctx->Resolve(ref);
  if (!local->found()) {
    return Status::NotFound(
        StrCat("class ", ref.ToString(), " not found in either schema"));
  }
  return EnsureLocalCopy(ctx, *local, ref);
}

OTerm Membership(const std::string& class_name, const std::string& var) {
  OTerm term;
  term.object = TermArg::Variable(var);
  term.class_name = class_name;
  return term;
}

/// Principle 3: virtual intersection and difference classes plus their
/// defining rules.
Status ApplyIntersection(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  LocalClass local_a;
  LocalClass local_b;
  OOINT_ASSIGN_OR_RETURN(const size_t is_a, ResolveAndCopy(ctx, a, &local_a));
  OOINT_ASSIGN_OR_RETURN(const size_t is_b, ResolveAndCopy(ctx, b, &local_b));
  const std::string is_a_name = ctx->result.classes()[is_a].name;
  const std::string is_b_name = ctx->result.classes()[is_b].name;

  IntegratedClass both;
  both.name = StrCat("IS(", a.ToString(), "&", b.ToString(), ")");
  both.kind = ISClassKind::kVirtualIntersection;
  both.sources = {a, b};
  {
    std::set<std::string> handled_lhs;
    std::set<std::string> handled_rhs;
    IntegrateAttrCorrs(assertion, a, b, local_a.def, local_b.def, &both,
                       &handled_lhs, &handled_rhs);
    IntegrateAggCorrs(ctx, assertion, a, b, local_a.def, local_b.def, &both,
                      &handled_lhs, &handled_rhs);
    // Note: no rules (or attributes) are created for the attributes
    // outside the correspondences — "we do not establish rules for
    // attributes appearing in IS_faculty and IS_student since, for them,
    // no integration happens at all" (Example 8).
  }
  IntegratedClass only_a;
  only_a.name = StrCat("IS(", a.ToString(), "-", b.ToString(), ")");
  only_a.kind = ISClassKind::kVirtualDifference;
  only_a.sources = {a};
  IntegratedClass only_b;
  only_b.name = StrCat("IS(", b.ToString(), "-", a.ToString(), ")");
  only_b.kind = ISClassKind::kVirtualDifference;
  only_b.sources = {b};

  const std::string both_name = both.name;
  const std::string only_a_name = only_a.name;
  const std::string only_b_name = only_b.name;
  OOINT_ASSIGN_OR_RETURN(const size_t both_index,
                         ctx->result.AddClass(std::move(both)));
  OOINT_ASSIGN_OR_RETURN(const size_t only_a_index,
                         ctx->result.AddClass(std::move(only_a)));
  OOINT_ASSIGN_OR_RETURN(const size_t only_b_index,
                         ctx->result.AddClass(std::move(only_b)));

  // <x: IS_AB> <= <x: IS(A)>, <y: IS(B)>, y = x.
  Rule both_rule;
  both_rule.head.push_back(Literal::OfOTerm(Membership(both_name, "x")));
  both_rule.body.push_back(Literal::OfOTerm(Membership(is_a_name, "x")));
  both_rule.body.push_back(Literal::OfOTerm(Membership(is_b_name, "y")));
  both_rule.body.push_back(Literal::OfCompare(
      TermArg::Variable("y"), CompareOp::kEq, TermArg::Variable("x")));
  both_rule.provenance = StrCat("principle-3(", a.ToString(), " ~ ",
                                b.ToString(), ")");

  // <x: IS_A-> <= <x: IS(A)>, not <x: IS_AB>.
  Rule a_rule;
  a_rule.head.push_back(Literal::OfOTerm(Membership(only_a_name, "x")));
  a_rule.body.push_back(Literal::OfOTerm(Membership(is_a_name, "x")));
  a_rule.body.push_back(
      Literal::OfOTerm(Membership(both_name, "x"), /*negated=*/true));
  a_rule.provenance = both_rule.provenance;

  Rule b_rule;
  b_rule.head.push_back(Literal::OfOTerm(Membership(only_b_name, "x")));
  b_rule.body.push_back(Literal::OfOTerm(Membership(is_b_name, "x")));
  b_rule.body.push_back(
      Literal::OfOTerm(Membership(both_name, "x"), /*negated=*/true));
  b_rule.provenance = both_rule.provenance;

  ctx->result.AddRule(std::move(both_rule));
  ctx->result.AddRule(std::move(a_rule));
  ctx->result.AddRule(std::move(b_rule));
  ctx->stats.rules_generated += 3;

  // The virtual classes sit below their constituents in the hierarchy.
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(both_index, is_a));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(both_index, is_b));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(only_a_index, is_a));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(only_b_index, is_b));
  ctx->stats.isa_links_inserted += 4;
  return Status::OK();
}

/// Principle 4: completion rules for disjoint subclasses of equivalent
/// parents, plus the reverse-aggregation variant.
Status ApplyDisjoint(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  LocalClass local_a;
  LocalClass local_b;
  OOINT_ASSIGN_OR_RETURN(const size_t is_a, ResolveAndCopy(ctx, a, &local_a));
  OOINT_ASSIGN_OR_RETURN(const size_t is_b, ResolveAndCopy(ctx, b, &local_b));
  const std::string is_a_name = ctx->result.classes()[is_a].name;
  const std::string is_b_name = ctx->result.classes()[is_b].name;

  // Find equivalent ancestors A' ⊇ A (in S1) and B' ⊇ B (in S2): the
  // assertion is meaningful only then (Principle 4's precondition).
  const Schema& schema_a = ctx->schema(local_a.side);
  const Schema& schema_b = ctx->schema(local_b.side);
  std::string merged_parent;
  for (ClassId ancestor_a : schema_a.Ancestors(local_a.id)) {
    for (ClassId ancestor_b : schema_b.Ancestors(local_b.id)) {
      const ClassPairIndex::Lookup lookup =
          ctx->pairs->Find(local_a.side, ancestor_a, ancestor_b);
      const size_t merged = ctx->IndexOf(local_a.side, ancestor_a);
      if (lookup.found() && lookup.rel == SetRel::kEquivalent &&
          merged != kNoClass) {
        merged_parent = ctx->result.classes()[merged].name;
        break;
      }
    }
    if (!merged_parent.empty()) break;
  }

  if (!merged_parent.empty()) {
    // <x: IS(B)> <= <x: merged(A',B')>, not <x: IS(A)>   (and converse).
    Rule to_b;
    to_b.head.push_back(Literal::OfOTerm(Membership(is_b_name, "x")));
    to_b.body.push_back(Literal::OfOTerm(Membership(merged_parent, "x")));
    to_b.body.push_back(
        Literal::OfOTerm(Membership(is_a_name, "x"), /*negated=*/true));
    to_b.provenance = StrCat("principle-4(", a.ToString(), " ! ",
                             b.ToString(), ")");
    Rule to_a;
    to_a.head.push_back(Literal::OfOTerm(Membership(is_a_name, "x")));
    to_a.body.push_back(Literal::OfOTerm(Membership(merged_parent, "x")));
    to_a.body.push_back(
        Literal::OfOTerm(Membership(is_b_name, "x"), /*negated=*/true));
    to_a.provenance = to_b.provenance;
    // Evaluating both directions would negate each other recursively
    // (unstratified); the converse stays recorded but unevaluated.
    to_a.documentation_only = true;
    ctx->result.AddRule(std::move(to_b));
    ctx->result.AddRule(std::move(to_a));
    ctx->stats.rules_generated += 2;
  }

  // Reverse-aggregation variant: agg_A ℵ agg_B yields the two rules
  // navigating IS_{agg_A,agg_B} in both directions.
  for (const AggCorrespondence& gc : assertion.agg_corrs) {
    if (gc.rel != AggRel::kReverse) continue;
    const std::string merged_agg =
        JoinAttrName(gc.lhs.leaf(), gc.rhs.leaf());
    auto nav = [&](const std::string& head_class,
                   const std::string& body_class) {
      Rule rule;
      OTerm head = Membership(head_class, "x");
      head.attrs.push_back({merged_agg, false, TermArg::Variable("y")});
      OTerm body = Membership(body_class, "y");
      body.attrs.push_back({merged_agg, false, TermArg::Variable("x")});
      rule.head.push_back(Literal::OfOTerm(std::move(head)));
      rule.body.push_back(Literal::OfOTerm(std::move(body)));
      rule.provenance = StrCat("principle-4-reverse-agg(", gc.ToString(),
                               ")");
      return rule;
    };
    ctx->result.AddRule(nav(is_b_name, is_a_name));
    ctx->result.AddRule(nav(is_a_name, is_b_name));
    ctx->stats.rules_generated += 2;
  }
  return Status::OK();
}

/// Principle 5: derivation assertions become inference rules.
Status ApplyDerivation(IntegrationContext* ctx, const Assertion& assertion) {
  for (const ClassRef& c : assertion.lhs) {
    OOINT_RETURN_IF_ERROR(EnsureCopy(ctx, c).status());
  }
  OOINT_RETURN_IF_ERROR(EnsureCopy(ctx, assertion.rhs).status());
  RuleGenerator generator([ctx](const ClassRef& ref) {
    const std::string& name = ctx->result.NameOf(ref);
    return name.empty() ? DefaultClassNaming(ref) : name;
  });
  Result<std::vector<Rule>> rules = generator.Generate(assertion);
  if (!rules.ok()) return rules.status();
  for (Rule& rule : rules.value()) {
    ctx->result.AddRule(std::move(rule));
    ++ctx->stats.rules_generated;
  }
  return Status::OK();
}

}  // namespace

Result<size_t> EnsureCopy(IntegrationContext* ctx, const ClassRef& ref) {
  LocalClass local;
  return ResolveAndCopy(ctx, ref, &local);
}

Status Materialize(IntegrationContext* ctx, const PendingOperations& ops) {
  // 1. Principle 1: merges first, so every later step sees final names.
  for (const Assertion* assertion : ops.equivalences()) {
    OOINT_RETURN_IF_ERROR(ApplyEquivalence(ctx, *assertion));
  }
  // 2. Default strategy 1: copy every class without an equivalence.
  for (int side : {1, 2}) {
    const Schema& schema = ctx->schema(side);
    for (ClassId id = 0; id < static_cast<ClassId>(schema.NumClasses());
         ++id) {
      if (ctx->IndexOf(side, id) != kNoClass) continue;
      const ClassDef& class_def = schema.class_def(id);
      OOINT_RETURN_IF_ERROR(EnsureLocalCopy(ctx, {side, id, &class_def},
                                            {schema.name(), class_def.name()})
                                .status());
    }
  }
  // 3. Principle 3: virtual intersection classes and their rules.
  for (const Assertion* assertion : ops.intersections()) {
    OOINT_RETURN_IF_ERROR(ApplyIntersection(ctx, *assertion));
  }
  // 4. Principle 4: disjoint completion rules.
  for (const Assertion* assertion : ops.disjoints()) {
    OOINT_RETURN_IF_ERROR(ApplyDisjoint(ctx, *assertion));
  }
  // 5. Principle 5: derivation rules.
  for (const Assertion* assertion : ops.derivations()) {
    OOINT_RETURN_IF_ERROR(ApplyDerivation(ctx, *assertion));
  }
  // 6. Links: carry over local is-a links, add the cross-schema links
  //    Principle 2 decided on, then remove redundancy (Fig. 12, §6.2).
  //    Every local class is mapped by now, so a local link is a pair of
  //    index lookups.
  auto link = [ctx](size_t child, size_t parent) -> Status {
    if (child == kNoClass || parent == kNoClass || child == parent ||
        ctx->result.HasIsA(child, parent)) {
      return Status::OK();
    }
    OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(child, parent));
    ++ctx->stats.isa_links_inserted;
    return Status::OK();
  };
  for (int side : {1, 2}) {
    const Schema& schema = ctx->schema(side);
    for (ClassId id = 0; id < static_cast<ClassId>(schema.NumClasses());
         ++id) {
      for (ClassId parent_id : schema.ParentsOf(id)) {
        OOINT_RETURN_IF_ERROR(
            link(ctx->IndexOf(side, id), ctx->IndexOf(side, parent_id)));
      }
    }
  }
  for (const PendingOperations::PendingIsA& inclusion : ops.inclusions()) {
    OOINT_RETURN_IF_ERROR(
        link(ctx->IndexOf(inclusion.side, inclusion.sub),
             ctx->IndexOf(3 - inclusion.side, inclusion.super)));
  }
  ctx->stats.isa_links_suppressed += ctx->result.TransitiveReduction();
  ctx->result.ResolveAggregationRanges();
  return Status::OK();
}

}  // namespace ooint
