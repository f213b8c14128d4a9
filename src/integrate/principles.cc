#include "integrate/principles.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "rules/rule_generator.h"

namespace ooint {

bool PendingOperations::Seen(const Assertion* assertion) {
  return !seen_assertions_.insert(assertion).second;
}

void PendingOperations::Record(const AssertionSet& set,
                               const AssertionSet::Lookup& lookup,
                               const ClassRef& n1, const ClassRef& n2) {
  if (!lookup.found()) return;
  switch (lookup.rel) {
    case SetRel::kEquivalent:
      if (!Seen(lookup.assertion)) equivalences_.push_back(lookup.assertion);
      break;
    case SetRel::kSubset:
      RecordIsA(n1, n2);
      break;
    case SetRel::kSuperset:
      RecordIsA(n2, n1);
      break;
    case SetRel::kOverlap:
      if (!Seen(lookup.assertion)) intersections_.push_back(lookup.assertion);
      break;
    case SetRel::kDisjoint:
      if (!Seen(lookup.assertion)) disjoints_.push_back(lookup.assertion);
      break;
    case SetRel::kDerivation:
      for (const Assertion* derivation : set.FindDerivations(n1)) {
        const bool involves_n2 = derivation->rhs == n2 ||
                                 derivation->MentionsOnLhs(n2);
        if (involves_n2 && !Seen(derivation)) {
          derivations_.push_back(derivation);
        }
      }
      break;
  }
}

void PendingOperations::RecordIsA(const ClassRef& sub, const ClassRef& super) {
  if (seen_isa_.emplace(sub, super).second) {
    inclusions_.push_back({sub, super});
  }
}

namespace {

std::string CopyName(const ClassRef& ref) {
  return StrCat("IS(", ref.ToString(), ")");
}

std::string MergedName(const ClassRef& a, const ClassRef& b) {
  return StrCat("IS(", a.ToString(), ",", b.ToString(), ")");
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

/// Fills in the scalar type / multiplicity of every attribute of `out`
/// from its first resolvable source attribute; concatenations are
/// strings by construction.
void FillAttributeTypes(IntegrationContext* ctx, IntegratedClass* out) {
  for (IntegratedAttribute& attr : out->attributes) {
    if (attr.op == ValueSetOp::kConcatenation) {
      attr.type = ValueKind::kString;
      continue;
    }
    for (const Path& path : attr.sources) {
      const ClassDef* class_def =
          ctx->ClassOf({path.schema(), path.class_name()});
      if (class_def == nullptr) continue;
      const Attribute* local = class_def->FindAttribute(path.leaf());
      if (local == nullptr || local->type.is_class()) continue;
      attr.type = local->type.scalar;
      attr.multi_valued = local->multi_valued;
      break;
    }
  }
}

/// True when `path` denotes a direct attribute (or aggregation) of the
/// class `ref` — merging only handles one-component paths; deeper paths
/// are the business of derivation rules.
bool IsDirectPathOf(const Path& path, const ClassRef& ref) {
  return path.schema() == ref.schema && path.class_name() == ref.class_name &&
         path.components().size() == 1 && !path.name_ref();
}

/// Integrates the attribute correspondences of `assertion` into `out`
/// (the switch of Principle 1); records handled local attribute names in
/// `handled_lhs` / `handled_rhs`.
void IntegrateAttrCorrs(IntegrationContext* ctx, const Assertion& assertion,
                        const ClassRef& a, const ClassRef& b,
                        IntegratedClass* out,
                        std::set<std::string>* handled_lhs,
                        std::set<std::string>* handled_rhs) {
  (void)ctx;
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
    handled_lhs->insert(la);
    handled_rhs->insert(rb);
    switch (corr->rel) {
      case AttrRel::kEquivalent:
      case AttrRel::kSubset:
      case AttrRel::kSuperset:
        out->attributes.push_back(
            {JoinAttrName(la, rb), ValueSetOp::kUnion,
             {corr->lhs, corr->rhs}, ""});
        break;
      case AttrRel::kOverlap:
        // Three new attributes a_, b_ and a_b (Principle 1, case a∩b).
        out->attributes.push_back({StrCat(la, "_"), ValueSetOp::kDifference,
                                   {corr->lhs, corr->rhs}, ""});
        out->attributes.push_back({StrCat(rb, "_"), ValueSetOp::kDifference,
                                   {corr->rhs, corr->lhs}, ""});
        out->attributes.push_back({StrCat(la, "_", rb),
                                   ValueSetOp::kIntersectAif,
                                   {corr->lhs, corr->rhs},
                                   StrCat("AIF_", la, "_", rb)});
        break;
      case AttrRel::kDisjoint:
        out->attributes.push_back(
            {la, ValueSetOp::kCopy, {corr->lhs}, ""});
        AddAttributeUnique(out, {rb, ValueSetOp::kCopy, {corr->rhs}, ""},
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
        out->attributes.push_back({specific.leaf(),
                                   ValueSetOp::kMoreSpecific,
                                   {specific, general},
                                   ""});
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
                       IntegratedClass* out,
                       std::set<std::string>* handled_lhs,
                       std::set<std::string>* handled_rhs) {
  const ClassDef* class_a = ctx->ClassOf(a);
  const ClassDef* class_b = ctx->ClassOf(b);
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

/// Accumulates the attributes and aggregations of `ref` not mentioned in
/// any correspondence (default strategy 2: unasserted attributes are
/// semantically disjoint and simply accumulated).
void AccumulateRemaining(IntegrationContext* ctx, const ClassRef& ref,
                         const std::set<std::string>& handled,
                         IntegratedClass* out) {
  const ClassDef* class_def = ctx->ClassOf(ref);
  if (class_def == nullptr) return;
  for (const Attribute& attr : class_def->attributes()) {
    if (handled.count(attr.name) != 0) continue;
    AddAttributeUnique(out,
                       {attr.name,
                        ValueSetOp::kCopy,
                        {Path::Attr(ref.schema, ref.class_name, attr.name)},
                        ""},
                       ref.schema);
  }
  for (const AggregationFunction& fn : class_def->aggregations()) {
    if (handled.count(fn.name) != 0) continue;
    out->aggregations.push_back({fn.name,
                                 {ref.schema, fn.range_class},
                                 "",
                                 fn.cardinality,
                                 {Path::Attr(ref.schema, ref.class_name,
                                             fn.name)}});
  }
}

/// Principle 1: merges two equivalent classes into one integrated class.
Status ApplyEquivalence(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  const std::string existing_a = ctx->result.NameOf(a);
  const std::string existing_b = ctx->result.NameOf(b);
  if (!existing_a.empty() && existing_a == existing_b) return Status::OK();

  if (!existing_a.empty() || !existing_b.empty()) {
    // A second equivalence touching an already-merged class: extend the
    // existing merged class with the new counterpart's material.
    const std::string name = existing_a.empty() ? existing_b : existing_a;
    const ClassRef& incoming = existing_a.empty() ? a : b;
    IntegratedClass* merged = ctx->result.MutableClass(name);
    if (merged == nullptr) {
      return Status::Internal(StrCat("mapped class '", name, "' missing"));
    }
    merged->sources.push_back(incoming);
    std::set<std::string> handled_lhs;
    std::set<std::string> handled_rhs;
    IntegrateAttrCorrs(ctx, assertion, a, b, merged, &handled_lhs,
                       &handled_rhs);
    IntegrateAggCorrs(ctx, assertion, a, b, merged, &handled_lhs,
                      &handled_rhs);
    AccumulateRemaining(ctx, incoming,
                        existing_a.empty() ? handled_lhs : handled_rhs,
                        merged);
    FillAttributeTypes(ctx, merged);
    ctx->result.MapSource(incoming, name);
    ++ctx->stats.classes_merged;
    return Status::OK();
  }

  IntegratedClass merged;
  merged.name = MergedName(a, b);
  merged.kind = ISClassKind::kMerged;
  merged.sources = {a, b};
  std::set<std::string> handled_lhs;
  std::set<std::string> handled_rhs;
  IntegrateAttrCorrs(ctx, assertion, a, b, &merged, &handled_lhs,
                     &handled_rhs);
  IntegrateAggCorrs(ctx, assertion, a, b, &merged, &handled_lhs,
                    &handled_rhs);
  AccumulateRemaining(ctx, a, handled_lhs, &merged);
  AccumulateRemaining(ctx, b, handled_rhs, &merged);
  FillAttributeTypes(ctx, &merged);
  const std::string name = merged.name;
  Result<size_t> added = ctx->result.AddClass(std::move(merged));
  if (!added.ok()) return added.status();
  ctx->result.MapSource(a, name);
  ctx->result.MapSource(b, name);
  ++ctx->stats.classes_merged;
  return Status::OK();
}

/// Principle 3: virtual intersection and difference classes plus their
/// defining rules.
Status ApplyIntersection(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  Result<std::string> is_a_name = EnsureCopy(ctx, a);
  if (!is_a_name.ok()) return is_a_name.status();
  Result<std::string> is_b_name = EnsureCopy(ctx, b);
  if (!is_b_name.ok()) return is_b_name.status();

  IntegratedClass both;
  both.name = StrCat("IS(", a.ToString(), "&", b.ToString(), ")");
  both.kind = ISClassKind::kVirtualIntersection;
  both.sources = {a, b};
  {
    std::set<std::string> handled_lhs;
    std::set<std::string> handled_rhs;
    IntegrateAttrCorrs(ctx, assertion, a, b, &both, &handled_lhs,
                       &handled_rhs);
    IntegrateAggCorrs(ctx, assertion, a, b, &both, &handled_lhs,
                      &handled_rhs);
    FillAttributeTypes(ctx, &both);
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
  OOINT_RETURN_IF_ERROR(ctx->result.AddClass(std::move(both)).status());
  OOINT_RETURN_IF_ERROR(ctx->result.AddClass(std::move(only_a)).status());
  OOINT_RETURN_IF_ERROR(ctx->result.AddClass(std::move(only_b)).status());

  auto membership = [](const std::string& class_name,
                       const std::string& var) {
    OTerm term;
    term.object = TermArg::Variable(var);
    term.class_name = class_name;
    return term;
  };

  // <x: IS_AB> <= <x: IS(A)>, <y: IS(B)>, y = x.
  Rule both_rule;
  both_rule.head.push_back(Literal::OfOTerm(membership(both_name, "x")));
  both_rule.body.push_back(
      Literal::OfOTerm(membership(is_a_name.value(), "x")));
  both_rule.body.push_back(
      Literal::OfOTerm(membership(is_b_name.value(), "y")));
  both_rule.body.push_back(Literal::OfCompare(
      TermArg::Variable("y"), CompareOp::kEq, TermArg::Variable("x")));
  both_rule.provenance = StrCat("principle-3(", a.ToString(), " ~ ",
                                b.ToString(), ")");

  // <x: IS_A-> <= <x: IS(A)>, not <x: IS_AB>.
  Rule a_rule;
  a_rule.head.push_back(Literal::OfOTerm(membership(only_a_name, "x")));
  a_rule.body.push_back(Literal::OfOTerm(membership(is_a_name.value(), "x")));
  a_rule.body.push_back(
      Literal::OfOTerm(membership(both_name, "x"), /*negated=*/true));
  a_rule.provenance = both_rule.provenance;

  Rule b_rule;
  b_rule.head.push_back(Literal::OfOTerm(membership(only_b_name, "x")));
  b_rule.body.push_back(Literal::OfOTerm(membership(is_b_name.value(), "x")));
  b_rule.body.push_back(
      Literal::OfOTerm(membership(both_name, "x"), /*negated=*/true));
  b_rule.provenance = both_rule.provenance;

  ctx->result.AddRule(std::move(both_rule));
  ctx->result.AddRule(std::move(a_rule));
  ctx->result.AddRule(std::move(b_rule));
  ctx->stats.rules_generated += 3;

  // The virtual classes sit below their constituents in the hierarchy.
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(both_name, is_a_name.value()));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(both_name, is_b_name.value()));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(only_a_name, is_a_name.value()));
  OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(only_b_name, is_b_name.value()));
  ctx->stats.isa_links_inserted += 4;
  return Status::OK();
}

/// Principle 4: completion rules for disjoint subclasses of equivalent
/// parents, plus the reverse-aggregation variant.
Status ApplyDisjoint(IntegrationContext* ctx, const Assertion& assertion) {
  const ClassRef& a = assertion.lhs.front();
  const ClassRef& b = assertion.rhs;
  Result<std::string> is_a_name = EnsureCopy(ctx, a);
  if (!is_a_name.ok()) return is_a_name.status();
  Result<std::string> is_b_name = EnsureCopy(ctx, b);
  if (!is_b_name.ok()) return is_b_name.status();

  auto membership = [](const std::string& class_name,
                       const std::string& var) {
    OTerm term;
    term.object = TermArg::Variable(var);
    term.class_name = class_name;
    return term;
  };

  // Find equivalent ancestors A' ⊇ A (in S1) and B' ⊇ B (in S2): the
  // assertion is meaningful only then (Principle 4's precondition).
  const Schema* schema_a = ctx->SchemaOf(a);
  const Schema* schema_b = ctx->SchemaOf(b);
  if (schema_a == nullptr || schema_b == nullptr) {
    return Status::NotFound("disjoint assertion references unknown schema");
  }
  const ClassId id_a = schema_a->FindClass(a.class_name);
  const ClassId id_b = schema_b->FindClass(b.class_name);
  std::string merged_parent;
  for (ClassId ancestor_a : schema_a->Ancestors(id_a)) {
    for (ClassId ancestor_b : schema_b->Ancestors(id_b)) {
      const ClassRef ra{schema_a->name(),
                        schema_a->class_def(ancestor_a).name()};
      const ClassRef rb{schema_b->name(),
                        schema_b->class_def(ancestor_b).name()};
      const AssertionSet::Lookup lookup = ctx->assertions->Find(ra, rb);
      if (lookup.found() && lookup.rel == SetRel::kEquivalent) {
        const std::string name_a = ctx->result.NameOf(ra);
        if (!name_a.empty()) {
          merged_parent = name_a;
          break;
        }
      }
    }
    if (!merged_parent.empty()) break;
  }

  if (!merged_parent.empty()) {
    // <x: IS(B)> <= <x: merged(A',B')>, not <x: IS(A)>   (and converse).
    Rule to_b;
    to_b.head.push_back(Literal::OfOTerm(membership(is_b_name.value(), "x")));
    to_b.body.push_back(Literal::OfOTerm(membership(merged_parent, "x")));
    to_b.body.push_back(
        Literal::OfOTerm(membership(is_a_name.value(), "x"),
                         /*negated=*/true));
    to_b.provenance = StrCat("principle-4(", a.ToString(), " ! ",
                             b.ToString(), ")");
    Rule to_a;
    to_a.head.push_back(Literal::OfOTerm(membership(is_a_name.value(), "x")));
    to_a.body.push_back(Literal::OfOTerm(membership(merged_parent, "x")));
    to_a.body.push_back(
        Literal::OfOTerm(membership(is_b_name.value(), "x"),
                         /*negated=*/true));
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
      OTerm head = membership(head_class, "x");
      head.attrs.push_back({merged_agg, false, TermArg::Variable("y")});
      OTerm body = membership(body_class, "y");
      body.attrs.push_back({merged_agg, false, TermArg::Variable("x")});
      rule.head.push_back(Literal::OfOTerm(std::move(head)));
      rule.body.push_back(Literal::OfOTerm(std::move(body)));
      rule.provenance = StrCat("principle-4-reverse-agg(", gc.ToString(),
                               ")");
      return rule;
    };
    ctx->result.AddRule(nav(is_b_name.value(), is_a_name.value()));
    ctx->result.AddRule(nav(is_a_name.value(), is_b_name.value()));
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
    const std::string name = ctx->result.NameOf(ref);
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

Result<std::string> EnsureCopy(IntegrationContext* ctx, const ClassRef& ref) {
  const std::string existing = ctx->result.NameOf(ref);
  if (!existing.empty()) return existing;
  const ClassDef* class_def = ctx->ClassOf(ref);
  if (class_def == nullptr) {
    return Status::NotFound(
        StrCat("class ", ref.ToString(), " not found in either schema"));
  }
  IntegratedClass copy;
  copy.name = CopyName(ref);
  copy.kind = ISClassKind::kCopied;
  copy.sources = {ref};
  AccumulateRemaining(ctx, ref, {}, &copy);
  FillAttributeTypes(ctx, &copy);
  const std::string name = copy.name;
  OOINT_RETURN_IF_ERROR(ctx->result.AddClass(std::move(copy)).status());
  ctx->result.MapSource(ref, name);
  return name;
}

Status Materialize(IntegrationContext* ctx, const PendingOperations& ops) {
  // 1. Principle 1: merges first, so every later step sees final names.
  for (const Assertion* assertion : ops.equivalences()) {
    OOINT_RETURN_IF_ERROR(ApplyEquivalence(ctx, *assertion));
  }
  // 2. Default strategy 1: copy every class without an equivalence.
  for (const Schema* schema : {ctx->s1, ctx->s2}) {
    for (const ClassDef& class_def : schema->classes()) {
      OOINT_RETURN_IF_ERROR(
          EnsureCopy(ctx, {schema->name(), class_def.name()}).status());
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
  for (const Schema* schema : {ctx->s1, ctx->s2}) {
    for (const ClassDef& class_def : schema->classes()) {
      const ClassId id = schema->FindClass(class_def.name());
      const std::string child =
          ctx->result.NameOf({schema->name(), class_def.name()});
      for (ClassId parent_id : schema->ParentsOf(id)) {
        const std::string parent = ctx->result.NameOf(
            {schema->name(), schema->class_def(parent_id).name()});
        if (child.empty() || parent.empty() || child == parent) continue;
        if (!ctx->result.HasIsA(child, parent)) {
          OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(child, parent));
          ++ctx->stats.isa_links_inserted;
        }
      }
    }
  }
  for (const PendingOperations::PendingIsA& link : ops.inclusions()) {
    const std::string sub = ctx->result.NameOf(link.sub);
    const std::string super = ctx->result.NameOf(link.super);
    if (sub.empty() || super.empty() || sub == super) continue;
    if (!ctx->result.HasIsA(sub, super)) {
      OOINT_RETURN_IF_ERROR(ctx->result.AddIsA(sub, super));
      ++ctx->stats.isa_links_inserted;
    }
  }
  ctx->stats.isa_links_suppressed += ctx->result.TransitiveReduction();
  ctx->result.ResolveAggregationRanges();
  return Status::OK();
}

}  // namespace ooint
