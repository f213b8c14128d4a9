#include "assertions/assertion_set.h"

#include "common/string_util.h"

namespace ooint {

Status AssertionSet::Add(Assertion assertion) {
  if (assertion.lhs.empty()) {
    return Status::InvalidArgument("assertion has no lhs class");
  }
  if (assertion.lhs.size() > 1 && assertion.rel != SetRel::kDerivation) {
    return Status::InvalidArgument(
        StrCat("only derivation assertions may have several lhs classes; "
               "got ",
               SetRelName(assertion.rel)));
  }
  if (assertion.rel != SetRel::kDerivation) {
    const ClassRef& a = assertion.lhs.front();
    const ClassRef& b = assertion.rhs;
    auto [it, inserted] = set_rel_index_.emplace(
        b < a ? std::make_pair(b, a) : std::make_pair(a, b),
        assertions_.size());
    if (!inserted) {
      return Status::AlreadyExists(
          StrCat("classes ", a.ToString(), " and ", b.ToString(),
                 " already related by an assertion (",
                 SetRelName(assertions_[it->second].rel), ")"));
    }
  }
  assertions_.push_back(std::move(assertion));
  return Status::OK();
}

std::vector<const Assertion*> AssertionSet::AllDerivations() const {
  std::vector<const Assertion*> out;
  for (const Assertion& a : assertions_) {
    if (a.rel == SetRel::kDerivation) out.push_back(&a);
  }
  return out;
}

namespace {

Status CheckClassRef(const ClassRef& ref, const Schema& s1, const Schema& s2) {
  const Schema* schema = nullptr;
  if (ref.schema == s1.name()) {
    schema = &s1;
  } else if (ref.schema == s2.name()) {
    schema = &s2;
  } else {
    return Status::NotFound(StrCat("assertion references unknown schema '",
                                   ref.schema, "'"));
  }
  if (schema->FindClass(ref.class_name) == kInvalidClassId) {
    return Status::NotFound(StrCat("assertion references unknown class ",
                                   ref.ToString()));
  }
  return Status::OK();
}

Status CheckPath(const Path& path, const Schema& s1, const Schema& s2) {
  const Schema* schema = nullptr;
  if (path.schema() == s1.name()) {
    schema = &s1;
  } else if (path.schema() == s2.name()) {
    schema = &s2;
  } else {
    return Status::NotFound(
        StrCat("path ", path.ToString(), " references unknown schema"));
  }
  Result<const ClassDef*> resolved = path.Resolve(*schema);
  if (!resolved.ok()) return resolved.status();
  return Status::OK();
}

}  // namespace

Status AssertionSet::Validate(const Schema& s1, const Schema& s2) const {
  for (const Assertion& assertion : assertions_) {
    for (const ClassRef& c : assertion.lhs) {
      OOINT_RETURN_IF_ERROR(CheckClassRef(c, s1, s2));
    }
    OOINT_RETURN_IF_ERROR(CheckClassRef(assertion.rhs, s1, s2));

    // Derivations: all lhs classes in one schema, rhs in the other.
    if (assertion.rel == SetRel::kDerivation) {
      const std::string& lhs_schema = assertion.lhs.front().schema;
      for (const ClassRef& c : assertion.lhs) {
        if (c.schema != lhs_schema) {
          return Status::InvalidArgument(
              StrCat("derivation lhs classes span several schemas: ",
                     assertion.ToString()));
        }
      }
      if (assertion.rhs.schema == lhs_schema) {
        return Status::InvalidArgument(
            StrCat("derivation rhs must come from the other schema: ",
                   assertion.ToString()));
      }
    }

    for (const AttributeCorrespondence& ac : assertion.attr_corrs) {
      OOINT_RETURN_IF_ERROR(CheckPath(ac.lhs, s1, s2));
      OOINT_RETURN_IF_ERROR(CheckPath(ac.rhs, s1, s2));
      if (ac.rel == AttrRel::kComposedInto && ac.composed_name.empty()) {
        return Status::InvalidArgument(
            StrCat("composed-into correspondence lacks the new attribute "
                   "name: ",
                   ac.ToString()));
      }
      if (ac.rel != AttrRel::kComposedInto && !ac.composed_name.empty()) {
        return Status::InvalidArgument(
            StrCat("composed name on a non-alpha correspondence: ",
                   ac.ToString()));
      }
      if (ac.with.has_value()) {
        if (ac.rel != AttrRel::kSubset && ac.rel != AttrRel::kSuperset &&
            ac.rel != AttrRel::kOverlap && ac.rel != AttrRel::kEquivalent) {
          return Status::InvalidArgument(
              StrCat("'with' qualifier on unsupported correspondence kind: ",
                     ac.ToString()));
        }
        OOINT_RETURN_IF_ERROR(CheckPath(ac.with->attribute, s1, s2));
      }
    }
    for (const AggCorrespondence& gc : assertion.agg_corrs) {
      OOINT_RETURN_IF_ERROR(CheckPath(gc.lhs, s1, s2));
      OOINT_RETURN_IF_ERROR(CheckPath(gc.rhs, s1, s2));
    }
    for (const ValueCorrespondence& vc : assertion.value_corrs) {
      const std::string& expected_schema = (vc.side == 1)
                                               ? assertion.lhs.front().schema
                                               : assertion.rhs.schema;
      if (vc.lhs.schema() != expected_schema ||
          vc.rhs.schema() != expected_schema) {
        return Status::InvalidArgument(
            StrCat("value correspondence for side ", vc.side,
                   " must stay inside schema '", expected_schema,
                   "': ", vc.ToString()));
      }
      OOINT_RETURN_IF_ERROR(CheckPath(vc.lhs, s1, s2));
      OOINT_RETURN_IF_ERROR(CheckPath(vc.rhs, s1, s2));
    }
  }
  return Status::OK();
}

std::string AssertionSet::ToString() const {
  std::string out;
  for (const Assertion& a : assertions_) {
    out += a.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace ooint
