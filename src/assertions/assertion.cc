#include "assertions/assertion.h"

#include <cassert>

#include "common/string_util.h"

namespace ooint {

std::string WithPredicate::ToString() const {
  return StrCat(attribute.ToString(), " ", CompareOpName(op), " ",
                constant.ToString());
}

std::string AttributeCorrespondence::ToString() const {
  std::string out;
  if (rel == AttrRel::kComposedInto) {
    out = StrCat(lhs.ToString(), " alpha(", composed_name, ") ",
                 rhs.ToString());
  } else {
    out = StrCat(lhs.ToString(), " ", AttrRelName(rel), " ", rhs.ToString());
  }
  if (with.has_value()) {
    out += StrCat(" with ", with->ToString());
  }
  return out;
}

std::string AggCorrespondence::ToString() const {
  return StrCat(lhs.ToString(), " ", AggRelName(rel), " ", rhs.ToString());
}

std::string ValueCorrespondence::ToString() const {
  return StrCat(lhs.ToString(), " ", ValueRelName(rel), " ", rhs.ToString());
}

Assertion Assertion::Reversed() const {
  assert(rel != SetRel::kDerivation && "derivation assertions are directional");
  Assertion out;
  out.lhs = {rhs};
  out.rel = ReverseSetRel(rel);
  out.rhs = lhs.front();
  out.value_corrs = value_corrs;
  for (ValueCorrespondence& vc : out.value_corrs) {
    vc.side = (vc.side == 1) ? 2 : 1;
  }
  out.attr_corrs = attr_corrs;
  for (AttributeCorrespondence& ac : out.attr_corrs) {
    std::swap(ac.lhs, ac.rhs);
    ac.rel = ReverseAttrRel(ac.rel);
  }
  out.agg_corrs = agg_corrs;
  for (AggCorrespondence& gc : out.agg_corrs) {
    std::swap(gc.lhs, gc.rhs);
    gc.rel = ReverseAggRel(gc.rel);
  }
  return out;
}

std::string Assertion::ToString() const {
  std::string head;
  if (lhs.size() == 1) {
    head = lhs.front().ToString();
  } else {
    std::vector<std::string> names;
    names.reserve(lhs.size());
    for (const ClassRef& c : lhs) names.push_back(c.class_name);
    head = StrCat(lhs.front().schema, "(", Join(names, ", "), ")");
  }
  std::string out =
      StrCat("assert ", head, " ", SetRelName(rel), " ", rhs.ToString());
  if (value_corrs.empty() && attr_corrs.empty() && agg_corrs.empty()) {
    out += ";\n";
    return out;
  }
  out += " {\n";
  for (const ValueCorrespondence& vc : value_corrs) {
    out += StrCat("  value(", vc.side == 1 ? lhs.front().schema : rhs.schema,
                  "): ", vc.ToString(), ";\n");
  }
  for (const AttributeCorrespondence& ac : attr_corrs) {
    out += StrCat("  attr: ", ac.ToString(), ";\n");
  }
  for (const AggCorrespondence& gc : agg_corrs) {
    out += StrCat("  agg: ", gc.ToString(), ";\n");
  }
  out += "}\n";
  return out;
}

}  // namespace ooint
