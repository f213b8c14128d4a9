#include "rules/matcher.h"

#include <cstdio>

namespace ooint {

bool ResolveArg(const TermArg& arg, const Bindings& bindings, Value* out) {
  switch (arg.kind) {
    case TermArg::Kind::kConstant:
      *out = arg.constant;
      return true;
    case TermArg::Kind::kVariable: {
      auto it = bindings.find(arg.var);
      if (it == bindings.end()) return false;
      *out = it->second;
      return true;
    }
    case TermArg::Kind::kNested:
      return false;
  }
  return false;
}

bool FactMatcher::ValuesEqual(const Value& a, const Value& b) const {
  if (mappings_ != nullptr && a.kind() == ValueKind::kOid &&
      b.kind() == ValueKind::kOid) {
    return mappings_->SameObject(a.AsOid(), b.AsOid());
  }
  return a == b;
}

bool FactMatcher::ValuesEqual(const Value& a, const ValueHandle& b) const {
  if (mappings_ != nullptr && a.kind() == ValueKind::kOid &&
      b.kind() == ValueKind::kOid) {
    return mappings_->SameObject(a.AsOid(), b.MaterializeOid());
  }
  return b.Equals(a);
}

void FactMatcher::MatchAttr(const std::vector<AttrDescriptor>& descriptors,
                            size_t index, const FactView& fact,
                            std::string_view name, const ValueHandle& stored,
                            const Bindings& bindings,
                            std::vector<Bindings>* out) const {
  const AttrDescriptor& d = descriptors[index];

  Bindings base = bindings;
  if (d.attr_is_variable) {
    Value name_value = Value::String(std::string(name));
    auto [slot, inserted] = base.emplace(d.attribute, name_value);
    if (!inserted && slot->second != name_value) return;
  }

  // A set-valued stored attribute matches element-wise.
  const bool is_set = stored.kind() == ValueKind::kSet;
  const size_t candidate_count = is_set ? stored.set_size() : 1;

  for (size_t c = 0; c < candidate_count; ++c) {
    const ValueHandle candidate = is_set ? stored.set_element(c) : stored;
    Bindings next = base;
    switch (d.value.kind) {
      case TermArg::Kind::kConstant:
        if (!ValuesEqual(d.value.constant, candidate)) continue;
        break;
      case TermArg::Kind::kVariable: {
        auto bound = next.find(d.value.var);
        if (bound != next.end()) {
          if (!ValuesEqual(bound->second, candidate)) continue;
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
        continue;  // recursion already advanced `index`
      }
    }
    MatchDescriptors(descriptors, index + 1, fact, next, out);
  }
}

void FactMatcher::MatchDescriptors(
    const std::vector<AttrDescriptor>& descriptors, size_t index,
    const FactView& fact, const Bindings& bindings,
    std::vector<Bindings>* out) const {
  if (index == descriptors.size()) {
    out->push_back(bindings);
    return;
  }
  const AttrDescriptor& d = descriptors[index];

  // Candidate attributes: the literal one, or — for variable-named
  // descriptors (schematic discrepancies, Section 2) — every attribute
  // of the fact consistent with the name variable's binding. Attribute
  // iteration is lexicographic by name in both fact backings, matching
  // the historical std::map order.
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
    const size_t count = fact.attr_count();
    for (size_t i = 0; i < count; ++i) {
      MatchAttr(descriptors, index, fact, fact.attr_name(i),
                fact.attr_value(i), bindings, out);
    }
    return;
  }

  const ValueHandle stored = fact.Find(d.attribute);
  if (!stored.valid()) return;
  MatchAttr(descriptors, index, fact, d.attribute, stored, bindings, out);
}

void FactMatcher::MatchOTerm(const OTerm& pattern, const FactView& fact,
                             const Bindings& bindings,
                             std::vector<Bindings>* out) const {
  Bindings base = bindings;
  switch (pattern.object.kind) {
    case TermArg::Kind::kConstant:
      if (pattern.object.constant.kind() != ValueKind::kOid ||
          !ValuesEqual(pattern.object.constant, Value::OfOid(fact.oid()))) {
        return;
      }
      break;
    case TermArg::Kind::kVariable: {
      Value oid_value = Value::OfOid(fact.oid());
      auto [slot, inserted] = base.emplace(pattern.object.var, oid_value);
      if (!inserted && !ValuesEqual(slot->second, oid_value)) {
        return;
      }
      break;
    }
    case TermArg::Kind::kNested:
      return;  // object positions are never nested
  }
  MatchDescriptors(pattern.attrs, 0, fact, base, out);
}

bool FactMatcher::MatchArgs(const std::vector<TermArg>& args,
                            const FactView& fact, Bindings* bindings) const {
  for (size_t i = 0; i < args.size(); ++i) {
    char name[16];
    const int len = std::snprintf(name, sizeof(name), "%zu", i);
    const ValueHandle stored = fact.Find(std::string_view(name, len));
    if (!stored.valid()) return false;
    const TermArg& arg = args[i];
    if (arg.is_constant()) {
      if (!ValuesEqual(arg.constant, stored)) return false;
    } else if (arg.is_variable()) {
      auto bound = bindings->find(arg.var);
      if (bound != bindings->end()) {
        if (!ValuesEqual(bound->second, stored)) return false;
      } else {
        bindings->emplace(arg.var, stored.Materialize());
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace ooint
