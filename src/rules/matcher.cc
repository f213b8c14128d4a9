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
                            Bindings* frame,
                            std::vector<Bindings>* out) const {
  const AttrDescriptor& d = descriptors[index];

  // A name variable binds to this attribute's name, or must already.
  auto name_slot = frame->end();
  if (d.attr_is_variable) {
    auto slot = frame->lower_bound(d.attribute);
    if (slot != frame->end() && slot->first == d.attribute) {
      if (slot->second.kind() != ValueKind::kString ||
          slot->second.AsString() != name) {
        return;
      }
    } else {
      name_slot = frame->emplace_hint(slot, d.attribute,
                                      Value::String(std::string(name)));
    }
  }

  // A set-valued stored attribute matches element-wise.
  const bool is_set = stored.kind() == ValueKind::kSet;
  const size_t candidate_count = is_set ? stored.set_size() : 1;

  for (size_t c = 0; c < candidate_count; ++c) {
    const ValueHandle candidate = is_set ? stored.set_element(c) : stored;
    switch (d.value.kind) {
      case TermArg::Kind::kConstant:
        if (ValuesEqual(d.value.constant, candidate)) {
          MatchDescriptors(descriptors, index + 1, fact, frame, out);
        }
        break;
      case TermArg::Kind::kVariable: {
        auto slot = frame->lower_bound(d.value.var);
        if (slot != frame->end() && slot->first == d.value.var) {
          if (ValuesEqual(slot->second, candidate)) {
            MatchDescriptors(descriptors, index + 1, fact, frame, out);
          }
        } else {
          slot = frame->emplace_hint(slot, d.value.var, candidate.Materialize());
          MatchDescriptors(descriptors, index + 1, fact, frame, out);
          frame->erase(slot);
        }
        break;
      }
      case TermArg::Kind::kNested: {
        if (candidate.kind() != ValueKind::kOid || !resolver_) break;
        const FactView target = resolver_(candidate.MaterializeOid());
        if (!target.valid()) break;
        // The rare path: collect the referenced fact's matches, then
        // continue down this list from each of them.
        std::vector<Bindings> nested;
        MatchDescriptors(d.value.nested, 0, target, frame, &nested);
        for (Bindings& n : nested) {
          MatchDescriptors(descriptors, index + 1, fact, &n, out);
        }
        break;
      }
    }
  }
  if (name_slot != frame->end()) frame->erase(name_slot);
}

void FactMatcher::MatchDescriptors(
    const std::vector<AttrDescriptor>& descriptors, size_t index,
    const FactView& fact, Bindings* frame, std::vector<Bindings>* out) const {
  if (index == descriptors.size()) {
    out->push_back(*frame);
    return;
  }
  const AttrDescriptor& d = descriptors[index];

  // Candidate attributes: the literal one, or — for variable-named
  // descriptors (schematic discrepancies, Section 2) — every attribute
  // of the fact consistent with the name variable's binding. Attribute
  // iteration is lexicographic by name in both fact backings, matching
  // the historical std::map order.
  if (d.attr_is_variable) {
    auto it = frame->find(d.attribute);
    if (it != frame->end()) {
      if (it->second.kind() != ValueKind::kString) return;
      const std::string& name = it->second.AsString();
      const ValueHandle stored = fact.Find(name);
      if (!stored.valid()) return;
      MatchAttr(descriptors, index, fact, name, stored, frame, out);
      return;
    }
    const size_t count = fact.attr_count();
    for (size_t i = 0; i < count; ++i) {
      MatchAttr(descriptors, index, fact, fact.attr_name(i),
                fact.attr_value(i), frame, out);
    }
    return;
  }

  const ValueHandle stored = fact.Find(d.attribute);
  if (!stored.valid()) return;
  MatchAttr(descriptors, index, fact, d.attribute, stored, frame, out);
}

void FactMatcher::MatchOTerm(const OTerm& pattern, const FactView& fact,
                             const Bindings& bindings,
                             std::vector<Bindings>* out) const {
  // The one copy of the caller's bindings: descriptors bind into it and
  // undo what they bound, so only a full match copies a row.
  Bindings frame = bindings;
  switch (pattern.object.kind) {
    case TermArg::Kind::kConstant:
      if (pattern.object.constant.kind() != ValueKind::kOid ||
          !ValuesEqual(pattern.object.constant, Value::OfOid(fact.oid()))) {
        return;
      }
      break;
    case TermArg::Kind::kVariable: {
      auto slot = frame.lower_bound(pattern.object.var);
      if (slot != frame.end() && slot->first == pattern.object.var) {
        if (!ValuesEqual(slot->second, Value::OfOid(fact.oid()))) return;
      } else {
        frame.emplace_hint(slot, pattern.object.var, Value::OfOid(fact.oid()));
      }
      break;
    }
    case TermArg::Kind::kNested:
      return;  // object positions are never nested
  }
  MatchDescriptors(pattern.attrs, 0, fact, &frame, out);
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
