#include "rules/matcher.h"

#include <algorithm>
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

// --- CompiledOTerm ---------------------------------------------------------

namespace {

size_t CountDescriptors(const std::vector<AttrDescriptor>& list) {
  size_t n = list.size();
  for (const AttrDescriptor& d : list) {
    if (d.value.is_nested()) n += CountDescriptors(d.value.nested);
  }
  return n;
}

}  // namespace

CompiledOTerm::CompiledOTerm(const OTerm& pattern) : pattern_(&pattern) {
  const size_t descriptors = CountDescriptors(pattern.attrs);
  descs_.reserve(descriptors);
  vars_.reserve(1 + 2 * descriptors);
  CollectVariables(pattern, &vars_);
  std::sort(vars_.begin(), vars_.end());
  vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
  if (pattern.object.is_variable()) object_slot_ = SlotOf(pattern.object.var);
  top_end_ = CompileList(pattern.attrs).second;
}

std::uint32_t CompiledOTerm::SlotOf(const std::string& var) const {
  return static_cast<std::uint32_t>(
      std::lower_bound(vars_.begin(), vars_.end(), var) - vars_.begin());
}

std::pair<std::uint32_t, std::uint32_t> CompiledOTerm::CompileList(
    const std::vector<AttrDescriptor>& list) {
  const auto begin = static_cast<std::uint32_t>(descs_.size());
  for (const AttrDescriptor& d : list) {
    descs_.push_back(
        {&d, d.attr_is_variable ? SlotOf(d.attribute) : kNoSlot,
         d.value.is_variable() ? SlotOf(d.value.var) : kNoSlot, 0, 0,
         {kNoId, kNoId}});
  }
  const auto end = static_cast<std::uint32_t>(descs_.size());
  // Nested lists go after this one, so each list stays one run.
  for (std::uint32_t i = begin; i < end; ++i) {
    const TermArg& value = descs_[i].source->value;
    if (!value.is_nested()) continue;
    const auto [nested_begin, nested_end] = CompileList(value.nested);
    descs_[i].nested_begin = nested_begin;
    descs_[i].nested_end = nested_end;
  }
  return {begin, end};
}

std::uint32_t CompiledOTerm::SymbolIn(const FactStore* layer,
                                      std::uint32_t index) const {
  const Descriptor& d = descs_[index];
  for (size_t k = 0; k < 2; ++k) {
    if (layers_[k] == nullptr) {
      layers_[k] = layer;
    } else if (layers_[k] != layer) {
      continue;
    }
    // A name the layer has not interned may be interned by a later
    // insert, so only a found id is kept.
    if (d.symbols[k] == kNoId) d.symbols[k] = layer->FindSymbol(d.source->attribute);
    return d.symbols[k];
  }
  return layer->FindSymbol(d.source->attribute);  // a third layer: by name
}

// --- MatchFrame ------------------------------------------------------------

void MatchFrame::Reset(const CompiledOTerm* pattern, const Bindings* seed) {
  pattern_ = pattern;
  seed_ = seed;
  slots_.assign(pattern->slot_count(), Slot());
  top_ = kNoSlot;
  if (seed == nullptr || seed->empty()) return;
  for (size_t i = 0; i < slots_.size(); ++i) {
    auto it = seed->find(pattern->vars_[i]);
    if (it != seed->end()) slots_[i].value = ValueHandle(&it->second);
  }
}

Bindings MatchFrame::ToBindings() const {
  Bindings row = seed_ != nullptr ? *seed_ : Bindings();
  for (std::uint32_t slot = top_; slot != kNoSlot; slot = slots_[slot].below) {
    row.emplace(pattern_->vars_[slot], slots_[slot].value.Materialize());
  }
  return row;
}

// --- FactMatcher -----------------------------------------------------------

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

bool FactMatcher::ValuesEqual(const ValueHandle& a,
                              const ValueHandle& b) const {
  if (mappings_ != nullptr && a.kind() == ValueKind::kOid &&
      b.kind() == ValueKind::kOid) {
    return mappings_->SameObject(a.MaterializeOid(), b.MaterializeOid());
  }
  return HandlesEqual(a, b);
}

void FactMatcher::MatchValue(const Goal& goal, const ValueHandle& stored,
                             MatchFrame* frame,
                             const OnMatch& on_match) const {
  const CompiledOTerm::Descriptor& d = frame->pattern_->descs_[goal.at];
  const TermArg& value = d.source->value;
  const Goal rest{goal.at + 1, goal.end, goal.fact, goal.next};

  // A set-valued stored attribute matches element-wise.
  const bool is_set = stored.kind() == ValueKind::kSet;
  const size_t candidate_count = is_set ? stored.set_size() : 1;
  for (size_t c = 0; c < candidate_count; ++c) {
    const ValueHandle candidate = is_set ? stored.set_element(c) : stored;
    switch (value.kind) {
      case TermArg::Kind::kConstant:
        if (ValuesEqual(value.constant, candidate)) {
          MatchFrom(rest, frame, on_match);
        }
        break;
      case TermArg::Kind::kVariable: {
        const ValueHandle& bound = frame->slots_[d.value_slot].value;
        if (bound.valid()) {
          if (ValuesEqual(bound, candidate)) MatchFrom(rest, frame, on_match);
        } else {
          const std::uint32_t mark = frame->top_;
          frame->Bind(d.value_slot, candidate);
          MatchFrom(rest, frame, on_match);
          frame->UndoTo(mark);
        }
        break;
      }
      case TermArg::Kind::kNested: {
        if (candidate.kind() != ValueKind::kOid || !resolver_) break;
        const FactView target = resolver_(candidate.MaterializeOid());
        if (!target.valid()) break;
        // Match the referenced fact's descriptors, then resume this list.
        MatchFrom(Goal{d.nested_begin, d.nested_end, target, &rest}, frame,
                  on_match);
        break;
      }
    }
  }
}

void FactMatcher::MatchFrom(const Goal& goal, MatchFrame* frame,
                            const OnMatch& on_match) const {
  if (goal.at == goal.end) {
    if (goal.next == nullptr) {
      on_match(*frame);
    } else {
      MatchFrom(*goal.next, frame, on_match);
    }
    return;
  }
  const CompiledOTerm& pattern = *frame->pattern_;
  const CompiledOTerm::Descriptor& d = pattern.descs_[goal.at];
  const FactView& fact = goal.fact;

  // Candidate attributes: the literal one, or — for variable-named
  // descriptors (schematic discrepancies, Section 2) — every attribute
  // of the fact consistent with the name variable's binding, in
  // lexicographic name order.
  if (d.name_slot == CompiledOTerm::kNoSlot) {
    const ValueHandle stored =
        fact.FindSymbol(pattern.SymbolIn(fact.layer(), goal.at));
    if (stored.valid()) MatchValue(goal, stored, frame, on_match);
    return;
  }
  const ValueHandle name = frame->slots_[d.name_slot].value;
  if (name.valid()) {
    if (name.kind() != ValueKind::kString) return;
    const ValueHandle stored = fact.Find(name.AsString());
    if (stored.valid()) MatchValue(goal, stored, frame, on_match);
    return;
  }
  const size_t count = fact.attr_count();
  for (size_t i = 0; i < count; ++i) {
    const std::uint32_t mark = frame->top_;
    frame->Bind(d.name_slot, fact.attr_name_handle(i));
    MatchValue(goal, fact.attr_value(i), frame, on_match);
    frame->UndoTo(mark);
  }
}

void FactMatcher::Match(const FactView& fact, MatchFrame* frame,
                        const OnMatch& on_match) const {
  const CompiledOTerm& pattern = *frame->pattern_;
  const TermArg& object = pattern.pattern_->object;
  const std::uint32_t mark = frame->top_;
  switch (object.kind) {
    case TermArg::Kind::kConstant:
      if (object.constant.kind() != ValueKind::kOid) return;
      if (!ValuesEqual(object.constant, fact.oid_handle())) return;
      break;
    case TermArg::Kind::kVariable: {
      const ValueHandle self = fact.oid_handle();
      const ValueHandle& bound = frame->slots_[pattern.object_slot_].value;
      if (bound.valid()) {
        if (!ValuesEqual(bound, self)) return;
      } else {
        frame->Bind(pattern.object_slot_, self);
      }
      break;
    }
    case TermArg::Kind::kNested:
      return;  // object positions are never nested
  }
  MatchFrom(Goal{0, pattern.top_end_, fact, nullptr}, frame, on_match);
  frame->UndoTo(mark);
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
