#ifndef OOINT_RULES_MATCHER_H_
#define OOINT_RULES_MATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datamap/data_mapping.h"
#include "rules/fact.h"
#include "rules/fact_store.h"
#include "rules/term.h"

namespace ooint {

/// A variable assignment produced by matching rule bodies / queries.
using Bindings = std::map<std::string, Value>;

/// Resolves a term argument to a value under `bindings`; returns false
/// when the argument is an unbound variable (or nested).
bool ResolveArg(const TermArg& arg, const Bindings& bindings, Value* out);

/// An O-term compiled for matching (DESIGN.md §4k). Every distinct
/// variable is a dense slot, in variable-name order: the key order of
/// the Bindings a full match builds, since every full match of a pattern
/// binds every variable the pattern names. Each descriptor knows its
/// slots, and its literal attribute name resolves to a symbol id once
/// per store layer instead of once per candidate.
///
/// Borrows `pattern`, which must outlive it. The per-layer symbol cache
/// makes a compiled pattern single-threaded: one per query stream, one
/// per rule solve.
class CompiledOTerm {
 public:
  explicit CompiledOTerm(const OTerm& pattern);
  CompiledOTerm(const CompiledOTerm&) = delete;
  CompiledOTerm& operator=(const CompiledOTerm&) = delete;
  CompiledOTerm(CompiledOTerm&&) = default;
  CompiledOTerm& operator=(CompiledOTerm&&) = default;

  /// Slot i binds vars()[i]; sorted and unique.
  const std::vector<std::string>& vars() const { return vars_; }
  size_t slot_count() const { return vars_.size(); }

 private:
  friend class FactMatcher;
  friend class MatchFrame;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One attribute descriptor. The descriptors of one list are
  /// contiguous in descs_: the pattern's own list first, then each
  /// nested list where the compiler reached it.
  struct Descriptor {
    const AttrDescriptor* source;
    std::uint32_t name_slot;   // a variable-named descriptor's name slot
    std::uint32_t value_slot;  // the value's slot when it is a variable
    std::uint32_t nested_begin;
    std::uint32_t nested_end;
    /// The literal name's symbol in layers_[k] (kNoId: not resolved).
    mutable std::uint32_t symbols[2];
  };

  std::uint32_t SlotOf(const std::string& var) const;
  /// Appends `list` as one contiguous run and compiles it; returns the
  /// run's [begin, end).
  std::pair<std::uint32_t, std::uint32_t> CompileList(
      const std::vector<AttrDescriptor>& list);
  /// Descriptor `index`'s literal attribute name in `layer`'s symbols.
  std::uint32_t SymbolIn(const FactStore* layer, std::uint32_t index) const;

  const OTerm* pattern_;
  std::vector<std::string> vars_;
  std::uint32_t object_slot_ = kNoSlot;
  std::uint32_t top_end_ = 0;  // the pattern's own list is [0, top_end_)
  std::vector<Descriptor> descs_;
  /// Up to two layers (a segment and its overlay) keep their resolved
  /// symbols, in Descriptor::symbols.
  mutable const FactStore* layers_[2] = {nullptr, nullptr};
};

/// Where a match binds: one ValueHandle per slot of a compiled pattern,
/// and an undo trail of the slots bound since the last Reset, threaded
/// through the slots themselves, so a backtrack unbinds exactly what it
/// bound and a partial match allocates nothing. A fact binds handles
/// into its own store layer — its OID is the layer's `kOid` word, an
/// attribute name its symbol — so the frame owns no values. Reusable:
/// Reset keeps capacity.
class MatchFrame {
 public:
  /// Points the frame at `pattern` with every slot unbound, then binds
  /// each slot whose variable `seed` binds to a handle into `seed`
  /// (which must outlive the frame's matches; null seeds nothing).
  void Reset(const CompiledOTerm* pattern, const Bindings* seed);

  /// Slot i's binding (vars()-ordered); every slot is bound during a
  /// full match.
  const ValueHandle& slot(size_t i) const { return slots_[i].value; }

  /// The current full match as Bindings: the seed, plus every slot the
  /// match bound, materialized.
  Bindings ToBindings() const;

 private:
  friend class FactMatcher;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// A slot's binding and the trail link: the slot bound just before it.
  struct Slot {
    ValueHandle value;
    std::uint32_t below = kNoSlot;
  };

  void Bind(std::uint32_t slot, const ValueHandle& value) {
    slots_[slot] = {value, top_};
    top_ = slot;
  }
  /// Unbinds every slot bound since the trail's top was `mark`.
  void UndoTo(std::uint32_t mark) {
    while (top_ != mark) {
      Slot& slot = slots_[top_];
      slot.value = ValueHandle();
      top_ = slot.below;
    }
  }

  const CompiledOTerm* pattern_ = nullptr;
  const Bindings* seed_ = nullptr;
  std::vector<Slot> slots_;
  std::uint32_t top_ = kNoSlot;  // the most recently bound slot
};

/// Shared O-term-against-fact unification used by both evaluators and
/// the query stream — the one matcher.
///
/// Semantics (Sections 2 and 5):
///  - a variable-named descriptor (schematic discrepancy) matches any
///    attribute of the fact and binds the name;
///  - a set-valued stored attribute matches element-wise (the Principle-5
///    convention: `brothers: x1` means x1 ∈ brothers);
///  - a nested descriptor follows the stored OID to the referenced fact
///    (resolved via the injected OidResolver) and matches recursively;
///  - OID equality consults the data-mapping registry when configured
///    ("oi1 = oi2 in terms of data mapping").
///
/// Facts are matched through FactView and bound into a MatchFrame of
/// handles, so stored facts are traversed in place and a value
/// materializes only when a full match is turned into Bindings.
class FactMatcher {
 public:
  using OidResolver = std::function<FactView(const Oid&)>;

  /// A borrowed callback, called once per full match with every slot of
  /// the frame bound. Holds a pointer to the callable: no allocation.
  class OnMatch {
   public:
    template <typename F>
    OnMatch(const F& f)  // NOLINT: implicit, like std::function
        : object_(&f), call_([](const void* object, const MatchFrame& frame) {
            (*static_cast<const F*>(object))(frame);
          }) {}
    void operator()(const MatchFrame& frame) const { call_(object_, frame); }

   private:
    const void* object_;
    void (*call_)(const void*, const MatchFrame&);
  };

  FactMatcher(OidResolver resolver, const DataMappingRegistry* mappings)
      : resolver_(std::move(resolver)), mappings_(mappings) {}

  /// Value equality with cross-database OID identity.
  bool ValuesEqual(const Value& a, const Value& b) const;
  /// Same, with the right-hand side still packed (alloc-free unless the
  /// mapping registry is consulted).
  bool ValuesEqual(const Value& a, const ValueHandle& b) const;
  /// Same, both sides handles.
  bool ValuesEqual(const ValueHandle& a, const ValueHandle& b) const;

  /// Matches `fact` against the frame's pattern under the frame's
  /// current bindings and calls `on_match` for every full match: the
  /// pattern's descriptors in order, a variable-named descriptor over
  /// the fact's attributes by name, a set's elements in stored order.
  /// The frame's slots are as before when Match returns. Compile a
  /// pattern once and Reset one frame per seed, not per fact.
  void Match(const FactView& fact, MatchFrame* frame,
             const OnMatch& on_match) const;

  /// Matches predicate arguments positionally: `args[i]` against the
  /// fact's attribute "i". A constant or bound variable must equal the
  /// stored value; an unbound variable binds to it. False when an
  /// attribute is missing, a value differs or an argument is nested —
  /// `bindings` may then hold a partial extension. Attribute names are
  /// formatted on the stack, so a candidate costs no allocation.
  bool MatchArgs(const std::vector<TermArg>& args, const FactView& fact,
                 Bindings* bindings) const;

 private:
  /// Where matching resumes: descriptor `at` of the list ending at
  /// `end`, against `fact`; once the list is done, `next` (null: the
  /// match is complete).
  struct Goal {
    std::uint32_t at;
    std::uint32_t end;
    FactView fact;
    const Goal* next;
  };

  void MatchFrom(const Goal& goal, MatchFrame* frame,
                 const OnMatch& on_match) const;
  /// Matches descriptor goal.at's value part against `stored`, the
  /// value of the attribute its name selected.
  void MatchValue(const Goal& goal, const ValueHandle& stored,
                  MatchFrame* frame, const OnMatch& on_match) const;

  OidResolver resolver_;
  const DataMappingRegistry* mappings_;
};

}  // namespace ooint

#endif  // OOINT_RULES_MATCHER_H_
