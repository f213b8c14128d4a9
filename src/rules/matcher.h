#ifndef OOINT_RULES_MATCHER_H_
#define OOINT_RULES_MATCHER_H_

#include <functional>
#include <map>
#include <string>
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

/// Shared O-term-against-fact unification used by both evaluators.
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
/// Facts are matched through FactView, so packed store facts are
/// traversed in place — values materialize only when they bind a
/// variable. The `const Fact&` overload wraps materialized facts (the
/// top-down evaluator's memo rows) in a view. A match extends one working
/// copy of the caller's bindings in place and undoes each binding on
/// backtrack, so a row is copied only when the whole pattern matches.
class FactMatcher {
 public:
  using OidResolver = std::function<FactView(const Oid&)>;

  FactMatcher(OidResolver resolver, const DataMappingRegistry* mappings)
      : resolver_(std::move(resolver)), mappings_(mappings) {}

  /// Value equality with cross-database OID identity.
  bool ValuesEqual(const Value& a, const Value& b) const;
  /// Same, with the right-hand side still packed (alloc-free unless the
  /// mapping registry is consulted).
  bool ValuesEqual(const Value& a, const ValueHandle& b) const;

  /// Appends to `out` every extension of `bindings` under which
  /// `pattern` matches `fact`.
  void MatchOTerm(const OTerm& pattern, const FactView& fact,
                  const Bindings& bindings, std::vector<Bindings>* out) const;
  void MatchOTerm(const OTerm& pattern, const Fact& fact,
                  const Bindings& bindings, std::vector<Bindings>* out) const {
    MatchOTerm(pattern, FactView(&fact), bindings, out);
  }

  /// Matches predicate arguments positionally: `args[i]` against the
  /// fact's attribute "i". A constant or bound variable must equal the
  /// stored value; an unbound variable binds to it. False when an
  /// attribute is missing, a value differs or an argument is nested —
  /// `bindings` may then hold a partial extension. Attribute names are
  /// formatted on the stack, so a candidate costs no allocation.
  bool MatchArgs(const std::vector<TermArg>& args, const FactView& fact,
                 Bindings* bindings) const;

 private:
  /// Matches the descriptor list starting at `index`, appending a copy of
  /// `frame` per full match. Binds into `frame` and erases what it bound
  /// before returning, so `frame` is unchanged afterwards.
  void MatchDescriptors(const std::vector<AttrDescriptor>& descriptors,
                        size_t index, const FactView& fact, Bindings* frame,
                        std::vector<Bindings>* out) const;
  /// Matches descriptor `index` against one (name, stored value) pair of
  /// the fact, then continues down the descriptor list; `frame` as above.
  void MatchAttr(const std::vector<AttrDescriptor>& descriptors, size_t index,
                 const FactView& fact, std::string_view name,
                 const ValueHandle& stored, Bindings* frame,
                 std::vector<Bindings>* out) const;

  OidResolver resolver_;
  const DataMappingRegistry* mappings_;
};

}  // namespace ooint

#endif  // OOINT_RULES_MATCHER_H_
