#ifndef OOINT_MODEL_INSTANCE_PARSER_H_
#define OOINT_MODEL_INSTANCE_PARSER_H_

#include <string>

#include "common/result.h"
#include "model/instance_store.h"

namespace ooint {

/// Parser for the data-definition language — the textual form component
/// databases' extents can be loaded from:
///
///   insert parent {
///     Pssn#: "ssn-john";
///     name: "John";
///     children: {"ssn-ann", "ssn-bob"};     # multi-valued
///   }
///   insert brother as sam {                  # named for references
///     Bssn#: "ssn-sam";
///     brothers: {"ssn-john"};
///   }
///   insert Dept as rnd { d_name: "R&D"; }
///   insert Empl { e_name: "alice"; work_in: @rnd; }   # aggregation
///
/// Values: quoted strings, integers, reals, true/false, date(Y, M, D),
/// {…} sets, and @name references to previously inserted objects
/// (attribute position: stored as an OID value; aggregation-function
/// position: recorded as an aggregation target).
class InstanceParser {
 public:
  /// Deepest set nesting a value may have. The value grammar is the
  /// only recursive production of the four text languages; past this
  /// depth Load returns kParseError at the offending '{' instead of
  /// recursing on (hostile input must not overflow the stack).
  static constexpr int kMaxValueNesting = 256;

  /// Parses `text` and inserts every object into `store` (whose schema
  /// provides the class and member definitions). Returns the number of
  /// objects inserted. On error the store may hold a prefix of the
  /// input.
  static Result<size_t> Load(const std::string& text, InstanceStore* store);
};

}  // namespace ooint

#endif  // OOINT_MODEL_INSTANCE_PARSER_H_
