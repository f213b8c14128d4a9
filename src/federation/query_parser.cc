#include "federation/query_parser.h"

#include <cstdint>

#include "common/lexer.h"
#include "common/string_util.h"

namespace ooint {

Result<ParsedQuery> ParseQuery(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  TokenCursor cursor(std::move(tokens).value());

  // The Prolog-style prompt: the lexer folds "?-" (or a bare "?") into
  // one kQuestion token.
  OOINT_RETURN_IF_ERROR(cursor.Expect(TokKind::kQuestion));

  OOINT_ASSIGN_OR_RETURN(std::string schema, cursor.ExpectIdent());
  OOINT_RETURN_IF_ERROR(cursor.Expect(TokKind::kDot));
  OOINT_ASSIGN_OR_RETURN(std::string class_name, cursor.ExpectIdent());

  ParsedQuery parsed;
  parsed.schema = std::move(schema);
  parsed.class_name = std::move(class_name);
  parsed.query = Query(parsed.class_name);

  OOINT_RETURN_IF_ERROR(cursor.Expect(TokKind::kLParen));
  if (cursor.Peek().kind != TokKind::kRParen) {
    while (true) {
      // Attribute name, possibly dotted (flattened nested attributes).
      OOINT_ASSIGN_OR_RETURN(std::string attr, cursor.ExpectIdent());
      while (cursor.Peek().kind == TokKind::kDot) {
        cursor.Next();
        OOINT_ASSIGN_OR_RETURN(std::string part, cursor.ExpectIdent());
        attr += "." + part;
      }
      OOINT_RETURN_IF_ERROR(cursor.Expect(TokKind::kColon));
      const Token& tok = cursor.Next();
      switch (tok.kind) {
        case TokKind::kString:
          parsed.query.Where(attr, Value::String(tok.text));
          break;
        case TokKind::kNumber:
          if (tok.text.find('.') != std::string::npos) {
            OOINT_ASSIGN_OR_RETURN(const double real,
                                   cursor.NumberAt<double>(tok));
            parsed.query.Where(attr, Value::Real(real));
          } else {
            OOINT_ASSIGN_OR_RETURN(const std::int64_t integer,
                                   cursor.NumberAt<std::int64_t>(tok));
            parsed.query.Where(attr, Value::Integer(integer));
          }
          break;
        case TokKind::kIdent:
          if (tok.text == "true") {
            parsed.query.Where(attr, Value::Boolean(true));
          } else if (tok.text == "false") {
            parsed.query.Where(attr, Value::Boolean(false));
          } else {
            // A bare identifier is a projection variable.
            parsed.query.Select(attr, tok.text);
          }
          break;
        default:
          return cursor.ErrorAt(
              tok, "expected a constant or a projection variable");
      }
      if (cursor.Consume(TokKind::kComma)) continue;
      break;
    }
  }
  OOINT_RETURN_IF_ERROR(cursor.Expect(TokKind::kRParen));
  if (!cursor.AtEnd()) {
    return cursor.ErrorAt(cursor.Peek(), "trailing input after query");
  }
  return parsed;
}

Result<std::vector<Bindings>> RunTextQuery(const FsmClient& client,
                                           const std::string& text) {
  Result<ParsedQuery> parsed = ParseQuery(text);
  if (!parsed.ok()) return parsed.status();
  Result<std::string> global_name =
      client.GlobalNameOf(parsed.value().schema, parsed.value().class_name);
  if (!global_name.ok()) return global_name.status();
  // Rebuild the query against the resolved global concept.
  Query query(global_name.value());
  for (const AttrDescriptor& d : parsed.value().query.pattern().attrs) {
    if (d.value.is_constant()) {
      query.Where(d.attribute, d.value.constant);
    } else if (d.value.is_variable()) {
      query.Select(d.attribute, d.value.var);
    }
  }
  return client.Run(query);
}

}  // namespace ooint
