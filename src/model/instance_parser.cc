#include "model/instance_parser.h"

#include <cstdint>
#include <map>

#include "common/lexer.h"
#include "common/string_util.h"

namespace ooint {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, InstanceStore* store)
      : cursor_(std::move(tokens)), store_(store) {}

  Result<size_t> Run() {
    size_t inserted = 0;
    while (!cursor_.AtEnd()) {
      OOINT_RETURN_IF_ERROR(ParseInsert());
      ++inserted;
    }
    return inserted;
  }

 private:
  Status ParseInsert() {
    OOINT_RETURN_IF_ERROR(cursor_.ExpectKeyword("insert"));
    OOINT_ASSIGN_OR_RETURN(std::string class_name, cursor_.ExpectIdent());
    std::string binding;
    if (cursor_.ConsumeKeyword("as")) {
      OOINT_ASSIGN_OR_RETURN(binding, cursor_.ExpectIdent());
    }
    Result<Object*> object = store_->NewObject(class_name);
    if (!object.ok()) return object.status();

    const ClassId class_id = store_->schema().FindClass(class_name);
    const ClassDef& class_def = store_->schema().class_def(class_id);

    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLBrace));
    while (cursor_.Peek().kind != TokKind::kRBrace) {
      OOINT_ASSIGN_OR_RETURN(std::string member, cursor_.ExpectIdent());
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kColon));
      const bool is_aggregation =
          class_def.FindAggregation(member) != nullptr;
      if (class_def.FindAttribute(member) == nullptr && !is_aggregation) {
        return cursor_.ErrorAt(
            cursor_.Peek(),
            StrCat("class '", class_name, "' has no member '", member, "'"));
      }
      if (is_aggregation) {
        // One @ref or a set of them.
        if (cursor_.Peek().kind == TokKind::kLBrace) {
          cursor_.Next();
          while (cursor_.Peek().kind != TokKind::kRBrace) {
            OOINT_ASSIGN_OR_RETURN(Oid target, ParseReference());
            object.value()->AddAggTarget(member, std::move(target));
            if (!cursor_.Consume(TokKind::kComma)) break;
          }
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRBrace));
        } else {
          OOINT_ASSIGN_OR_RETURN(Oid target, ParseReference());
          object.value()->AddAggTarget(member, std::move(target));
        }
      } else {
        OOINT_ASSIGN_OR_RETURN(Value value, ParseValue());
        object.value()->Set(member, std::move(value));
      }
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kSemi));
    }
    cursor_.Next();  // '}'
    if (!binding.empty()) {
      bindings_[binding] = object.value()->oid();
    }
    return Status::OK();
  }

  Result<Oid> ParseReference() {
    // '@' is not a lexer symbol; references are written as @name, which
    // the lexer would reject — so the data language spells them
    // ref(name).
    OOINT_RETURN_IF_ERROR(cursor_.ExpectKeyword("ref"));
    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLParen));
    OOINT_ASSIGN_OR_RETURN(std::string name, cursor_.ExpectIdent());
    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRParen));
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      return Status::NotFound(
          StrCat("ref(", name, ") does not name an inserted object"));
    }
    return it->second;
  }

  /// `depth` counts the sets enclosing the value.
  Result<Value> ParseValue(int depth = 0) {
    const Token& tok = cursor_.Peek();
    switch (tok.kind) {
      case TokKind::kString:
        cursor_.Next();
        return Value::String(tok.text);
      case TokKind::kNumber: {
        cursor_.Next();
        if (tok.text.find('.') != std::string::npos) {
          OOINT_ASSIGN_OR_RETURN(const double real,
                                 cursor_.NumberAt<double>(tok));
          return Value::Real(real);
        }
        OOINT_ASSIGN_OR_RETURN(const std::int64_t integer,
                               cursor_.NumberAt<std::int64_t>(tok));
        return Value::Integer(integer);
      }
      case TokKind::kLBrace: {
        if (depth >= InstanceParser::kMaxValueNesting) {
          return cursor_.ErrorAt(
              tok, StrCat("sets nested deeper than ",
                          InstanceParser::kMaxValueNesting, " levels"));
        }
        cursor_.Next();
        std::vector<Value> elements;
        while (cursor_.Peek().kind != TokKind::kRBrace) {
          OOINT_ASSIGN_OR_RETURN(Value element, ParseValue(depth + 1));
          elements.push_back(std::move(element));
          if (!cursor_.Consume(TokKind::kComma)) break;
        }
        OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRBrace));
        return Value::Set(std::move(elements));
      }
      case TokKind::kIdent:
        if (tok.text == "true") {
          cursor_.Next();
          return Value::Boolean(true);
        }
        if (tok.text == "false") {
          cursor_.Next();
          return Value::Boolean(false);
        }
        if (tok.text == "date") {
          cursor_.Next();
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLParen));
          Date date;
          OOINT_ASSIGN_OR_RETURN(date.year, ParseDatePart("year"));
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kComma));
          OOINT_ASSIGN_OR_RETURN(date.month, ParseDatePart("month"));
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kComma));
          OOINT_ASSIGN_OR_RETURN(date.day, ParseDatePart("day"));
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRParen));
          return Value::OfDate(date);
        }
        if (tok.text == "ref") {
          OOINT_ASSIGN_OR_RETURN(Oid target, ParseReference());
          return Value::OfOid(std::move(target));
        }
        return cursor_.ErrorAt(tok, StrCat("unexpected identifier '",
                                           tok.text, "' in value position"));
      default:
        return cursor_.ErrorAt(tok, "expected a value");
    }
  }

  /// One integer component of a date(year, month, day) literal.
  Result<int> ParseDatePart(const char* what) {
    const Token& tok = cursor_.Next();
    if (tok.kind != TokKind::kNumber) {
      return cursor_.ErrorAt(tok, StrCat("expected ", what));
    }
    return cursor_.NumberAt<int>(tok);
  }

  TokenCursor cursor_;
  InstanceStore* store_;
  std::map<std::string, Oid> bindings_;
};

}  // namespace

Result<size_t> InstanceParser::Load(const std::string& text,
                                    InstanceStore* store) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), store);
  return parser.Run();
}

}  // namespace ooint
