#include "assertions/parser.h"

#include <cstdint>
#include <vector>

#include "common/lexer.h"
#include "common/string_util.h"

namespace ooint {

namespace {

/// Recursive-descent parser over the shared token stream (see
/// common/lexer.h for the lexical grammar).
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : cursor_(std::move(tokens)) {}

  Result<AssertionSet> ParseFile() {
    AssertionSet set;
    while (!cursor_.AtEnd()) {
      Result<Assertion> a = ParseAssertion();
      if (!a.ok()) return a.status();
      OOINT_RETURN_IF_ERROR(set.Add(std::move(a).value()));
    }
    return set;
  }

  Result<Assertion> ParseAssertion() {
    OOINT_RETURN_IF_ERROR(cursor_.ExpectKeyword("assert"));
    Assertion assertion;

    // Head: classref, or SCHEMA(c1, c2, ...).
    OOINT_ASSIGN_OR_RETURN(std::string first, cursor_.ExpectIdent());
    if (cursor_.Consume(TokKind::kLParen)) {
      while (true) {
        OOINT_ASSIGN_OR_RETURN(std::string cls, cursor_.ExpectIdent());
        assertion.lhs.push_back({first, std::move(cls)});
        if (cursor_.Consume(TokKind::kComma)) continue;
        break;
      }
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRParen));
    } else {
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kDot));
      OOINT_ASSIGN_OR_RETURN(std::string cls, cursor_.ExpectIdent());
      assertion.lhs.push_back({std::move(first), std::move(cls)});
    }

    OOINT_ASSIGN_OR_RETURN(assertion.rel, ParseSetRel());

    OOINT_ASSIGN_OR_RETURN(std::string rhs_schema, cursor_.ExpectIdent());
    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kDot));
    OOINT_ASSIGN_OR_RETURN(std::string rhs_class, cursor_.ExpectIdent());
    assertion.rhs = {std::move(rhs_schema), std::move(rhs_class)};

    if (cursor_.Consume(TokKind::kSemi)) return assertion;
    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLBrace));
    while (cursor_.Peek().kind != TokKind::kRBrace) {
      OOINT_RETURN_IF_ERROR(ParseEntry(&assertion));
    }
    cursor_.Next();  // '}'
    return assertion;
  }

 private:
  Result<SetRel> ParseSetRel() {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kEqEq:
        return SetRel::kEquivalent;
      case TokKind::kLe:
        return SetRel::kSubset;
      case TokKind::kGe:
        return SetRel::kSuperset;
      case TokKind::kTilde:
        return SetRel::kOverlap;
      case TokKind::kBang:
        return SetRel::kDisjoint;
      case TokKind::kArrow:
        return SetRel::kDerivation;
      default:
        return cursor_.ErrorAt(
            tok, "expected a class relation (== <= >= ~ ! ->)");
    }
  }

  Result<Path> ParsePath() {
    OOINT_ASSIGN_OR_RETURN(std::string schema, cursor_.ExpectIdent());
    OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kDot));
    OOINT_ASSIGN_OR_RETURN(std::string class_name, cursor_.ExpectIdent());
    std::vector<std::string> components;
    bool name_ref = false;
    while (cursor_.Consume(TokKind::kDot)) {
      const Token& tok = cursor_.Peek();
      if (tok.kind == TokKind::kIdent) {
        components.push_back(tok.text);
        cursor_.Next();
      } else if (tok.kind == TokKind::kString) {
        // A quoted name reference must be the final component
        // (Definition 4.1).
        components.push_back(tok.text);
        name_ref = true;
        cursor_.Next();
        break;
      } else {
        return cursor_.ErrorAt(tok, "expected path component");
      }
    }
    return Path(std::move(schema), std::move(class_name),
                std::move(components), name_ref);
  }

  Result<Value> ParseConstant() {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kString:
        return Value::String(tok.text);
      case TokKind::kNumber: {
        if (tok.text.find('.') != std::string::npos) {
          OOINT_ASSIGN_OR_RETURN(const double real,
                                 cursor_.NumberAt<double>(tok));
          return Value::Real(real);
        }
        OOINT_ASSIGN_OR_RETURN(const std::int64_t integer,
                               cursor_.NumberAt<std::int64_t>(tok));
        return Value::Integer(integer);
      }
      case TokKind::kIdent:
        if (tok.text == "true") return Value::Boolean(true);
        if (tok.text == "false") return Value::Boolean(false);
        // Bare identifiers denote string constants (the paper writes
        // `with car-name = car-name_1` without quotes).
        return Value::String(tok.text);
      default:
        return cursor_.ErrorAt(tok, "expected a constant");
    }
  }

  Result<CompareOp> ParseCompareOp() {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kEqEq:
      case TokKind::kEq:
        return CompareOp::kEq;
      case TokKind::kNe:
        return CompareOp::kNe;
      case TokKind::kLt:
        return CompareOp::kLt;
      case TokKind::kLe:
        return CompareOp::kLe;
      case TokKind::kGt:
        return CompareOp::kGt;
      case TokKind::kGe:
        return CompareOp::kGe;
      default:
        return cursor_.ErrorAt(tok, "expected a comparison operator");
    }
  }

  Status ParseEntry(Assertion* assertion) {
    const Token& tok = cursor_.Peek();
    if (tok.kind != TokKind::kIdent) {
      return cursor_.ErrorAt(tok, "expected 'value', 'attr' or 'agg'");
    }
    if (tok.text == "value") {
      cursor_.Next();
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLParen));
      OOINT_ASSIGN_OR_RETURN(std::string side_schema, cursor_.ExpectIdent());
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRParen));
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kColon));
      ValueCorrespondence vc;
      if (side_schema == assertion->lhs.front().schema) {
        vc.side = 1;
      } else if (side_schema == assertion->rhs.schema) {
        vc.side = 2;
      } else {
        return cursor_.ErrorAt(
            tok, StrCat("value correspondence schema '", side_schema,
                        "' is neither side of the assertion"));
      }
      OOINT_ASSIGN_OR_RETURN(vc.lhs, ParsePath());
      OOINT_ASSIGN_OR_RETURN(vc.rel, ParseValueRel());
      OOINT_ASSIGN_OR_RETURN(vc.rhs, ParsePath());
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kSemi));
      assertion->value_corrs.push_back(std::move(vc));
      return Status::OK();
    }
    if (tok.text == "attr") {
      cursor_.Next();
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kColon));
      AttributeCorrespondence ac;
      OOINT_ASSIGN_OR_RETURN(ac.lhs, ParsePath());
      OOINT_RETURN_IF_ERROR(ParseAttrRel(&ac));
      OOINT_ASSIGN_OR_RETURN(ac.rhs, ParsePath());
      if (cursor_.ConsumeKeyword("with")) {
        WithPredicate with;
        OOINT_ASSIGN_OR_RETURN(with.attribute, ParsePath());
        OOINT_ASSIGN_OR_RETURN(with.op, ParseCompareOp());
        OOINT_ASSIGN_OR_RETURN(with.constant, ParseConstant());
        ac.with = std::move(with);
      }
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kSemi));
      assertion->attr_corrs.push_back(std::move(ac));
      return Status::OK();
    }
    if (tok.text == "agg") {
      cursor_.Next();
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kColon));
      AggCorrespondence gc;
      OOINT_ASSIGN_OR_RETURN(gc.lhs, ParsePath());
      OOINT_ASSIGN_OR_RETURN(gc.rel, ParseAggRel());
      OOINT_ASSIGN_OR_RETURN(gc.rhs, ParsePath());
      OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kSemi));
      assertion->agg_corrs.push_back(std::move(gc));
      return Status::OK();
    }
    return cursor_.ErrorAt(tok, StrCat("unknown correspondence kind '",
                                       tok.text,
                                       "' (expected value/attr/agg)"));
  }

  Status ParseAttrRel(AttributeCorrespondence* ac) {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kEqEq:
        ac->rel = AttrRel::kEquivalent;
        return Status::OK();
      case TokKind::kLe:
        ac->rel = AttrRel::kSubset;
        return Status::OK();
      case TokKind::kGe:
        ac->rel = AttrRel::kSuperset;
        return Status::OK();
      case TokKind::kTilde:
        ac->rel = AttrRel::kOverlap;
        return Status::OK();
      case TokKind::kBang:
        ac->rel = AttrRel::kDisjoint;
        return Status::OK();
      case TokKind::kIdent:
        if (tok.text == "alpha") {
          ac->rel = AttrRel::kComposedInto;
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kLParen));
          OOINT_ASSIGN_OR_RETURN(ac->composed_name, cursor_.ExpectIdent());
          OOINT_RETURN_IF_ERROR(cursor_.Expect(TokKind::kRParen));
          return Status::OK();
        }
        if (tok.text == "beta") {
          ac->rel = AttrRel::kMoreSpecific;
          return Status::OK();
        }
        break;
      default:
        break;
    }
    return cursor_.ErrorAt(
        tok, "expected an attribute relation (== <= >= ~ ! alpha beta)");
  }

  Result<AggRel> ParseAggRel() {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kEqEq:
        return AggRel::kEquivalent;
      case TokKind::kLe:
        return AggRel::kSubset;
      case TokKind::kGe:
        return AggRel::kSuperset;
      case TokKind::kTilde:
        return AggRel::kOverlap;
      case TokKind::kBang:
        return AggRel::kDisjoint;
      case TokKind::kIdent:
        if (tok.text == "rev") return AggRel::kReverse;
        break;
      default:
        break;
    }
    return cursor_.ErrorAt(
        tok, "expected an aggregation relation (== <= >= ~ ! rev)");
  }

  Result<ValueRel> ParseValueRel() {
    const Token& tok = cursor_.Next();
    switch (tok.kind) {
      case TokKind::kEq:
      case TokKind::kEqEq:
        return ValueRel::kEq;
      case TokKind::kNe:
        return ValueRel::kNe;
      case TokKind::kGe:
        return ValueRel::kSupseteq;
      case TokKind::kTilde:
        return ValueRel::kOverlap;
      case TokKind::kBang:
        return ValueRel::kDisjoint;
      case TokKind::kIdent:
        if (tok.text == "in") return ValueRel::kIn;
        break;
      default:
        break;
    }
    return cursor_.ErrorAt(tok, "expected a value relation (= != in >= ~ !)");
  }

  TokenCursor cursor_;
};

}  // namespace

Result<AssertionSet> AssertionParser::Parse(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseFile();
}

Result<Assertion> AssertionParser::ParseOne(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseAssertion();
}

}  // namespace ooint
