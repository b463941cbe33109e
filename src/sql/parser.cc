#include "sql/parser.h"

#include "sql/lexer.h"

namespace iolap {

namespace {

// Recursive-descent parser over the token stream. Precedence (loosest to
// tightest): OR, AND, NOT, comparison / IN, additive, multiplicative,
// unary minus, primary.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmtPtr> ParseStatement() {
    IOLAP_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelectBody());
    Accept(TokenKind::kSemicolon);
    if (!Check(TokenKind::kEnd)) {
      return Error("unexpected trailing input");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool CheckKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdentifier && Peek().text == kw;
  }

  bool Accept(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (!CheckKeyword(kw)) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().offset));
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) return Error("expected " + kw);
    return Status::OK();
  }

  Status Expect(TokenKind kind, const std::string& what) {
    if (!Accept(kind)) return Error("expected " + what);
    return Status::OK();
  }

  static bool IsReserved(const std::string& word) {
    static const char* kReserved[] = {
        "select", "from",  "where", "group", "by",      "having",
        "as",     "and",   "or",    "not",   "in",      "join",
        "on",     "order", "limit", "asc",   "desc",    "between"};
    for (const char* r : kReserved) {
      if (word == r) return true;
    }
    return false;
  }

  Result<SelectStmtPtr> ParseSelectBody() {
    IOLAP_RETURN_IF_ERROR(ExpectKeyword("select"));
    auto stmt = std::make_shared<SelectStmt>();

    // Select list.
    do {
      AstSelectItem item;
      IOLAP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("as")) {
        if (!Check(TokenKind::kIdentifier)) return Error("expected alias");
        item.alias = Advance().text;
      } else if (Check(TokenKind::kIdentifier) && !IsReserved(Peek().text)) {
        item.alias = Advance().text;  // implicit alias
      }
      stmt->items.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));

    // FROM.
    IOLAP_RETURN_IF_ERROR(ExpectKeyword("from"));
    do {
      if (!Check(TokenKind::kIdentifier)) return Error("expected table name");
      AstTableRef ref;
      ref.table = Advance().text;
      ref.alias = ref.table;
      if (Check(TokenKind::kIdentifier) && !IsReserved(Peek().text)) {
        ref.alias = Advance().text;
      }
      stmt->from.push_back(std::move(ref));
      // Explicit JOIN ... ON cond sugar: fold the condition into WHERE.
      while (AcceptKeyword("join")) {
        if (!Check(TokenKind::kIdentifier)) {
          return Error("expected table name after JOIN");
        }
        AstTableRef joined;
        joined.table = Advance().text;
        joined.alias = joined.table;
        if (Check(TokenKind::kIdentifier) && !IsReserved(Peek().text)) {
          joined.alias = Advance().text;
        }
        stmt->from.push_back(std::move(joined));
        IOLAP_RETURN_IF_ERROR(ExpectKeyword("on"));
        IOLAP_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
        if (stmt->where == nullptr) {
          stmt->where = std::move(cond);
        } else {
          auto conj = std::make_shared<AstExpr>();
          conj->kind = AstExpr::Kind::kBinary;
          conj->name = "and";
          conj->args = {stmt->where, std::move(cond)};
          stmt->where = std::move(conj);
        }
      }
    } while (Accept(TokenKind::kComma));

    // WHERE.
    if (AcceptKeyword("where")) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
      if (stmt->where == nullptr) {
        stmt->where = std::move(cond);
      } else {
        auto conj = std::make_shared<AstExpr>();
        conj->kind = AstExpr::Kind::kBinary;
        conj->name = "and";
        conj->args = {stmt->where, std::move(cond)};
        stmt->where = std::move(conj);
      }
    }

    // GROUP BY.
    if (AcceptKeyword("group")) {
      IOLAP_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        IOLAP_ASSIGN_OR_RETURN(AstExprPtr key, ParseExpr());
        stmt->group_by.push_back(std::move(key));
      } while (Accept(TokenKind::kComma));
    }

    // HAVING.
    if (AcceptKeyword("having")) {
      IOLAP_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }

    // ORDER BY (presentation).
    if (AcceptKeyword("order")) {
      IOLAP_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        AstOrderItem item;
        IOLAP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("desc")) {
          item.descending = true;
        } else {
          AcceptKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Accept(TokenKind::kComma));
    }

    // LIMIT.
    if (AcceptKeyword("limit")) {
      if (!Check(TokenKind::kNumber) || Peek().is_float) {
        return Error("LIMIT expects an integer");
      }
      stmt->limit = std::stoll(Advance().text);
    }
    return stmt;
  }

  Result<AstExprPtr> ParseExpr() { return ParseOr(); }

  Result<AstExprPtr> ParseOr() {
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
    while (AcceptKeyword("or")) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr right, ParseAnd());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->name = "or";
      node->args = {std::move(left), std::move(right)};
      left = std::move(node);
    }
    return left;
  }

  Result<AstExprPtr> ParseAnd() {
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
    while (AcceptKeyword("and")) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr right, ParseNot());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->name = "and";
      node->args = {std::move(left), std::move(right)};
      left = std::move(node);
    }
    return left;
  }

  Result<AstExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr operand, ParseNot());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kUnary;
      node->name = "not";
      node->args = {std::move(operand)};
      return AstExprPtr(node);
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr left, ParseAdditive());
    // x BETWEEN a AND b  ⇒  x >= a AND x <= b (bounds bind tighter than
    // the logical AND, so they parse at additive level).
    if (AcceptKeyword("between")) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
      IOLAP_RETURN_IF_ERROR(ExpectKeyword("and"));
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
      auto ge = std::make_shared<AstExpr>();
      ge->kind = AstExpr::Kind::kBinary;
      ge->name = ">=";
      ge->args = {left, std::move(lo)};
      auto le = std::make_shared<AstExpr>();
      le->kind = AstExpr::Kind::kBinary;
      le->name = "<=";
      le->args = {left, std::move(hi)};
      auto conj = std::make_shared<AstExpr>();
      conj->kind = AstExpr::Kind::kBinary;
      conj->name = "and";
      conj->args = {std::move(ge), std::move(le)};
      return AstExprPtr(conj);
    }
    // IN (SELECT ...) or a literal IN-list (desugared to an OR chain).
    if (AcceptKeyword("in")) {
      IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kLeftParen, "'('"));
      if (!CheckKeyword("select")) {
        AstExprPtr disjunction;
        do {
          IOLAP_ASSIGN_OR_RETURN(AstExprPtr value, ParseExpr());
          auto eq = std::make_shared<AstExpr>();
          eq->kind = AstExpr::Kind::kBinary;
          eq->name = "=";
          eq->args = {left, std::move(value)};
          if (disjunction == nullptr) {
            disjunction = std::move(eq);
          } else {
            auto either = std::make_shared<AstExpr>();
            either->kind = AstExpr::Kind::kBinary;
            either->name = "or";
            either->args = {std::move(disjunction), std::move(eq)};
            disjunction = std::move(either);
          }
        } while (Accept(TokenKind::kComma));
        IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
        return disjunction;
      }
      IOLAP_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectBody());
      IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kIn;
      node->args = {std::move(left)};
      node->subquery = std::move(sub);
      return AstExprPtr(node);
    }
    const char* op = nullptr;
    switch (Peek().kind) {
      case TokenKind::kLess:
        op = "<";
        break;
      case TokenKind::kLessEq:
        op = "<=";
        break;
      case TokenKind::kGreater:
        op = ">";
        break;
      case TokenKind::kGreaterEq:
        op = ">=";
        break;
      case TokenKind::kEq:
        op = "=";
        break;
      case TokenKind::kNotEq:
        op = "<>";
        break;
      default:
        return left;
    }
    Advance();
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr right, ParseAdditive());
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExpr::Kind::kBinary;
    node->name = op;
    node->args = {std::move(left), std::move(right)};
    return AstExprPtr(node);
  }

  Result<AstExprPtr> ParseAdditive() {
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr left, ParseMultiplicative());
    for (;;) {
      const char* op = nullptr;
      if (Check(TokenKind::kPlus)) op = "+";
      if (Check(TokenKind::kMinus)) op = "-";
      if (op == nullptr) return left;
      Advance();
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr right, ParseMultiplicative());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->name = op;
      node->args = {std::move(left), std::move(right)};
      left = std::move(node);
    }
  }

  Result<AstExprPtr> ParseMultiplicative() {
    IOLAP_ASSIGN_OR_RETURN(AstExprPtr left, ParseUnary());
    for (;;) {
      const char* op = nullptr;
      if (Check(TokenKind::kStar)) op = "*";
      if (Check(TokenKind::kSlash)) op = "/";
      if (Check(TokenKind::kPercent)) op = "%";
      if (op == nullptr) return left;
      Advance();
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr right, ParseUnary());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->name = op;
      node->args = {std::move(left), std::move(right)};
      left = std::move(node);
    }
  }

  Result<AstExprPtr> ParseUnary() {
    if (Accept(TokenKind::kMinus)) {
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr operand, ParseUnary());
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExpr::Kind::kUnary;
      node->name = "-";
      node->args = {std::move(operand)};
      return AstExprPtr(node);
    }
    return ParsePrimary();
  }

  Result<AstExprPtr> ParsePrimary() {
    auto node = std::make_shared<AstExpr>();
    if (Check(TokenKind::kNumber)) {
      const Token& token = Advance();
      node->kind = AstExpr::Kind::kLiteral;
      node->literal = token.is_float
                          ? Value::Double(std::stod(token.text))
                          : Value::Int64(std::stoll(token.text));
      return AstExprPtr(node);
    }
    if (Check(TokenKind::kString)) {
      node->kind = AstExpr::Kind::kLiteral;
      node->literal = Value::String(Advance().text);
      return AstExprPtr(node);
    }
    if (AcceptKeyword("null")) {
      node->kind = AstExpr::Kind::kLiteral;  // literal defaults to NULL
      return AstExprPtr(node);
    }
    if (Check(TokenKind::kStar)) {
      Advance();
      node->kind = AstExpr::Kind::kStar;
      return AstExprPtr(node);
    }
    if (Accept(TokenKind::kLeftParen)) {
      if (CheckKeyword("select")) {
        IOLAP_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectBody());
        IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
        node->kind = AstExpr::Kind::kSubquery;
        node->subquery = std::move(sub);
        return AstExprPtr(node);
      }
      IOLAP_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
      IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
      return inner;
    }
    if (Check(TokenKind::kIdentifier)) {
      const std::string first = Advance().text;
      if (IsReserved(first)) {
        return Error("unexpected keyword '" + first + "'");
      }
      // Function call?
      if (Accept(TokenKind::kLeftParen)) {
        node->kind = AstExpr::Kind::kCall;
        node->name = first;
        if (!Check(TokenKind::kRightParen)) {
          do {
            IOLAP_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
            node->args.push_back(std::move(arg));
          } while (Accept(TokenKind::kComma));
        }
        IOLAP_RETURN_IF_ERROR(Expect(TokenKind::kRightParen, "')'"));
        return AstExprPtr(node);
      }
      // qualified column?
      node->kind = AstExpr::Kind::kColumn;
      if (Accept(TokenKind::kDot)) {
        if (!Check(TokenKind::kIdentifier)) {
          return Error("expected column after '.'");
        }
        node->qualifier = first;
        node->name = Advance().text;
      } else {
        node->name = first;
      }
      return AstExprPtr(node);
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string AstExpr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColumn:
      return qualifier.empty() ? name : qualifier + "." + name;
    case Kind::kUnary:
      return name + "(" + args[0]->ToString() + ")";
    case Kind::kBinary:
      return "(" + args[0]->ToString() + " " + name + " " +
             args[1]->ToString() + ")";
    case Kind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kSubquery:
      return "(" + subquery->ToString() + ")";
    case Kind::kIn:
      return args[0]->ToString() + " IN (" + subquery->ToString() + ")";
    case Kind::kStar:
      return "*";
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].expr->ToString();
    if (!items[i].alias.empty()) out += " AS " + items[i].alias;
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].table;
    if (from[i].alias != from[i].table) out += " " + from[i].alias;
  }
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having != nullptr) out += " HAVING " + having->ToString();
  return out;
}

Result<SelectStmtPtr> ParseSelect(const std::string& sql) {
  IOLAP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace iolap
