#include "src/relational/sql_parser.h"

#include <utility>

#include "src/common/strings.h"
#include "src/relational/sql_lexer.h"

namespace oxml {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Enables '?' parameter markers. Every ParamExpr produced by this parse
  /// shares `params` as its binding buffer; the caller resizes it to
  /// param_count() afterwards.
  void EnableParams(std::shared_ptr<Row> params) {
    params_ = std::move(params);
  }
  size_t param_count() const { return param_count_; }

  Result<StmtPtr> ParseStatement() {
    OXML_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatementInner());
    MatchSymbol(";");
    if (!AtEnd()) return Error("trailing tokens after statement");
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Peek().offset));
  }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kIdentifier &&
           EqualsIgnoreCase(Peek().text, kw);
  }

  bool MatchKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!MatchKeyword(kw)) {
      return Error("expected " + std::string(kw));
    }
    return Status::OK();
  }

  bool PeekSymbol(std::string_view s) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == s;
  }

  bool MatchSymbol(std::string_view s) {
    if (!PeekSymbol(s)) return false;
    Advance();
    return true;
  }

  Status ExpectSymbol(std::string_view s) {
    if (!MatchSymbol(s)) return Error("expected '" + std::string(s) + "'");
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected " + what);
    }
    return Advance().text;
  }

  Result<StmtPtr> ParseStatementInner() {
    if (PeekKeyword("SELECT")) return ParseSelect();
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("CREATE")) return ParseCreate();
    if (PeekKeyword("DROP")) return ParseDrop();
    return Error("expected a statement");
  }

  Result<StmtPtr> ParseSelect() {
    OXML_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = MatchKeyword("DISTINCT");

    // Select list.
    do {
      SelectItem item;
      if (PeekSymbol("*")) {
        Advance();
        item.expr = nullptr;  // bare *
      } else {
        OXML_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("AS")) {
          OXML_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Peek().kind == TokenKind::kIdentifier &&
                   !IsClauseKeyword(Peek().text)) {
          item.alias = Advance().text;
        }
      }
      stmt->items.push_back(std::move(item));
    } while (MatchSymbol(","));

    OXML_RETURN_NOT_OK(ExpectKeyword("FROM"));
    do {
      TableRef ref;
      OXML_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
      if (MatchKeyword("AS")) {
        OXML_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsClauseKeyword(Peek().text)) {
        ref.alias = Advance().text;
      }
      stmt->from.push_back(std::move(ref));
    } while (MatchSymbol(","));

    if (MatchKeyword("WHERE")) {
      OXML_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      OXML_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OXML_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("ORDER")) {
      OXML_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderItem item;
        OXML_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          item.desc = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("LIMIT")) {
      // An integer literal or a '?' marker: anything else (a column, an
      // arithmetic expression) has no value before the first row.
      const Token& tok = Peek();
      if (tok.kind != TokenKind::kIntLiteral &&
          !(tok.kind == TokenKind::kSymbol && tok.text == "?")) {
        return Error("expected integer or '?' after LIMIT");
      }
      OXML_ASSIGN_OR_RETURN(stmt->limit, ParsePrimary());
    }
    return StmtPtr(std::move(stmt));
  }

  static bool IsClauseKeyword(const std::string& word) {
    static const char* const kClauses[] = {
        "FROM",  "WHERE", "GROUP", "ORDER", "LIMIT", "AS",   "ON",
        "AND",   "OR",    "NOT",   "ASC",   "DESC",  "SET",  "VALUES",
        "INNER", "JOIN",  "BY",    "LIKE",  "IS",    "NULL", "BETWEEN",
        "UNIQUE"};
    for (const char* kw : kClauses) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  Result<StmtPtr> ParseInsert() {
    OXML_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    OXML_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (MatchSymbol("(")) {
      do {
        OXML_ASSIGN_OR_RETURN(std::string col,
                              ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (MatchSymbol(","));
      OXML_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    OXML_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    do {
      OXML_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        OXML_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (MatchSymbol(","));
      OXML_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
    } while (MatchSymbol(","));
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseUpdate() {
    OXML_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    OXML_RETURN_NOT_OK(ExpectKeyword("SET"));
    do {
      OXML_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
      OXML_RETURN_NOT_OK(ExpectSymbol("="));
      OXML_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
    } while (MatchSymbol(","));
    if (MatchKeyword("WHERE")) {
      OXML_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseDelete() {
    OXML_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    OXML_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (MatchKeyword("WHERE")) {
      OXML_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseCreate() {
    OXML_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    bool unique = MatchKeyword("UNIQUE");
    if (MatchKeyword("TABLE")) {
      if (unique) return Error("UNIQUE applies to indexes");
      auto stmt = std::make_unique<CreateTableStmt>();
      OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      OXML_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        Column col;
        OXML_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
        OXML_ASSIGN_OR_RETURN(std::string type,
                              ExpectIdentifier("column type"));
        std::string upper = ToUpper(type);
        if (upper == "INT" || upper == "INTEGER" || upper == "BIGINT") {
          col.type = TypeId::kInt;
        } else if (upper == "DOUBLE" || upper == "REAL" || upper == "FLOAT") {
          col.type = TypeId::kDouble;
        } else if (upper == "TEXT" || upper == "VARCHAR" ||
                   upper == "STRING") {
          col.type = TypeId::kText;
        } else if (upper == "BLOB" || upper == "BYTES") {
          col.type = TypeId::kBlob;
        } else {
          return Error("unknown type " + type);
        }
        // Tolerate a parenthesized length, e.g. VARCHAR(64).
        if (MatchSymbol("(")) {
          if (Peek().kind != TokenKind::kIntLiteral) {
            return Error("expected length");
          }
          Advance();
          OXML_RETURN_NOT_OK(ExpectSymbol(")"));
        }
        stmt->columns.push_back(std::move(col));
      } while (MatchSymbol(","));
      OXML_RETURN_NOT_OK(ExpectSymbol(")"));
      return StmtPtr(std::move(stmt));
    }
    if (MatchKeyword("INDEX")) {
      auto stmt = std::make_unique<CreateIndexStmt>();
      stmt->unique = unique;
      OXML_ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier("index name"));
      OXML_RETURN_NOT_OK(ExpectKeyword("ON"));
      OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      OXML_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        OXML_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column"));
        stmt->columns.push_back(std::move(col));
      } while (MatchSymbol(","));
      OXML_RETURN_NOT_OK(ExpectSymbol(")"));
      return StmtPtr(std::move(stmt));
    }
    return Error("expected TABLE or INDEX after CREATE");
  }

  Result<StmtPtr> ParseDrop() {
    OXML_RETURN_NOT_OK(ExpectKeyword("DROP"));
    OXML_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    OXML_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    return StmtPtr(std::move(stmt));
  }

  // ------------------------------------------------------------ expressions

  /// Runs `parse` one nesting level deeper. Every recursion of the
  /// expression grammar (parentheses, function arguments, NOT, unary minus)
  /// goes through here, so the stack and the tree depth stay bounded.
  Result<ExprPtr> Deeper(Result<ExprPtr> (Parser::*parse)()) {
    if (depth_ == kMaxSqlNesting) return NestingError();
    ++depth_;
    Result<ExprPtr> e = (this->*parse)();
    --depth_;
    return e;
  }

  Status NestingError() const {
    return Error(StrCat({"expression nested deeper than ",
                         std::to_string(kMaxSqlNesting), " levels"}));
  }

  /// Puts `depth_` back when an arithmetic chain ends. The chain loops in
  /// ParseAdditive and ParseMultiplicative build a left-deep tree, one
  /// level per operator, so each operator counts as one nesting level
  /// (for the rest of the chain, its right operands included).
  class ChainDepth {
   public:
    explicit ChainDepth(size_t* depth) : depth_(depth), saved_(*depth) {}
    ~ChainDepth() { *depth_ = saved_; }
    ChainDepth(const ChainDepth&) = delete;
    ChainDepth& operator=(const ChainDepth&) = delete;

   private:
    size_t* depth_;
    size_t saved_;
  };

  Result<ExprPtr> ParseExpr() { return Deeper(&Parser::ParseOr); }

  // AND and OR chains are built balanced (JoinBalanced): both are
  // associative in three-valued logic, and a left-deep tree as long as the
  // chain would overflow the stack of every pass that recurses over it.
  Result<ExprPtr> ParseOr() {
    std::vector<ExprPtr> operands;
    do {
      OXML_ASSIGN_OR_RETURN(ExprPtr operand, ParseAnd());
      operands.push_back(std::move(operand));
    } while (MatchKeyword("OR"));
    return JoinBalanced(BinaryOp::kOr, std::move(operands));
  }

  Result<ExprPtr> ParseAnd() {
    std::vector<ExprPtr> operands;
    do {
      OXML_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      operands.push_back(std::move(operand));
    } while (MatchKeyword("AND"));
    return JoinBalanced(BinaryOp::kAnd, std::move(operands));
  }

  Result<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      OXML_ASSIGN_OR_RETURN(ExprPtr operand, Deeper(&Parser::ParseNot));
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    OXML_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // IS [NOT] NULL
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      OXML_RETURN_NOT_OK(ExpectKeyword("NULL"));
      return ExprPtr(std::make_unique<UnaryExpr>(
          negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull, std::move(left)));
    }
    // [NOT] BETWEEN a AND b / [NOT] LIKE p / [NOT] IN (...)
    bool negated = false;
    if (PeekKeyword("NOT")) {
      // Lookahead: NOT BETWEEN / NOT LIKE / NOT IN only.
      const Token& next = tokens_[pos_ + 1];
      if (next.kind == TokenKind::kIdentifier &&
          (EqualsIgnoreCase(next.text, "BETWEEN") ||
           EqualsIgnoreCase(next.text, "LIKE") ||
           EqualsIgnoreCase(next.text, "IN"))) {
        Advance();
        negated = true;
      }
    }
    if (MatchKeyword("IN")) {
      // Desugar: left IN (a, b, ...) == (left = a OR left = b OR ...),
      // built balanced like any OR chain.
      OXML_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> equalities;
      do {
        OXML_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
        OXML_ASSIGN_OR_RETURN(ExprPtr left_copy, CopySimple(left.get()));
        equalities.push_back(std::make_unique<BinaryExpr>(
            BinaryOp::kEq, std::move(left_copy), std::move(item)));
      } while (MatchSymbol(","));
      OXML_RETURN_NOT_OK(ExpectSymbol(")"));
      ExprPtr disjunction =
          JoinBalanced(BinaryOp::kOr, std::move(equalities));
      if (negated) {
        return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot,
                                                   std::move(disjunction)));
      }
      return disjunction;
    }
    if (MatchKeyword("BETWEEN")) {
      OXML_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      OXML_RETURN_NOT_OK(ExpectKeyword("AND"));
      OXML_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      // Desugar: left BETWEEN lo AND hi == left >= lo AND left <= hi.
      // The left expression appears twice; re-parse is avoided by requiring
      // it to be a column or literal (always true for generated SQL).
      OXML_ASSIGN_OR_RETURN(ExprPtr left_copy, CopySimple(left.get()));
      ExprPtr ge = std::make_unique<BinaryExpr>(BinaryOp::kGe,
                                                std::move(left), std::move(lo));
      ExprPtr le = std::make_unique<BinaryExpr>(
          BinaryOp::kLe, std::move(left_copy), std::move(hi));
      ExprPtr both = std::make_unique<BinaryExpr>(
          BinaryOp::kAnd, std::move(ge), std::move(le));
      if (negated) {
        return ExprPtr(
            std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(both)));
      }
      return both;
    }
    if (MatchKeyword("LIKE")) {
      OXML_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      ExprPtr like = std::make_unique<BinaryExpr>(
          BinaryOp::kLike, std::move(left), std::move(pattern));
      if (negated) {
        return ExprPtr(
            std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(like)));
      }
      return like;
    }

    struct OpMap {
      const char* sym;
      BinaryOp op;
    };
    static const OpMap kOps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"!=", BinaryOp::kNe},
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
        {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (PeekSymbol(m.sym)) {
        Advance();
        OXML_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return ExprPtr(std::make_unique<BinaryExpr>(m.op, std::move(left),
                                                    std::move(right)));
      }
    }
    return left;
  }

  /// Deep copy for the narrow shapes BETWEEN desugaring needs.
  Result<ExprPtr> CopySimple(const Expr* e) {
    if (e->kind() == Expr::Kind::kColumn) {
      return ExprPtr(std::make_unique<ColumnExpr>(
          static_cast<const ColumnExpr*>(e)->name()));
    }
    if (e->kind() == Expr::Kind::kLiteral) {
      return ExprPtr(std::make_unique<LiteralExpr>(
          static_cast<const LiteralExpr*>(e)->value()));
    }
    return Status::NotImplemented(
        "BETWEEN requires a column or literal on the left");
  }

  Result<ExprPtr> ParseAdditive() {
    OXML_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    ChainDepth chain(&depth_);
    while (true) {
      BinaryOp op;
      if (PeekSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (PeekSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        break;
      }
      if (depth_ == kMaxSqlNesting) return NestingError();
      ++depth_;
      Advance();
      OXML_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    OXML_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    ChainDepth chain(&depth_);
    while (true) {
      BinaryOp op;
      if (PeekSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (PeekSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (PeekSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      if (depth_ == kMaxSqlNesting) return NestingError();
      ++depth_;
      Advance();
      OXML_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchSymbol("-")) {
      OXML_ASSIGN_OR_RETURN(ExprPtr operand, Deeper(&Parser::ParseUnary));
      // Minus over a numeric literal folds into the literal, so `a = -5`
      // is a sargable comparison with a constant like `a = 5`.
      if (operand->kind() == Expr::Kind::kLiteral) {
        const Value& v = static_cast<const LiteralExpr&>(*operand).value();
        if (v.type() == TypeId::kInt) {
          return ExprPtr(std::make_unique<LiteralExpr>(Value::Int(-v.AsInt())));
        }
        if (v.type() == TypeId::kDouble) {
          return ExprPtr(
              std::make_unique<LiteralExpr>(Value::Double(-v.AsDouble())));
        }
      }
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::kNeg, std::move(operand)));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kIntLiteral:
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Int(
            tok.int_value)));
      case TokenKind::kFloatLiteral:
        Advance();
        return ExprPtr(
            std::make_unique<LiteralExpr>(Value::Double(tok.double_value)));
      case TokenKind::kStringLiteral:
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Text(tok.text)));
      case TokenKind::kBlobLiteral:
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Blob(tok.text)));
      case TokenKind::kSymbol:
        if (tok.text == "(") {
          Advance();
          OXML_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          OXML_RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        if (tok.text == "?") {
          if (!params_) {
            return Error(
                "'?' parameter markers require a prepared statement");
          }
          Advance();
          return ExprPtr(
              std::make_unique<ParamExpr>(params_, param_count_++));
        }
        return Error("unexpected symbol '" + tok.text + "'");
      case TokenKind::kIdentifier: {
        if (EqualsIgnoreCase(tok.text, "NULL")) {
          Advance();
          return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
        }
        std::string name = Advance().text;
        // Function call?
        if (MatchSymbol("(")) {
          std::vector<ExprPtr> args;
          if (MatchSymbol(")")) {
            return ExprPtr(
                std::make_unique<FunctionExpr>(name, std::move(args)));
          }
          if (MatchSymbol("*")) {
            args.push_back(std::make_unique<StarExpr>());
            OXML_RETURN_NOT_OK(ExpectSymbol(")"));
            return ExprPtr(
                std::make_unique<FunctionExpr>(name, std::move(args)));
          }
          do {
            OXML_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
            args.push_back(std::move(a));
          } while (MatchSymbol(","));
          OXML_RETURN_NOT_OK(ExpectSymbol(")"));
          return ExprPtr(
              std::make_unique<FunctionExpr>(name, std::move(args)));
        }
        // Qualified column a.b?
        if (MatchSymbol(".")) {
          OXML_ASSIGN_OR_RETURN(std::string col,
                                ExpectIdentifier("column after '.'"));
          return ExprPtr(std::make_unique<ColumnExpr>(name + "." + col));
        }
        return ExprPtr(std::make_unique<ColumnExpr>(std::move(name)));
      }
      case TokenKind::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::shared_ptr<Row> params_;  // null: '?' markers rejected
  size_t param_count_ = 0;
  size_t depth_ = 0;  // expression nesting (see Deeper)
};

}  // namespace

Result<StmtPtr> ParseSql(std::string_view sql) {
  OXML_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ParsedStatement> ParseSqlWithParams(std::string_view sql) {
  OXML_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  Parser parser(std::move(tokens));
  ParsedStatement out;
  out.params = std::make_shared<Row>();
  parser.EnableParams(out.params);
  OXML_ASSIGN_OR_RETURN(out.stmt, parser.ParseStatement());
  out.param_count = parser.param_count();
  // Size the shared buffer once so ParamExpr::Eval never sees an
  // out-of-range slot; unbound slots read as NULL.
  out.params->assign(out.param_count, Value::Null());
  return out;
}

}  // namespace oxml
