#include "src/relational/expression.h"

#include <cmath>

#include "src/common/strings.h"

namespace oxml {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == TypeId::kText) return SqlQuote(value_.AsString());
  return value_.ToString();
}

Status ColumnExpr::Bind(const Schema& schema) {
  int idx = schema.IndexOf(name_);
  if (idx == -2) {
    return Status::InvalidArgument("ambiguous column: " + name_);
  }
  if (idx < 0) {
    return Status::NotFound("unknown column: " + name_ + " in " +
                            schema.ToString());
  }
  index_ = idx;
  return Status::OK();
}

Result<Value> ColumnExpr::Eval(const Row& row) const {
  if (index_ < 0) return Status::Internal("unbound column: " + name_);
  if (static_cast<size_t>(index_) >= row.size()) {
    return Status::Internal("column index out of range: " + name_);
  }
  return row[index_];
}

Status BinaryExpr::Bind(const Schema& schema) {
  OXML_RETURN_NOT_OK(left_->Bind(schema));
  return right_->Bind(schema);
}

namespace {

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = l.Compare(r);
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(c == 0);
    case BinaryOp::kNe:
      return Value::Bool(c != 0);
    case BinaryOp::kLt:
      return Value::Bool(c < 0);
    case BinaryOp::kLe:
      return Value::Bool(c <= 0);
    case BinaryOp::kGt:
      return Value::Bool(c > 0);
    case BinaryOp::kGe:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("not a comparison");
  }
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool both_int = l.type() == TypeId::kInt && r.type() == TypeId::kInt;
  if (l.type() == TypeId::kText || r.type() == TypeId::kText ||
      l.type() == TypeId::kBlob || r.type() == TypeId::kBlob) {
    if (op == BinaryOp::kAdd && l.type() == TypeId::kText &&
        r.type() == TypeId::kText) {
      return Value::Text(l.AsString() + r.AsString());  // string concat
    }
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  if (both_int) {
    int64_t a = l.AsInt();
    int64_t b = r.AsInt();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int(a + b);
      case BinaryOp::kSub:
        return Value::Int(a - b);
      case BinaryOp::kMul:
        return Value::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value::Int(a % b);
      default:
        return Status::Internal("not arithmetic");
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(a + b);
    case BinaryOp::kSub:
      return Value::Double(a - b);
    case BinaryOp::kMul:
      return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    case BinaryOp::kMod:
      return Value::Double(std::fmod(a, b));
    default:
      return Status::Internal("not arithmetic");
  }
}

ExprPtr JoinRange(BinaryOp op, std::vector<ExprPtr>* operands, size_t lo,
                  size_t hi) {
  if (hi - lo == 1) return std::move((*operands)[lo]);
  size_t mid = lo + (hi - lo + 1) / 2;
  ExprPtr left = JoinRange(op, operands, lo, mid);
  return std::make_unique<BinaryExpr>(op, std::move(left),
                                      JoinRange(op, operands, mid, hi));
}

}  // namespace

ExprPtr JoinBalanced(BinaryOp op, std::vector<ExprPtr> operands) {
  if (operands.empty()) return nullptr;
  return JoinRange(op, &operands, 0, operands.size());
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> BinaryExpr::Eval(const Row& row) const {
  // Three-valued AND/OR with short circuit.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    OXML_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
    bool l_null = l.is_null();
    bool l_true = l.IsTruthy();
    if (op_ == BinaryOp::kAnd && !l_null && !l_true) return Value::Bool(false);
    if (op_ == BinaryOp::kOr && !l_null && l_true) return Value::Bool(true);
    OXML_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
    bool r_null = r.is_null();
    bool r_true = r.IsTruthy();
    if (op_ == BinaryOp::kAnd) {
      if (!r_null && !r_true) return Value::Bool(false);
      if (l_null || r_null) return Value::Null();
      return Value::Bool(true);
    }
    if (!r_null && r_true) return Value::Bool(true);
    if (l_null || r_null) return Value::Null();
    return Value::Bool(false);
  }

  OXML_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  OXML_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  switch (op_) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(op_, l, r);
    case BinaryOp::kLike: {
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(LikeMatch(l.AsString(), r.AsString()));
    }
    default:
      return EvalArithmetic(op_, l, r);
  }
}

std::string BinaryExpr::ToString() const {
  return StrCat({"(", left_->ToString(), " ", BinaryOpToString(op_), " ",
                 right_->ToString(), ")"});
}

Result<Value> UnaryExpr::Eval(const Row& row) const {
  OXML_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  switch (op_) {
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.IsTruthy());
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kInt) return Value::Int(-v.AsInt());
      if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("negation of non-numeric value");
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("bad unary op");
}

std::string UnaryExpr::ToString() const {
  switch (op_) {
    case UnaryOp::kNot:
      return StrCat({"(NOT ", operand_->ToString(), ")"});
    case UnaryOp::kNeg:
      return StrCat({"(-", operand_->ToString(), ")"});
    case UnaryOp::kIsNull:
      return StrCat({"(", operand_->ToString(), " IS NULL)"});
    case UnaryOp::kIsNotNull:
      return StrCat({"(", operand_->ToString(), " IS NOT NULL)"});
  }
  return "?";
}

AggregateKind AggregateKindFromName(const std::string& upper_name) {
  if (upper_name == "COUNT") return AggregateKind::kCount;
  if (upper_name == "SUM") return AggregateKind::kSum;
  if (upper_name == "MIN") return AggregateKind::kMin;
  if (upper_name == "MAX") return AggregateKind::kMax;
  if (upper_name == "AVG") return AggregateKind::kAvg;
  return AggregateKind::kNone;
}

FunctionExpr::FunctionExpr(std::string name, std::vector<ExprPtr> args)
    : Expr(Kind::kFunction),
      name_(ToUpper(name)),
      args_(std::move(args)),
      aggregate_(AggregateKindFromName(name_)) {}

Status FunctionExpr::Bind(const Schema& schema) {
  for (auto& a : args_) {
    OXML_RETURN_NOT_OK(a->Bind(schema));
  }
  return Status::OK();
}

Result<Value> FunctionExpr::Eval(const Row& row) const {
  if (aggregate_ != AggregateKind::kNone) {
    return Status::Internal("aggregate " + name_ +
                            " evaluated outside AggregateOp");
  }
  if (name_ == "LENGTH") {
    if (args_.size() != 1) {
      return Status::InvalidArgument("LENGTH takes 1 argument");
    }
    OXML_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(row));
    if (v.is_null()) return Value::Null();
    return Value::Int(static_cast<int64_t>(v.AsString().size()));
  }
  if (name_ == "SUBSTR") {
    if (args_.size() != 3) {
      return Status::InvalidArgument("SUBSTR takes 3 arguments");
    }
    OXML_ASSIGN_OR_RETURN(Value s, args_[0]->Eval(row));
    OXML_ASSIGN_OR_RETURN(Value pos, args_[1]->Eval(row));
    OXML_ASSIGN_OR_RETURN(Value len, args_[2]->Eval(row));
    if (s.is_null() || pos.is_null() || len.is_null()) return Value::Null();
    const std::string& str = s.AsString();
    int64_t p = pos.AsInt() - 1;  // SQL SUBSTR is 1-based
    int64_t l = len.AsInt();
    if (p < 0) p = 0;
    if (p >= static_cast<int64_t>(str.size()) || l <= 0) {
      return Value::Text("");
    }
    return Value::Text(str.substr(static_cast<size_t>(p),
                                  static_cast<size_t>(l)));
  }
  if (name_ == "SUCC") {
    // Successor for prefix ranges: SUCC(x) = x || 0xFF is greater than any
    // value having x as a proper prefix whose next byte is < 0xFF (true for
    // Dewey keys, whose component encodings never start with 0xFF).
    if (args_.size() != 1) {
      return Status::InvalidArgument("SUCC takes 1 argument");
    }
    OXML_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(row));
    if (v.is_null()) return Value::Null();
    if (v.type() != TypeId::kBlob && v.type() != TypeId::kText) {
      return Status::InvalidArgument("SUCC requires a BLOB or TEXT value");
    }
    std::string out = v.AsString();
    out.push_back('\xFF');
    return v.type() == TypeId::kBlob ? Value::Blob(std::move(out))
                                     : Value::Text(std::move(out));
  }
  if (name_ == "PATH_PARENT") {
    // Strips the last length-tagged component of a Dewey-encoded path
    // (see core/dewey.h): each component is one length byte 0x01..0x08
    // followed by that many payload bytes. Returns an empty blob for
    // depth-1 paths (the document node has no stored row).
    if (args_.size() != 1) {
      return Status::InvalidArgument("PATH_PARENT takes 1 argument");
    }
    OXML_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(row));
    if (v.is_null()) return Value::Null();
    if (v.type() != TypeId::kBlob) {
      return Status::InvalidArgument("PATH_PARENT requires a BLOB value");
    }
    const std::string& path = v.AsString();
    size_t i = 0;
    size_t last_start = 0;
    while (i < path.size()) {
      size_t len = static_cast<unsigned char>(path[i]);
      if (len < 1 || len > 8 || i + 1 + len > path.size()) {
        return Status::InvalidArgument("malformed Dewey path");
      }
      last_start = i;
      i += 1 + len;
    }
    return Value::Blob(path.substr(0, last_start));
  }
  if (name_ == "ABS") {
    if (args_.size() != 1) {
      return Status::InvalidArgument("ABS takes 1 argument");
    }
    OXML_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(row));
    if (v.is_null()) return Value::Null();
    if (v.type() == TypeId::kInt) return Value::Int(std::abs(v.AsInt()));
    return Value::Double(std::fabs(v.AsDouble()));
  }
  return Status::NotImplemented("unknown function: " + name_);
}

std::string FunctionExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

}  // namespace oxml
