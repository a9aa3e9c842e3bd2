#ifndef OXML_RELATIONAL_EXPRESSION_H_
#define OXML_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/strings.h"
#include "src/relational/schema.h"
#include "src/relational/value.h"

namespace oxml {

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLike,
};

enum class UnaryOp {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
};

const char* BinaryOpToString(BinaryOp op);

/// Scalar expression tree shared by the SQL front end and the executor.
/// Expressions are bound against a Schema (resolving column names to
/// indices) before evaluation.
class Expr {
 public:
  enum class Kind : uint8_t {
    kLiteral,
    kColumn,
    kBinary,
    kUnary,
    kFunction,
    kStar,   // the '*' inside COUNT(*)
    kParam,  // '?' placeholder bound at execution time
  };

  explicit Expr(Kind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Resolves column references against `schema`. Idempotent.
  virtual Status Bind(const Schema& schema) = 0;

  /// Evaluates against a bound row.
  virtual Result<Value> Eval(const Row& row) const = 0;

  /// SQL-ish rendering for diagnostics and plan explain output.
  virtual std::string ToString() const = 0;

  /// True if this subtree contains an aggregate function call.
  virtual bool ContainsAggregate() const { return false; }

  /// Collects the schema column indices this subtree reads (post-Bind).
  virtual void CollectColumns(std::vector<int>* out) const = 0;

 private:
  Kind kind_;
};

using ExprPtr = std::unique_ptr<Expr>;

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(Kind::kLiteral), value_(std::move(value)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Result<Value> Eval(const Row&) const override { return value_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<int>*) const override {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A '?' parameter marker. All markers in one statement share a single
/// binding buffer (owned by the PreparedStatement); Eval reads the slot at
/// `index_`, so rebinding the buffer re-parameterizes a cached plan without
/// touching the expression tree.
class ParamExpr : public Expr {
 public:
  ParamExpr(std::shared_ptr<Row> params, size_t index)
      : Expr(Kind::kParam), params_(std::move(params)), index_(index) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Result<Value> Eval(const Row&) const override {
    if (index_ >= params_->size()) {
      return Status::Internal("parameter index out of range");
    }
    return (*params_)[index_];
  }
  std::string ToString() const override {
    return StrCat({"?", std::to_string(index_ + 1)});
  }
  void CollectColumns(std::vector<int>*) const override {}

  size_t index() const { return index_; }
  /// Current binding (valid between Bind and the end of execution).
  const Value& value() const { return (*params_)[index_]; }
  /// The shared binding buffer (used by the planner to clone markers into
  /// dynamic index bounds).
  const std::shared_ptr<Row>& buffer() const { return params_; }

 private:
  std::shared_ptr<Row> params_;
  size_t index_;
};

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(std::string name)
      : Expr(Kind::kColumn), name_(std::move(name)) {}

  /// Pre-resolved reference (used by the planner for synthesized schemas
  /// whose column names need not be re-looked-up).
  ColumnExpr(std::string name, int index)
      : Expr(Kind::kColumn), name_(std::move(name)), index_(index) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<int>* out) const override {
    if (index_ >= 0) out->push_back(index_);
  }

  const std::string& name() const { return name_; }
  int index() const { return index_; }

 private:
  std::string name_;
  int index_ = -1;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(Kind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override;
  bool ContainsAggregate() const override {
    return left_->ContainsAggregate() || right_->ContainsAggregate();
  }
  void CollectColumns(std::vector<int>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

  BinaryOp op() const { return op_; }
  Expr* left() const { return left_.get(); }
  Expr* right() const { return right_.get(); }
  ExprPtr TakeLeft() { return std::move(left_); }
  ExprPtr TakeRight() { return std::move(right_); }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(Kind::kUnary), op_(op), operand_(std::move(operand)) {}

  Status Bind(const Schema& schema) override {
    return operand_->Bind(schema);
  }
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override;
  bool ContainsAggregate() const override {
    return operand_->ContainsAggregate();
  }
  void CollectColumns(std::vector<int>* out) const override {
    operand_->CollectColumns(out);
  }

  UnaryOp op() const { return op_; }
  Expr* operand() const { return operand_.get(); }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Aggregate function names understood by the planner.
enum class AggregateKind { kNone, kCount, kSum, kMin, kMax, kAvg };

AggregateKind AggregateKindFromName(const std::string& upper_name);

class FunctionExpr : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args);

  Status Bind(const Schema& schema) override;
  /// Scalar evaluation; aggregate calls are evaluated by AggregateOp and
  /// never reach Eval directly.
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override;
  bool ContainsAggregate() const override {
    return aggregate_ != AggregateKind::kNone;
  }
  void CollectColumns(std::vector<int>* out) const override {
    for (const auto& a : args_) a->CollectColumns(out);
  }

  const std::string& name() const { return name_; }
  AggregateKind aggregate() const { return aggregate_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  /// The planner moves aggregate arguments out of the call node.
  std::vector<ExprPtr>& mutable_args() { return args_; }

 private:
  std::string name_;  // upper-cased
  std::vector<ExprPtr> args_;
  AggregateKind aggregate_;
};

class StarExpr : public Expr {
 public:
  StarExpr() : Expr(Kind::kStar) {}
  Status Bind(const Schema&) override { return Status::OK(); }
  Result<Value> Eval(const Row&) const override {
    return Status::Internal("'*' cannot be evaluated");
  }
  std::string ToString() const override { return "*"; }
  void CollectColumns(std::vector<int>*) const override {}
};

/// Joins `operands` with the associative `op` (AND, OR) as a balanced
/// tree, so the tree is O(log n) deep however long the chain: planning,
/// evaluation and destruction all recurse over it. Operands keep their
/// left-to-right order, so evaluation and short-circuiting visit them as a
/// left-deep chain would; up to three operands the tree *is* left-deep.
/// Returns null for an empty list.
ExprPtr JoinBalanced(BinaryOp op, std::vector<ExprPtr> operands);

/// SQL LIKE with % (any run) and _ (any char) wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace oxml

#endif  // OXML_RELATIONAL_EXPRESSION_H_
