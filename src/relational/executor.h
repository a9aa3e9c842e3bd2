#ifndef OXML_RELATIONAL_EXECUTOR_H_
#define OXML_RELATIONAL_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/relational/catalog.h"
#include "src/relational/expression.h"
#include "src/relational/schema.h"

namespace oxml {

class ThreadPool;

/// One component of an operator's output sort order: rows are non-decreasing
/// (non-increasing when `desc`) on this output column, with ties ordered by
/// the next key in the list.
struct OrderKey {
  int column = -1;  // position in the operator's output schema
  bool desc = false;

  bool operator==(const OrderKey& o) const {
    return column == o.column && desc == o.desc;
  }
};

/// True when a stream sorted on `have` is also sorted on `want`, i.e. `want`
/// is a prefix of `have`. (An empty `want` is satisfied by anything; an
/// empty `have` satisfies only an empty `want`.)
bool OrderSatisfies(const std::vector<OrderKey>& have,
                    const std::vector<OrderKey>& want);

/// Volcano-style pull iterator. Lifecycle: Open, then Next until it yields
/// false, then Close. `schema()` is valid after construction.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Produces the next row into `*row`; returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
  virtual void Close() {}

  const Schema& schema() const { return schema_; }

  /// The sort order this operator guarantees for its output (empty = no
  /// guarantee). Set at construction; the planner reads it to elide sorts
  /// and to pick merge-based joins.
  const std::vector<OrderKey>& output_order() const { return order_; }

  /// One-line plan description; `Describe` renders the whole subtree.
  virtual std::string Name() const = 0;
  virtual void Describe(int indent, std::string* out) const;

 protected:
  Schema schema_;
  std::vector<OrderKey> order_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Losslessly coerces `v` to `column_type` so that an encoded probe key
/// compares correctly against stored keys (the memcmp key encoding is only
/// order-preserving within a single type). Returns false when the coercion
/// would be lossy (e.g. DOUBLE 1.5 against an INT column).
bool CoerceForColumn(TypeId column_type, Value* v);

/// Index-scan bounds whose values come from expressions ('?' parameters or
/// literals mixed with them) and therefore cannot be encoded at plan time.
/// The executor resolves them at Open(), after parameters are bound.
struct DynamicIndexBounds {
  struct Term {
    ExprPtr expr;  // kLiteral or kParam; evaluated against an empty row
    TypeId column_type = TypeId::kNull;
  };
  std::vector<Term> eq;        // equality prefix, in index-column order
  std::optional<Term> lower;   // at most one trailing range bound each way
  bool lower_inclusive = true;
  std::optional<Term> upper;
  bool upper_inclusive = true;
};

/// Encoded bounds produced from a DynamicIndexBounds at execution time.
/// `usable == false` means a term evaluated to NULL: the scan falls back to
/// an unbounded range and the (always retained) residual filter decides.
struct ResolvedIndexBounds {
  std::optional<std::string> lower;  // inclusive
  std::optional<std::string> upper;  // exclusive
  bool usable = true;
};

/// Evaluates the bound terms with the current parameter bindings. Fails with
/// InvalidArgument when a bound value cannot be losslessly coerced to its
/// column type (e.g. a TEXT parameter probing an INT index column).
Result<ResolvedIndexBounds> ResolveIndexBounds(const DynamicIndexBounds& b);

/// Full-table scan in page-chain order.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(TableInfo* table, Schema qualified_schema, ExecStats* stats);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  std::string Name() const override;

 private:
  TableInfo* table_;
  ExecStats* stats_;
  std::optional<HeapTable::Iterator> it_;
};

/// Range scan over a B+tree index, fetching heap rows. `lower` is the
/// inclusive lower bound key (empty optional = from the start); `upper` is
/// the exclusive upper bound (empty = to the end). Rows are produced in key
/// order.
///
/// `eq_prefix` is the number of leading index columns pinned to a single
/// value by the scan bounds; the reported output order is the remaining
/// index-column suffix (a scan with `tag` fixed emits rows sorted by `ord`
/// for a `(tag, ord)` index). For dynamic bounds the prefix length comes
/// from the bound terms; a NULL binding degrades the scan to an unbounded
/// range, which is safe because dynamic plans keep every bound conjunct in
/// the residual filter — rows escaping the filter still honor the order.
///
/// Each row is decoded straight from its pinned heap page into the caller's
/// reused Row; the page is unpinned before Next() returns, so a scan holds
/// no pin between calls.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(TableInfo* table, TableIndex* index, Schema qualified_schema,
              std::optional<std::string> lower,
              std::optional<std::string> upper, size_t eq_prefix,
              ExecStats* stats);
  /// Parameter-dependent bounds, re-resolved on every Open() so a cached
  /// plan picks up fresh bindings.
  IndexScanOp(TableInfo* table, TableIndex* index, Schema qualified_schema,
              DynamicIndexBounds dynamic, ExecStats* stats);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  std::string Name() const override;

 private:
  TableInfo* table_;
  TableIndex* index_;
  std::optional<std::string> lower_;
  std::optional<std::string> upper_;
  std::optional<DynamicIndexBounds> dynamic_;
  ExecStats* stats_;
  IndexCursor it_;
};

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

/// Evaluates `exprs` over each child row. The child fills one reused input
/// row; when the expressions are distinct bare columns (the shape of every
/// store query), their values are moved out of it instead of copied.
class ProjectOp : public Operator {
 public:
  /// `exprs` are bound against the child's schema; `out_schema` names the
  /// produced columns (same arity as exprs).
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs, Schema out_schema);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  /// Input column of each output column when every expression is a
  /// distinct bare column; empty otherwise.
  std::vector<int> move_columns_;
  Row in_;
};

/// Block nested-loop join: materializes the right input, then streams the
/// left input against it. The optional predicate is evaluated on the
/// concatenated row. Output preserves the left input's order.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   ExecStats* stats = nullptr);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;  // may be null (cross product)
  ExecStats* stats_;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Hash equi-join: builds a hash table on the right input keyed by
/// `right_keys`, probes with `left_keys`. Output preserves the left input's
/// order (each left row's matches are emitted before the next left row).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> left_keys,
             std::vector<ExprPtr> right_keys, ExecStats* stats = nullptr);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExecStats* stats_;
  std::unordered_multimap<std::string, Row> hash_;
  Row left_row_;
  bool have_left_ = false;
  std::pair<std::unordered_multimap<std::string, Row>::iterator,
            std::unordered_multimap<std::string, Row>::iterator>
      matches_;
};

/// Sort-merge equi-join: materializes the right input (with precomputed
/// keys), then streams the left input against a sliding window of
/// equal-key right rows. Both inputs must already be sorted ascending on
/// their join keys — the planner only picks this operator when the
/// operators' order properties guarantee it. NULL keys never join.
/// Output preserves the left input's order.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right,
              std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
              ExecStats* stats);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  struct KeyedRow {
    Row row;
    std::vector<Value> keys;
    bool has_null = false;
  };

  /// -1/0/+1 comparison of the current left keys against right_rows_[idx].
  int CompareKeys(const std::vector<Value>& lk, size_t idx) const;

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExecStats* stats_;
  std::vector<KeyedRow> right_rows_;
  Row left_row_;
  std::vector<Value> left_key_values_;
  bool have_left_ = false;
  size_t scan_ = 0;       // first right row not known to be < current left key
  size_t group_begin_ = 0;  // current equal-key window in right_rows_
  size_t group_end_ = 0;
  size_t group_pos_ = 0;
};

/// Stack-based structural (interval containment) join, after the Stack-Tree
/// family of algorithms: joins an ancestor input sorted on its interval
/// start with a descendant input sorted on its start, emitting every
/// (ancestor, descendant) pair with
///     d.start >OP a.start  AND  d.start <OP a.end
/// OP strictness is configurable to cover both the Global-encoding pattern
/// (`d.ord > a.ord AND d.ord <= a.eord`) and the Dewey prefix-range pattern
/// (`d.path > a.path AND d.path < SUCC(a.path)`).
///
/// Open() drains both inputs, evaluating each row's start (and an
/// ancestor's end) once, and cuts the ancestor stream wherever a start
/// exceeds the running maximum end: no containment pair spans such a cut,
/// so the groups are independent, and each descendant belongs to the only
/// group that can contain it. Per group, descendants are consumed in start
/// order; ancestors whose start precedes the descendant's are pushed onto a
/// stack, ancestors whose interval ended before it are popped, and the
/// surviving entries are emitted bottom-to-top (ancestor-start order).
/// Each emission re-checks containment, so arbitrary overlapping intervals
/// stay correct (merely slower); on properly nested XML region intervals
/// the check never fails. NULL starts/ends never match.
///
/// With a thread pool the groups run as morsels through ParallelFor; with
/// none, the whole input is one group joined inline on the calling thread.
/// Each group records its matches as (ancestor, descendant) index pairs;
/// Next() concatenates the two input rows of one match at a time, so the
/// output is sorted on the descendant start column, the pairs of one
/// descendant contiguous. The drained inputs and the match lists are
/// charged to the statement's memory budget.
class StructuralJoinOp : public Operator {
 public:
  /// `anc_start` and `desc_start` are columns bound to the ancestor /
  /// descendant input schemas; `anc_end` is an expression over the ancestor
  /// schema (a column, or SUCC(path) for Dewey). `lower_strict` selects
  /// `>` vs `>=` for the start comparison, `upper_inclusive` selects `<=`
  /// vs `<` for the end comparison. `pool` may be null.
  StructuralJoinOp(OperatorPtr ancestors, OperatorPtr descendants,
                   ExprPtr anc_start, ExprPtr anc_end, ExprPtr desc_start,
                   bool lower_strict, bool upper_inclusive, ThreadPool* pool,
                   ExecStats* stats);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  struct Entry {
    Row row;
    Value start;
    Value end;  // only meaningful for ancestors
  };
  /// One independent group: ancestors [anc_begin, anc_end) and the
  /// descendants [desc_begin, desc_end) that only they can contain.
  struct Group {
    size_t anc_begin = 0, anc_end = 0;
    size_t desc_begin = 0, desc_end = 0;
  };
  /// One output row, as indexes into ancs_ and descs_.
  struct Match {
    size_t anc;
    size_t desc;
  };

  /// True when `start` falls inside `e`'s interval per the strictness.
  bool Contains(const Entry& e, const Value& start) const;
  /// Cuts the ancestors into at most `max_groups` independent groups and
  /// assigns each descendant to its group.
  std::vector<Group> Partition(size_t max_groups) const;
  /// The stack join over one group. Polls the statement's QueryControl per
  /// descendant and charges the emitted matches to its budget.
  Status JoinGroup(const Group& g, std::vector<Match>* out) const;

  OperatorPtr anc_;
  OperatorPtr desc_;
  ExprPtr anc_start_;
  ExprPtr anc_end_;
  ExprPtr desc_start_;
  bool lower_strict_;
  bool upper_inclusive_;
  ThreadPool* pool_;  // null = one group, joined inline
  ExecStats* stats_;
  std::vector<Entry> ancs_;
  std::vector<Entry> descs_;
  std::vector<std::vector<Match>> out_;  // one output run per group
  size_t part_ = 0;
  size_t pos_ = 0;
};

/// Index nested-loop join: for each outer row, evaluates `outer_keys`
/// (bound to the outer schema), probes the inner table's index for equal
/// keys and emits outer ++ inner rows.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(OperatorPtr outer, TableInfo* inner,
                        TableIndex* index, Schema inner_schema,
                        std::vector<ExprPtr> outer_keys, ExecStats* stats);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override { outer_->Close(); }
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr outer_;
  TableInfo* inner_;
  TableIndex* index_;
  Schema inner_schema_;
  std::vector<ExprPtr> outer_keys_;
  ExecStats* stats_;
  Row outer_row_;
  Row inner_row_;
  bool have_outer_ = false;
  IndexCursor it_;
  std::string probe_key_;
};

/// Full sort (materializing). Order expressions are bound to the child
/// schema; `desc[i]` flips the i-th direction. The sort is stable: rows
/// with equal keys keep their input order, which is what makes XPath
/// sibling order deterministic across encodings.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<ExprPtr> order_exprs,
         std::vector<bool> desc, ExecStats* stats = nullptr);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> order_exprs_;
  std::vector<bool> desc_;
  ExecStats* stats_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Passes on the first k rows of its child. k is an expression (an integer
/// literal or a '?' marker) evaluated once per Open(), so one cached plan
/// serves every binding; a NULL, negative or non-integer k is
/// InvalidArgument.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, ExprPtr limit);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override { child_->Close(); }
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr child_;
  ExprPtr limit_expr_;
  int64_t limit_ = 0;
  int64_t produced_ = 0;
};

/// Hash-based duplicate elimination over full rows.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  OperatorPtr child_;
  std::unordered_multimap<size_t, Row> seen_;
};

/// One aggregate computation: kind + argument (null argument = COUNT(*)).
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCount;
  ExprPtr arg;  // bound to child schema; null for COUNT(*)
};

/// Hash aggregation. Output schema: group-by columns first (in order),
/// then one column per aggregate.
class AggregateOp : public Operator {
 public:
  AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
              std::vector<AggregateSpec> aggregates, Schema out_schema);
  Status Open() override;
  Result<bool> Next(Row* row) override;
  void Close() override;
  std::string Name() const override;
  void Describe(int indent, std::string* out) const override;

 private:
  struct GroupState {
    Row group_values;
    std::vector<Value> accumulators;
    std::vector<int64_t> counts;  // per-aggregate row counts (AVG/COUNT)
  };

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<GroupState> groups_;
  std::unordered_map<size_t, std::vector<size_t>> group_index_;
  size_t pos_ = 0;
};

/// Materialized result of a query.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  /// Pretty-prints an ASCII table (for examples and debugging).
  std::string ToString() const;
};

/// Drains an operator tree into a ResultSet. `size_hint` pre-reserves the
/// row vector (prepared statements pass the previous execution's row count).
Result<ResultSet> ExecuteToResultSet(Operator* root, size_t size_hint = 0);

}  // namespace oxml

#endif  // OXML_RELATIONAL_EXECUTOR_H_
