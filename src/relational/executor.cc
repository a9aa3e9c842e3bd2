#include "src/relational/executor.h"

#include <algorithm>
#include <utility>

#include "src/relational/key_codec.h"
#include "src/relational/query_control.h"
#include "src/relational/thread_pool.h"

namespace oxml {

bool OrderSatisfies(const std::vector<OrderKey>& have,
                    const std::vector<OrderKey>& want) {
  if (want.size() > have.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(have[i] == want[i])) return false;
  }
  return true;
}

void Operator::Describe(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(Name());
  if (!order_.empty()) {
    out->append(" [order:");
    for (size_t i = 0; i < order_.size(); ++i) {
      out->append(i == 0 ? " " : ", ");
      int c = order_[i].column;
      if (c >= 0 && static_cast<size_t>(c) < schema_.size()) {
        out->append(schema_.column(c).name);
      } else {
        out->push_back('#');
        out->append(std::to_string(c));
      }
      if (order_[i].desc) out->append(" DESC");
    }
    out->push_back(']');
  }
  out->push_back('\n');
}

bool CoerceForColumn(TypeId column_type, Value* v) {
  if (v->type() == column_type) return true;
  if (column_type == TypeId::kDouble && v->type() == TypeId::kInt) {
    *v = Value::Double(v->AsDouble());
    return true;
  }
  if (column_type == TypeId::kText && v->type() == TypeId::kBlob) {
    *v = Value::Text(v->AsString());
    return true;
  }
  if (column_type == TypeId::kBlob && v->type() == TypeId::kText) {
    *v = Value::Blob(v->AsString());
    return true;
  }
  return false;
}

Result<ResolvedIndexBounds> ResolveIndexBounds(const DynamicIndexBounds& b) {
  static const Row kEmptyRow;
  ResolvedIndexBounds out;
  auto eval = [&](const DynamicIndexBounds::Term& term) -> Result<Value> {
    OXML_ASSIGN_OR_RETURN(Value v, term.expr->Eval(kEmptyRow));
    if (v.is_null()) return v;
    if (!CoerceForColumn(term.column_type, &v)) {
      return Status::InvalidArgument(
          "bound parameter of type " + std::string(TypeIdToString(v.type())) +
          " cannot probe a " + TypeIdToString(term.column_type) +
          " index column");
    }
    return v;
  };

  std::vector<Value> eq_values;
  eq_values.reserve(b.eq.size());
  for (const auto& term : b.eq) {
    OXML_ASSIGN_OR_RETURN(Value v, eval(term));
    if (v.is_null()) {
      out.usable = false;
      return out;
    }
    eq_values.push_back(std::move(v));
  }
  std::string prefix = EncodeKey(eq_values);

  if (b.lower.has_value()) {
    OXML_ASSIGN_OR_RETURN(Value v, eval(*b.lower));
    if (v.is_null()) {
      out.usable = false;
      return out;
    }
    std::string k = prefix;
    EncodeKeyValue(v, &k);
    out.lower = b.lower_inclusive ? k : KeySuccessor(k);
  } else if (!eq_values.empty()) {
    out.lower = prefix;
  }
  if (b.upper.has_value()) {
    OXML_ASSIGN_OR_RETURN(Value v, eval(*b.upper));
    if (v.is_null()) {
      out.usable = false;
      return out;
    }
    std::string k = prefix;
    EncodeKeyValue(v, &k);
    out.upper = b.upper_inclusive ? KeySuccessor(k) : k;
  } else if (!eq_values.empty()) {
    out.upper = KeySuccessor(prefix);
  }
  return out;
}

// ------------------------------------------------------------------ SeqScan

SeqScanOp::SeqScanOp(TableInfo* table, Schema qualified_schema,
                     ExecStats* stats)
    : table_(table), stats_(stats) {
  schema_ = std::move(qualified_schema);
}

Status SeqScanOp::Open() {
  it_.emplace(table_->heap()->Scan());
  return Status::OK();
}

Result<bool> SeqScanOp::Next(Row* row) {
  // Every pipeline bottoms out in a scan, so the leaf check point gives
  // all Next() chains deadline/cancel coverage (amortized, see Check()).
  OXML_RETURN_NOT_OK(CheckCurrentControl());
  Rid rid;
  OXML_ASSIGN_OR_RETURN(bool has, it_->Next(&rid, row));
  if (has && stats_ != nullptr) ++stats_->rows_scanned;
  return has;
}

std::string SeqScanOp::Name() const {
  return "SeqScan(" + table_->name() + ")";
}

// ---------------------------------------------------------------- IndexScan

namespace {

/// The order an index scan emits: the index-column suffix past the pinned
/// equality prefix. Index column positions refer to the table schema, which
/// coincides positionally with the qualified scan schema.
std::vector<OrderKey> IndexScanOrder(const TableIndex& index,
                                     size_t eq_prefix) {
  std::vector<OrderKey> order;
  for (size_t k = eq_prefix; k < index.column_indices.size(); ++k) {
    order.push_back({index.column_indices[k], false});
  }
  return order;
}

}  // namespace

IndexScanOp::IndexScanOp(TableInfo* table, TableIndex* index,
                         Schema qualified_schema,
                         std::optional<std::string> lower,
                         std::optional<std::string> upper, size_t eq_prefix,
                         ExecStats* stats)
    : table_(table),
      index_(index),
      lower_(std::move(lower)),
      upper_(std::move(upper)),
      stats_(stats) {
  schema_ = std::move(qualified_schema);
  order_ = IndexScanOrder(*index, eq_prefix);
}

IndexScanOp::IndexScanOp(TableInfo* table, TableIndex* index,
                         Schema qualified_schema, DynamicIndexBounds dynamic,
                         ExecStats* stats)
    : table_(table),
      index_(index),
      dynamic_(std::move(dynamic)),
      stats_(stats) {
  schema_ = std::move(qualified_schema);
  // Dynamic plans keep bound conjuncts in the residual filter, so the order
  // claim past the eq prefix survives even a NULL binding (the filter then
  // drops every row, or restores the single-prefix-value invariant).
  order_ = IndexScanOrder(*index, dynamic_->eq.size());
}

Status IndexScanOp::Open() {
  if (dynamic_.has_value()) {
    OXML_ASSIGN_OR_RETURN(ResolvedIndexBounds bounds,
                          ResolveIndexBounds(*dynamic_));
    if (bounds.usable) {
      lower_ = std::move(bounds.lower);
      upper_ = std::move(bounds.upper);
    } else {
      // A NULL binding: scan unbounded, the residual filter decides.
      lower_.reset();
      upper_.reset();
    }
  }
  if (stats_ != nullptr) ++stats_->index_probes;
  it_ = lower_.has_value() ? index_->ScanFrom(*lower_) : index_->ScanBegin();
  return Status::OK();
}

Result<bool> IndexScanOp::Next(Row* row) {
  OXML_RETURN_NOT_OK(CheckCurrentControl());
  if (!it_.valid()) return false;
  if (upper_.has_value() && it_.key() >= *upper_) return false;
  OXML_RETURN_NOT_OK(table_->heap()->Get(it_.rid(), row));
  it_.Next();
  if (stats_ != nullptr) ++stats_->rows_scanned;
  return true;
}

std::string IndexScanOp::Name() const {
  std::string range = dynamic_.has_value() ? " dynamic"
                      : lower_.has_value() || upper_.has_value() ? " range"
                                                                 : " full";
  return "IndexScan(" + table_->name() + "." + index_->name + range + ")";
}

// ------------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  schema_ = child_->schema();
  order_ = child_->output_order();
}

Status FilterOp::Open() { return child_->Open(); }

Result<bool> FilterOp::Next(Row* row) {
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    OXML_ASSIGN_OR_RETURN(Value v, predicate_->Eval(*row));
    if (!v.is_null() && v.IsTruthy()) return true;
  }
}

std::string FilterOp::Name() const {
  return "Filter(" + predicate_->ToString() + ")";
}

void FilterOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// ------------------------------------------------------------------ Project

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     Schema out_schema)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  schema_ = std::move(out_schema);
  // The child's order survives projection for the prefix of order columns
  // that are still present in the output.
  for (const OrderKey& k : child_->output_order()) {
    int mapped = -1;
    for (size_t j = 0; j < exprs_.size(); ++j) {
      if (exprs_[j]->kind() == Expr::Kind::kColumn &&
          static_cast<const ColumnExpr*>(exprs_[j].get())->index() ==
              k.column) {
        mapped = static_cast<int>(j);
        break;
      }
    }
    if (mapped < 0) break;
    order_.push_back({mapped, k.desc});
  }
  for (const ExprPtr& e : exprs_) {
    if (e->kind() != Expr::Kind::kColumn) {
      move_columns_.clear();
      break;
    }
    int c = static_cast<const ColumnExpr*>(e.get())->index();
    if (std::find(move_columns_.begin(), move_columns_.end(), c) !=
        move_columns_.end()) {
      move_columns_.clear();
      break;
    }
    move_columns_.push_back(c);
  }
}

Status ProjectOp::Open() { return child_->Open(); }

Result<bool> ProjectOp::Next(Row* row) {
  OXML_ASSIGN_OR_RETURN(bool has, child_->Next(&in_));
  if (!has) return false;
  row->resize(exprs_.size());
  if (!move_columns_.empty()) {
    // Distinct columns: each input value has exactly one destination, and
    // the child overwrites in_ on its next call.
    for (size_t j = 0; j < move_columns_.size(); ++j) {
      (*row)[j] = std::move(in_[move_columns_[j]]);
    }
    return true;
  }
  for (size_t j = 0; j < exprs_.size(); ++j) {
    OXML_ASSIGN_OR_RETURN((*row)[j], exprs_[j]->Eval(in_));
  }
  return true;
}

std::string ProjectOp::Name() const {
  std::string cols;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) cols += ", ";
    cols += exprs_[i]->ToString();
  }
  return "Project(" + cols + ")";
}

void ProjectOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// --------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate, ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      stats_(stats) {
  schema_ = left_->schema();
  schema_.Append(right_->schema());
  order_ = left_->output_order();  // left-major iteration
}

Status NestedLoopJoinOp::Open() {
  if (stats_ != nullptr) ++stats_->joins_nested_loop;
  OXML_RETURN_NOT_OK(left_->Open());
  OXML_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  BudgetCharger budget;
  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    OXML_RETURN_NOT_OK(budget.AddRow(row));
    right_rows_.push_back(std::move(row));
  }
  right_->Close();
  have_left_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(Row* row) {
  while (true) {
    if (!have_left_) {
      OXML_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& r = right_rows_[right_pos_++];
      *row = left_row_;
      row->insert(row->end(), r.begin(), r.end());
      if (predicate_ == nullptr) return true;
      OXML_ASSIGN_OR_RETURN(Value v, predicate_->Eval(*row));
      if (!v.is_null() && v.IsTruthy()) return true;
    }
    have_left_ = false;
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
}

std::string NestedLoopJoinOp::Name() const {
  return "NestedLoopJoin(" +
         (predicate_ != nullptr ? predicate_->ToString() : "cross") + ")";
}

void NestedLoopJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  left_->Describe(indent + 1, out);
  right_->Describe(indent + 1, out);
}

// --------------------------------------------------------------- HashJoin

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      stats_(stats) {
  schema_ = left_->schema();
  schema_.Append(right_->schema());
  order_ = left_->output_order();  // probes stream in left order
}

namespace {

/// Encodes join-key expressions; yields an empty optional when any key
/// value is NULL (SQL: NULL never equi-joins, not even with NULL).
Result<std::optional<std::string>> EvalKey(const std::vector<ExprPtr>& exprs,
                                           const Row& row) {
  std::vector<Value> vals;
  vals.reserve(exprs.size());
  for (const auto& e : exprs) {
    OXML_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    if (v.is_null()) return std::optional<std::string>();
    vals.push_back(std::move(v));
  }
  return std::optional<std::string>(EncodeKey(vals));
}

}  // namespace

Status HashJoinOp::Open() {
  if (stats_ != nullptr) ++stats_->joins_hash;
  OXML_RETURN_NOT_OK(left_->Open());
  OXML_RETURN_NOT_OK(right_->Open());
  hash_.clear();
  BudgetCharger budget;
  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    OXML_ASSIGN_OR_RETURN(std::optional<std::string> key,
                          EvalKey(right_keys_, row));
    if (key.has_value()) {
      OXML_RETURN_NOT_OK(budget.Add(EstimateRowBytes(row) + key->size()));
      hash_.emplace(std::move(*key), std::move(row));
    }
  }
  right_->Close();
  have_left_ = false;
  return Status::OK();
}

Result<bool> HashJoinOp::Next(Row* row) {
  while (true) {
    if (!have_left_) {
      OXML_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      OXML_ASSIGN_OR_RETURN(std::optional<std::string> key,
                            EvalKey(left_keys_, left_row_));
      if (!key.has_value()) continue;  // NULL key never joins
      matches_ = hash_.equal_range(*key);
      have_left_ = true;
    }
    if (matches_.first != matches_.second) {
      *row = left_row_;
      const Row& r = matches_.first->second;
      row->insert(row->end(), r.begin(), r.end());
      ++matches_.first;
      return true;
    }
    have_left_ = false;
  }
}

void HashJoinOp::Close() {
  left_->Close();
  hash_.clear();
}

std::string HashJoinOp::Name() const {
  std::string keys;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += left_keys_[i]->ToString() + "=" + right_keys_[i]->ToString();
  }
  return "HashJoin(" + keys + ")";
}

void HashJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  left_->Describe(indent + 1, out);
  right_->Describe(indent + 1, out);
}

// ----------------------------------------------------- IndexNestedLoopJoin

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(OperatorPtr outer,
                                             TableInfo* inner,
                                             TableIndex* index,
                                             Schema inner_schema,
                                             std::vector<ExprPtr> outer_keys,
                                             ExecStats* stats)
    : outer_(std::move(outer)),
      inner_(inner),
      index_(index),
      inner_schema_(std::move(inner_schema)),
      outer_keys_(std::move(outer_keys)),
      stats_(stats) {
  schema_ = outer_->schema();
  schema_.Append(inner_schema_);
  // Only the outer order survives: equal-outer-key runs restart the inner
  // index sequence, so inner columns cannot extend the order claim.
  order_ = outer_->output_order();
}

Status IndexNestedLoopJoinOp::Open() {
  if (stats_ != nullptr) ++stats_->joins_index_nested_loop;
  have_outer_ = false;
  return outer_->Open();
}

Result<bool> IndexNestedLoopJoinOp::Next(Row* row) {
  while (true) {
    if (!have_outer_) {
      OXML_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_row_));
      if (!has) return false;
      OXML_ASSIGN_OR_RETURN(std::optional<std::string> key,
                            EvalKey(outer_keys_, outer_row_));
      if (!key.has_value()) continue;  // NULL key never joins
      probe_key_ = std::move(*key);
      if (stats_ != nullptr) ++stats_->index_probes;
      it_ = index_->ScanFrom(probe_key_);
      have_outer_ = true;
    }
    // The probe key covers a prefix of the index columns; matching entries
    // are exactly those whose key starts with probe_key_.
    if (it_.valid() && it_.key().size() >= probe_key_.size() &&
        std::string_view(it_.key()).substr(0, probe_key_.size()) ==
            probe_key_) {
      OXML_RETURN_NOT_OK(inner_->heap()->Get(it_.rid(), &inner_row_));
      it_.Next();
      if (stats_ != nullptr) ++stats_->rows_scanned;
      row->assign(outer_row_.begin(), outer_row_.end());
      for (Value& v : inner_row_) row->push_back(std::move(v));
      return true;
    }
    have_outer_ = false;
  }
}

std::string IndexNestedLoopJoinOp::Name() const {
  return "IndexNestedLoopJoin(" + inner_->name() + "." + index_->name + ")";
}

void IndexNestedLoopJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  outer_->Describe(indent + 1, out);
}

// ---------------------------------------------------------------- MergeJoin

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys, ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      stats_(stats) {
  schema_ = left_->schema();
  schema_.Append(right_->schema());
  order_ = left_->output_order();
}

int MergeJoinOp::CompareKeys(const std::vector<Value>& lk, size_t idx) const {
  const std::vector<Value>& rk = right_rows_[idx].keys;
  for (size_t i = 0; i < lk.size(); ++i) {
    int c = lk[i].Compare(rk[i]);
    if (c != 0) return c;
  }
  return 0;
}

Status MergeJoinOp::Open() {
  if (stats_ != nullptr) ++stats_->joins_merge;
  OXML_RETURN_NOT_OK(left_->Open());
  OXML_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  BudgetCharger budget;
  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    KeyedRow kr;
    kr.keys.reserve(right_keys_.size());
    for (const auto& e : right_keys_) {
      OXML_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      if (v.is_null()) kr.has_null = true;  // NULL keys never join
      kr.keys.push_back(std::move(v));
    }
    OXML_RETURN_NOT_OK(
        budget.Add(EstimateRowBytes(row) + EstimateRowBytes(kr.keys)));
    kr.row = std::move(row);
    right_rows_.push_back(std::move(kr));
  }
  right_->Close();
  have_left_ = false;
  scan_ = group_begin_ = group_end_ = group_pos_ = 0;
  return Status::OK();
}

Result<bool> MergeJoinOp::Next(Row* row) {
  while (true) {
    if (!have_left_) {
      OXML_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      left_key_values_.clear();
      bool null_key = false;
      for (const auto& e : left_keys_) {
        OXML_ASSIGN_OR_RETURN(Value v, e->Eval(left_row_));
        if (v.is_null()) null_key = true;
        left_key_values_.push_back(std::move(v));
      }
      if (null_key) continue;
      // Left keys arrive ascending, so the equal-key window only ever
      // moves forward; a repeated left key re-reads the same window.
      while (scan_ < right_rows_.size() &&
             (right_rows_[scan_].has_null ||
              CompareKeys(left_key_values_, scan_) > 0)) {
        ++scan_;
      }
      group_begin_ = scan_;
      group_end_ = group_begin_;
      while (group_end_ < right_rows_.size() &&
             !right_rows_[group_end_].has_null &&
             CompareKeys(left_key_values_, group_end_) == 0) {
        ++group_end_;
      }
      group_pos_ = group_begin_;
      have_left_ = true;
    }
    if (group_pos_ < group_end_) {
      *row = left_row_;
      const Row& r = right_rows_[group_pos_++].row;
      row->insert(row->end(), r.begin(), r.end());
      return true;
    }
    have_left_ = false;
  }
}

void MergeJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
}

std::string MergeJoinOp::Name() const {
  std::string keys;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += left_keys_[i]->ToString() + "=" + right_keys_[i]->ToString();
  }
  return "MergeJoin(" + keys + ")";
}

void MergeJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  left_->Describe(indent + 1, out);
  right_->Describe(indent + 1, out);
}

// ----------------------------------------------------------- StructuralJoin

StructuralJoinOp::StructuralJoinOp(OperatorPtr ancestors,
                                   OperatorPtr descendants, ExprPtr anc_start,
                                   ExprPtr anc_end, ExprPtr desc_start,
                                   bool lower_strict, bool upper_inclusive,
                                   ThreadPool* pool, ExecStats* stats)
    : anc_(std::move(ancestors)),
      desc_(std::move(descendants)),
      anc_start_(std::move(anc_start)),
      anc_end_(std::move(anc_end)),
      desc_start_(std::move(desc_start)),
      lower_strict_(lower_strict),
      upper_inclusive_(upper_inclusive),
      pool_(pool),
      stats_(stats) {
  schema_ = anc_->schema();
  schema_.Append(desc_->schema());
  // Descendants drive the merge, so the output is sorted on the descendant
  // start column (all pairs for one descendant are contiguous, ancestors
  // within a group in start order).
  if (desc_start_->kind() == Expr::Kind::kColumn) {
    int c = static_cast<const ColumnExpr*>(desc_start_.get())->index();
    if (c >= 0) {
      order_.push_back({static_cast<int>(anc_->schema().size()) + c, false});
    }
  }
}

bool StructuralJoinOp::Contains(const Entry& e, const Value& start) const {
  if (e.start.is_null() || e.end.is_null() || start.is_null()) return false;
  int lo = start.Compare(e.start);
  if (lower_strict_ ? lo <= 0 : lo < 0) return false;
  int hi = start.Compare(e.end);
  return upper_inclusive_ ? hi <= 0 : hi < 0;
}

std::vector<StructuralJoinOp::Group> StructuralJoinOp::Partition(
    size_t max_groups) const {
  if (max_groups <= 1) {
    return {Group{0, ancs_.size(), 0, descs_.size()}};
  }
  // Every position where the ancestor stream can be cut: interval i starts
  // strictly after the maximum end seen so far, so no containment pair
  // spans the cut. (A NULL end extends nothing: such an interval contains
  // no descendant.)
  std::vector<size_t> cuts;  // cut before these indices
  const Value* max_end = nullptr;
  for (size_t i = 0; i < ancs_.size(); ++i) {
    if (i > 0 &&
        (max_end == nullptr || ancs_[i].start.Compare(*max_end) > 0)) {
      cuts.push_back(i);
      max_end = nullptr;
    }
    if (!ancs_[i].end.is_null() &&
        (max_end == nullptr || ancs_[i].end.Compare(*max_end) > 0)) {
      max_end = &ancs_[i].end;
    }
  }
  // Keep at most max_groups-1 cuts, evenly spaced: dropping a cut merely
  // merges two independent groups, which stays correct.
  if (cuts.size() + 1 > max_groups) {
    std::vector<size_t> kept;
    for (size_t i = 1; i < max_groups; ++i) {
      kept.push_back(cuts[i * cuts.size() / max_groups]);
    }
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    cuts = std::move(kept);
  }

  // Group boundaries over ancestors, plus each group's max end (recomputed
  // after the merge) for descendant assignment.
  std::vector<Group> groups;
  std::vector<const Value*> group_max;
  size_t begin = 0;
  for (size_t ci = 0; ci <= cuts.size(); ++ci) {
    size_t end = ci < cuts.size() ? cuts[ci] : ancs_.size();
    const Value* m = nullptr;
    for (size_t i = begin; i < end; ++i) {
      if (!ancs_[i].end.is_null() &&
          (m == nullptr || ancs_[i].end.Compare(*m) > 0)) {
        m = &ancs_[i].end;
      }
    }
    groups.push_back(Group{begin, end});
    group_max.push_back(m);
    begin = end;
  }

  // Assign each descendant to the first group whose max end it has not
  // passed, the only group that can contain it (groups are disjoint and in
  // start order; descendants arrive sorted on start). Descendants past the
  // last group match nothing and are dropped.
  size_t g = 0;
  for (size_t d = 0; d < descs_.size() && g < groups.size(); ++d) {
    while (g < groups.size() &&
           (group_max[g] == nullptr ||
            group_max[g]->Compare(descs_[d].start) < 0)) {
      if (++g < groups.size()) groups[g].desc_begin = groups[g].desc_end = d;
    }
    if (g < groups.size()) groups[g].desc_end = d + 1;
  }
  return groups;
}

Status StructuralJoinOp::JoinGroup(const Group& g,
                                   std::vector<Match>* out) const {
  BudgetCharger budget;
  size_t next = g.anc_begin;
  std::vector<size_t> stack;
  for (size_t d = g.desc_begin; d < g.desc_end; ++d) {
    OXML_RETURN_NOT_OK(CheckCurrentControl());
    const Entry& desc = descs_[d];
    // Push every ancestor whose start precedes this descendant's.
    while (next < g.anc_end) {
      int c = ancs_[next].start.Compare(desc.start);
      if (!(lower_strict_ ? c < 0 : c <= 0)) break;
      stack.push_back(next++);
    }
    // Retire ancestors whose interval ended before this start: later
    // descendants only have larger starts, so they can never match again.
    // Popping from the top is exact for properly nested intervals; for
    // overlapping inputs the Contains() check below keeps the join correct.
    while (!stack.empty()) {
      const Value& end = ancs_[stack.back()].end;
      bool expired = end.is_null() || (upper_inclusive_
                                           ? end.Compare(desc.start) < 0
                                           : end.Compare(desc.start) <= 0);
      if (!expired) break;
      stack.pop_back();
    }
    for (size_t a : stack) {
      if (!Contains(ancs_[a], desc.start)) continue;
      OXML_RETURN_NOT_OK(budget.Add(sizeof(Match)));
      out->push_back({a, d});
    }
  }
  return Status::OK();
}

Status StructuralJoinOp::Open() {
  if (stats_ != nullptr) ++stats_->joins_structural;
  out_.clear();
  part_ = 0;
  pos_ = 0;

  // Drain both inputs, evaluating the interval columns once per row. Rows
  // with NULL starts are dropped here: they can never match.
  BudgetCharger budget;
  auto drain = [&](Operator* in, const Expr* start, const Expr* end,
                   std::vector<Entry>* entries) -> Status {
    entries->clear();
    OXML_RETURN_NOT_OK(in->Open());
    Row row;
    while (true) {
      OXML_ASSIGN_OR_RETURN(bool has, in->Next(&row));
      if (!has) return Status::OK();
      Entry e;
      OXML_ASSIGN_OR_RETURN(e.start, start->Eval(row));
      if (e.start.is_null()) continue;
      if (end != nullptr) {
        OXML_ASSIGN_OR_RETURN(e.end, end->Eval(row));
      }
      OXML_RETURN_NOT_OK(budget.AddRow(row));
      e.row = std::move(row);
      entries->push_back(std::move(e));
    }
  };
  OXML_RETURN_NOT_OK(
      drain(anc_.get(), anc_start_.get(), anc_end_.get(), &ancs_));
  OXML_RETURN_NOT_OK(drain(desc_.get(), desc_start_.get(), nullptr, &descs_));

  std::vector<Group> groups =
      Partition(pool_ != nullptr ? pool_->TargetShards() : 1);
  out_.resize(groups.size());
  auto join = [&](size_t i) { return JoinGroup(groups[i], &out_[i]); };
  if (pool_ == nullptr) return join(0);
  if (stats_ != nullptr) {
    ++stats_->parallel_joins;
    stats_->morsels += groups.size();
    stats_->threads_used.UpdateMax(std::min(pool_->size() + 1, groups.size()));
  }
  return pool_->ParallelFor(groups.size(), join);
}

Result<bool> StructuralJoinOp::Next(Row* row) {
  while (part_ < out_.size()) {
    if (pos_ < out_[part_].size()) {
      const Match& m = out_[part_][pos_++];
      const Row& anc = ancs_[m.anc].row;
      const Row& desc = descs_[m.desc].row;
      row->clear();
      row->reserve(anc.size() + desc.size());
      row->insert(row->end(), anc.begin(), anc.end());
      row->insert(row->end(), desc.begin(), desc.end());
      return true;
    }
    ++part_;
    pos_ = 0;
  }
  return false;
}

void StructuralJoinOp::Close() {
  anc_->Close();
  desc_->Close();
  ancs_ = {};
  descs_ = {};
  out_ = {};
}

std::string StructuralJoinOp::Name() const {
  return "StructuralJoin(" + desc_start_->ToString() +
         (lower_strict_ ? " > " : " >= ") + anc_start_->ToString() + " AND " +
         desc_start_->ToString() + (upper_inclusive_ ? " <= " : " < ") +
         anc_end_->ToString() + ")";
}

void StructuralJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  anc_->Describe(indent + 1, out);
  desc_->Describe(indent + 1, out);
}

// --------------------------------------------------------------------- Sort

SortOp::SortOp(OperatorPtr child, std::vector<ExprPtr> order_exprs,
               std::vector<bool> desc, ExecStats* stats)
    : child_(std::move(child)),
      order_exprs_(std::move(order_exprs)),
      desc_(std::move(desc)),
      stats_(stats) {
  schema_ = child_->schema();
  // Report the column-expression prefix of the sort keys as the output
  // order (an expression key still sorts the stream, but cannot be named
  // as an order property).
  for (size_t i = 0; i < order_exprs_.size(); ++i) {
    if (order_exprs_[i]->kind() != Expr::Kind::kColumn) break;
    int c = static_cast<const ColumnExpr*>(order_exprs_[i].get())->index();
    if (c < 0) break;
    order_.push_back({c, desc_[i]});
  }
}

Status SortOp::Open() {
  if (stats_ != nullptr) ++stats_->sorts_performed;
  OXML_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  pos_ = 0;
  BudgetCharger budget;
  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    OXML_RETURN_NOT_OK(budget.AddRow(row));
    rows_.push_back(std::move(row));
  }
  child_->Close();

  // Precompute sort keys to keep the comparator exception-free.
  struct Keyed {
    std::vector<Value> keys;
    size_t index;
  };
  std::vector<Keyed> keyed(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    keyed[i].index = i;
    keyed[i].keys.reserve(order_exprs_.size());
    for (const auto& e : order_exprs_) {
      OXML_ASSIGN_OR_RETURN(Value v, e->Eval(rows_[i]));
      keyed[i].keys.push_back(std::move(v));
    }
  }
  // stable_sort + a strict-weak comparator that returns false on ties:
  // rows with equal keys keep their input order. XPath results rely on
  // this — sibling nodes tie on every key the encodings expose (e.g. a
  // shared sord chain position), and their document order must survive.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const Keyed& a, const Keyed& b) {
                     for (size_t k = 0; k < a.keys.size(); ++k) {
                       int c = a.keys[k].Compare(b.keys[k]);
                       if (c != 0) return desc_[k] ? c > 0 : c < 0;
                     }
                     return false;
                   });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (const Keyed& k : keyed) sorted.push_back(std::move(rows_[k.index]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::Next(Row* row) {
  if (pos_ >= rows_.size()) return false;
  // Each materialized row is produced exactly once per Open(), so handing
  // ownership to the caller is safe.
  *row = std::move(rows_[pos_++]);
  return true;
}

void SortOp::Close() { rows_.clear(); }

std::string SortOp::Name() const {
  std::string keys;
  for (size_t i = 0; i < order_exprs_.size(); ++i) {
    if (i > 0) keys += ", ";
    keys += order_exprs_[i]->ToString();
    if (desc_[i]) keys += " DESC";
  }
  return "Sort(" + keys + ")";
}

void SortOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// -------------------------------------------------------------------- Limit

LimitOp::LimitOp(OperatorPtr child, ExprPtr limit)
    : child_(std::move(child)), limit_expr_(std::move(limit)) {
  schema_ = child_->schema();
  order_ = child_->output_order();
}

Status LimitOp::Open() {
  OXML_ASSIGN_OR_RETURN(Value k, limit_expr_->Eval(Row{}));
  if (k.type() != TypeId::kInt || k.AsInt() < 0) {
    return Status::InvalidArgument("LIMIT needs a non-negative integer, got " +
                                   k.ToString());
  }
  limit_ = k.AsInt();
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitOp::Next(Row* row) {
  if (produced_ >= limit_) return false;
  OXML_ASSIGN_OR_RETURN(bool has, child_->Next(row));
  if (!has) return false;
  ++produced_;
  return true;
}

std::string LimitOp::Name() const {
  return "Limit(" + limit_expr_->ToString() + ")";
}

void LimitOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// ----------------------------------------------------------------- Distinct

DistinctOp::DistinctOp(OperatorPtr child) : child_(std::move(child)) {
  schema_ = child_->schema();
  order_ = child_->output_order();  // streaming dedup keeps input order
}

Status DistinctOp::Open() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctOp::Next(Row* row) {
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    size_t h = HashRow(*row);
    auto range = seen_.equal_range(h);
    bool duplicate = false;
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second.size() != row->size()) continue;
      bool equal = true;
      for (size_t i = 0; i < row->size(); ++i) {
        if (it->second[i].Compare((*row)[i]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      seen_.emplace(h, *row);
      return true;
    }
  }
}

void DistinctOp::Close() {
  child_->Close();
  seen_.clear();
}

std::string DistinctOp::Name() const { return "Distinct"; }

void DistinctOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// ---------------------------------------------------------------- Aggregate

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                         std::vector<AggregateSpec> aggregates,
                         Schema out_schema)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  schema_ = std::move(out_schema);
}

Status AggregateOp::Open() {
  OXML_RETURN_NOT_OK(child_->Open());
  groups_.clear();
  group_index_.clear();
  pos_ = 0;

  Row row;
  while (true) {
    OXML_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;

    Row group_values;
    group_values.reserve(group_by_.size());
    for (const auto& e : group_by_) {
      OXML_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      group_values.push_back(std::move(v));
    }

    size_t h = HashRow(group_values);
    GroupState* state = nullptr;
    for (size_t idx : group_index_[h]) {
      bool equal = true;
      for (size_t i = 0; i < group_values.size(); ++i) {
        if (groups_[idx].group_values[i].Compare(group_values[i]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) {
        state = &groups_[idx];
        break;
      }
    }
    if (state == nullptr) {
      group_index_[h].push_back(groups_.size());
      groups_.push_back(GroupState{
          std::move(group_values),
          std::vector<Value>(aggregates_.size(), Value::Null()),
          std::vector<int64_t>(aggregates_.size(), 0)});
      state = &groups_.back();
    }

    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      Value arg = Value::Null();
      if (spec.arg != nullptr) {
        OXML_ASSIGN_OR_RETURN(arg, spec.arg->Eval(row));
      }
      Value& acc = state->accumulators[a];
      switch (spec.kind) {
        case AggregateKind::kCount:
          if (spec.arg == nullptr || !arg.is_null()) ++state->counts[a];
          break;
        case AggregateKind::kSum:
        case AggregateKind::kAvg:
          if (!arg.is_null()) {
            ++state->counts[a];
            if (acc.is_null()) {
              acc = arg;
            } else if (acc.type() == TypeId::kInt &&
                       arg.type() == TypeId::kInt) {
              acc = Value::Int(acc.AsInt() + arg.AsInt());
            } else {
              acc = Value::Double(acc.AsDouble() + arg.AsDouble());
            }
          }
          break;
        case AggregateKind::kMin:
          if (!arg.is_null() && (acc.is_null() || arg.Compare(acc) < 0)) {
            acc = arg;
          }
          break;
        case AggregateKind::kMax:
          if (!arg.is_null() && (acc.is_null() || arg.Compare(acc) > 0)) {
            acc = arg;
          }
          break;
        case AggregateKind::kNone:
          return Status::Internal("non-aggregate in AggregateOp");
      }
    }
  }
  child_->Close();

  // A global aggregate (no GROUP BY) over zero rows still yields one row.
  if (groups_.empty() && group_by_.empty()) {
    groups_.push_back(GroupState{
        Row{}, std::vector<Value>(aggregates_.size(), Value::Null()),
        std::vector<int64_t>(aggregates_.size(), 0)});
  }
  return Status::OK();
}

Result<bool> AggregateOp::Next(Row* row) {
  if (pos_ >= groups_.size()) return false;
  GroupState& g = groups_[pos_++];
  row->clear();
  row->insert(row->end(), g.group_values.begin(), g.group_values.end());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    switch (aggregates_[a].kind) {
      case AggregateKind::kCount:
        row->push_back(Value::Int(g.counts[a]));
        break;
      case AggregateKind::kAvg:
        if (g.counts[a] == 0) {
          row->push_back(Value::Null());
        } else {
          row->push_back(
              Value::Double(g.accumulators[a].AsDouble() /
                            static_cast<double>(g.counts[a])));
        }
        break;
      default:
        row->push_back(g.accumulators[a]);
    }
  }
  return true;
}

void AggregateOp::Close() {
  groups_.clear();
  group_index_.clear();
}

std::string AggregateOp::Name() const {
  return "Aggregate(groups=" + std::to_string(group_by_.size()) +
         ", aggs=" + std::to_string(aggregates_.size()) + ")";
}

void AggregateOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  child_->Describe(indent + 1, out);
}

// ---------------------------------------------------------------- ResultSet

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out += " | ";
    out += schema.column(i).name;
  }
  out += "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

Result<ResultSet> ExecuteToResultSet(Operator* root, size_t size_hint) {
  ResultSet rs;
  rs.schema = root->schema();
  if (size_hint > 0) rs.rows.reserve(size_hint);
  OXML_RETURN_NOT_OK(root->Open());
  BudgetCharger budget;
  Row row;
  while (true) {
    // Per-row governance: deadline/cancel at the root Next() boundary and
    // memory accounting for the materialized result set. Close on the way
    // out so plan-cached operator instances drop their buffered state
    // instead of carrying it until their next execution.
    Status ctl = CheckCurrentControl();
    if (!ctl.ok()) {
      root->Close();
      return ctl;
    }
    Result<bool> has = root->Next(&row);
    if (!has.ok()) {
      root->Close();
      return has.status();
    }
    if (!*has) break;
    Status charged = budget.AddRow(row);
    if (!charged.ok()) {
      root->Close();
      return charged;
    }
    rs.rows.push_back(std::move(row));
  }
  root->Close();
  return rs;
}

}  // namespace oxml
