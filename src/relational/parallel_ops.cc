#include "src/relational/parallel_ops.h"

#include <algorithm>

#include "src/relational/btree.h"
#include "src/relational/heap_table.h"
#include "src/relational/query_control.h"

namespace oxml {

namespace {

/// How many morsels to cut a scan or join into: a small multiple of the
/// worker count (pool workers + the calling thread) so stragglers can be
/// absorbed, without drowning small inputs in bookkeeping.
size_t TargetShards(const ThreadPool* pool) { return (pool->size() + 1) * 2; }

}  // namespace

// ------------------------------------------------------------- ParallelScan

ParallelScanOp::ParallelScanOp(TableInfo* table, Schema qualified_schema,
                               ThreadPool* pool, ExecStats* stats)
    : table_(table), pool_(pool), stats_(stats) {
  schema_ = std::move(qualified_schema);
}

ParallelScanOp::ParallelScanOp(TableInfo* table, TableIndex* index,
                               Schema qualified_schema,
                               std::optional<std::string> lower,
                               std::optional<std::string> upper,
                               size_t eq_prefix, ThreadPool* pool,
                               ExecStats* stats)
    : table_(table),
      index_(index),
      lower_(std::move(lower)),
      upper_(std::move(upper)),
      pool_(pool),
      stats_(stats) {
  schema_ = std::move(qualified_schema);
  // Same order property as the serial IndexScanOp: the index-column suffix
  // past the pinned equality prefix (partition concatenation preserves it).
  for (size_t k = eq_prefix; k < index->column_indices.size(); ++k) {
    order_.push_back({index->column_indices[k], false});
  }
}

Status ParallelScanOp::Open() {
  partitions_.clear();
  part_ = 0;
  pos_ = 0;
  return index_ == nullptr ? OpenHeap() : OpenIndex();
}

Status ParallelScanOp::OpenHeap() {
  OXML_ASSIGN_OR_RETURN(std::vector<uint32_t> chain,
                        table_->heap()->PageChain());
  size_t shards = std::min(TargetShards(pool_), chain.size());
  if (shards == 0) return Status::OK();
  partitions_.resize(shards);
  if (stats_ != nullptr) {
    stats_->morsels += shards;
    stats_->threads_used.UpdateMax(std::min(pool_->size() + 1, shards));
  }
  // ParallelFor runs every shard under the statement's context, so each
  // reads the same committed view, polls the statement's control per row
  // and charges the partition buffer against its budget.
  return pool_->ParallelFor(shards, [&](size_t i) -> Status {
    BudgetCharger budget;
    size_t begin = i * chain.size() / shards;
    size_t end = (i + 1) * chain.size() / shards;
    HeapTable::Iterator it(table_->heap(), chain[begin], end - begin);
    Rid rid;
    Row row;
    while (true) {
      OXML_RETURN_NOT_OK(CheckCurrentControl());
      OXML_ASSIGN_OR_RETURN(bool has, it.Next(&rid, &row));
      if (!has) break;
      OXML_RETURN_NOT_OK(budget.AddRow(row));
      partitions_[i].push_back(std::move(row));
      if (stats_ != nullptr) ++stats_->rows_scanned;
    }
    return Status::OK();
  });
}

Status ParallelScanOp::OpenIndex() {
  if (stats_ != nullptr) ++stats_->index_probes;
  const BPlusTree& tree = index_->tree;
  // Candidate separators over the whole tree, narrowed to (lower, upper).
  // Separators drawn from the live tree stay valid cut points for a
  // snapshot view too: the shard ranges are disjoint and cover
  // [lower, upper) no matter which keys the separators name.
  std::vector<std::string> seps = tree.SplitKeys(TargetShards(pool_));
  std::vector<std::optional<std::string>> bounds;
  bounds.push_back(lower_);
  for (auto& s : seps) {
    if (lower_.has_value() && s <= *lower_) continue;
    if (upper_.has_value() && s >= *upper_) continue;
    bounds.emplace_back(std::move(s));
  }
  bounds.push_back(upper_);
  size_t shards = bounds.size() - 1;
  partitions_.resize(shards);
  if (stats_ != nullptr) {
    stats_->morsels += shards;
    stats_->threads_used.UpdateMax(std::min(pool_->size() + 1, shards));
  }
  return pool_->ParallelFor(shards, [&](size_t i) -> Status {
    BudgetCharger budget;
    IndexCursor it = bounds[i].has_value() ? index_->ScanFrom(*bounds[i])
                                           : index_->ScanBegin();
    const std::optional<std::string>& stop = bounds[i + 1];
    while (it.valid() && !(stop.has_value() && it.key() >= *stop)) {
      OXML_RETURN_NOT_OK(CheckCurrentControl());
      OXML_ASSIGN_OR_RETURN(Row row, table_->heap()->Get(it.rid()));
      OXML_RETURN_NOT_OK(budget.AddRow(row));
      partitions_[i].push_back(std::move(row));
      if (stats_ != nullptr) ++stats_->rows_scanned;
      it.Next();
    }
    return Status::OK();
  });
}

Result<bool> ParallelScanOp::Next(Row* row) {
  while (part_ < partitions_.size()) {
    if (pos_ < partitions_[part_].size()) {
      *row = std::move(partitions_[part_][pos_++]);
      return true;
    }
    ++part_;
    pos_ = 0;
  }
  return false;
}

void ParallelScanOp::Close() {
  partitions_.clear();
  partitions_.shrink_to_fit();
}

std::string ParallelScanOp::Name() const {
  if (index_ == nullptr) return "ParallelSeqScan(" + table_->name() + ")";
  std::string range =
      lower_.has_value() || upper_.has_value() ? " range" : " full";
  return "ParallelIndexScan(" + table_->name() + "." + index_->name + range +
         ")";
}

// --------------------------------------------------- ParallelStructuralJoin

ParallelStructuralJoinOp::ParallelStructuralJoinOp(
    OperatorPtr ancestors, OperatorPtr descendants, ExprPtr anc_start,
    ExprPtr anc_end, ExprPtr desc_start, bool lower_strict,
    bool upper_inclusive, ThreadPool* pool, ExecStats* stats)
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
  // Same output-order property as the serial StructuralJoinOp.
  if (desc_start_->kind() == Expr::Kind::kColumn) {
    int c = static_cast<const ColumnExpr*>(desc_start_.get())->index();
    if (c >= 0) {
      order_.push_back({static_cast<int>(anc_->schema().size()) + c, false});
    }
  }
}

bool ParallelStructuralJoinOp::Contains(const Entry& e,
                                        const Value& start) const {
  if (e.start.is_null() || e.end.is_null() || start.is_null()) return false;
  int lo = start.Compare(e.start);
  if (lower_strict_ ? lo <= 0 : lo < 0) return false;
  int hi = start.Compare(e.end);
  return upper_inclusive_ ? hi <= 0 : hi < 0;
}

Status ParallelStructuralJoinOp::JoinPartition(
    const std::vector<Entry>& ancs, size_t anc_begin, size_t anc_end,
    const std::vector<Entry>& descs, size_t desc_begin, size_t desc_end,
    std::vector<Row>* out) const {
  // The serial algorithm, confined to one independent interval group:
  // push ancestors whose start precedes the descendant's, pop expired
  // intervals, emit surviving stack entries bottom-to-top with the same
  // emit-time Contains() re-check (so arbitrary overlap stays correct).
  BudgetCharger budget;
  size_t next = anc_begin;
  std::vector<const Entry*> stack;
  for (size_t d = desc_begin; d < desc_end; ++d) {
    OXML_RETURN_NOT_OK(CheckCurrentControl());
    const Value& start = descs[d].start;
    while (next < anc_end) {
      int c = ancs[next].start.Compare(start);
      if (!(lower_strict_ ? c < 0 : c <= 0)) break;
      stack.push_back(&ancs[next]);
      ++next;
    }
    while (!stack.empty()) {
      const Entry* top = stack.back();
      bool expired = top->end.is_null() ||
                     (upper_inclusive_ ? top->end.Compare(start) < 0
                                       : top->end.Compare(start) <= 0);
      if (!expired) break;
      stack.pop_back();
    }
    for (const Entry* e : stack) {
      if (!Contains(*e, start)) continue;
      Row joined;
      joined.reserve(e->row.size() + descs[d].row.size());
      joined.insert(joined.end(), e->row.begin(), e->row.end());
      joined.insert(joined.end(), descs[d].row.begin(), descs[d].row.end());
      OXML_RETURN_NOT_OK(budget.AddRow(joined));
      out->push_back(std::move(joined));
    }
  }
  return Status::OK();
}

Status ParallelStructuralJoinOp::Open() {
  if (stats_ != nullptr) {
    ++stats_->joins_structural;
    ++stats_->parallel_joins;
  }
  out_.clear();
  part_ = 0;
  pos_ = 0;

  // Drain both inputs, evaluating interval columns once per row. Rows with
  // NULL starts are dropped here — the serial operator likewise never
  // pushes (ancestors) or matches (descendants) them.
  BudgetCharger budget;
  std::vector<Entry> ancs;
  OXML_RETURN_NOT_OK(anc_->Open());
  {
    Row row;
    while (true) {
      OXML_ASSIGN_OR_RETURN(bool has, anc_->Next(&row));
      if (!has) break;
      Entry e;
      OXML_ASSIGN_OR_RETURN(e.start, anc_start_->Eval(row));
      if (e.start.is_null()) continue;
      OXML_ASSIGN_OR_RETURN(e.end, anc_end_->Eval(row));
      OXML_RETURN_NOT_OK(budget.AddRow(row));
      e.row = std::move(row);
      ancs.push_back(std::move(e));
    }
  }
  std::vector<Entry> descs;
  OXML_RETURN_NOT_OK(desc_->Open());
  {
    Row row;
    while (true) {
      OXML_ASSIGN_OR_RETURN(bool has, desc_->Next(&row));
      if (!has) break;
      Entry e;
      OXML_ASSIGN_OR_RETURN(e.start, desc_start_->Eval(row));
      if (e.start.is_null()) continue;
      OXML_RETURN_NOT_OK(budget.AddRow(row));
      e.row = std::move(row);
      descs.push_back(std::move(e));
    }
  }

  // Find every position where the ancestor stream can be cut: interval i
  // starts strictly after the maximum end seen so far, so no containment
  // pair spans the cut. (A NULL end extends nothing — such an interval
  // contains no descendant.)
  std::vector<size_t> cuts;  // cut before these indices
  {
    const Value* max_end = nullptr;
    for (size_t i = 0; i < ancs.size(); ++i) {
      if (i > 0 && (max_end == nullptr ||
                    ancs[i].start.Compare(*max_end) > 0)) {
        cuts.push_back(i);
        max_end = nullptr;
      }
      if (!ancs[i].end.is_null() &&
          (max_end == nullptr || ancs[i].end.Compare(*max_end) > 0)) {
        max_end = &ancs[i].end;
      }
    }
  }

  // Keep at most target-1 cuts, evenly spaced: dropping a cut merely
  // merges two independent groups, which stays correct.
  size_t target = TargetShards(pool_);
  if (cuts.size() + 1 > target) {
    std::vector<size_t> kept;
    for (size_t i = 1; i < target; ++i) {
      kept.push_back(cuts[i * cuts.size() / target]);
    }
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    cuts = std::move(kept);
  }

  // Partition boundaries over ancestors, plus each group's max end
  // (recomputed after the merge) for descendant assignment.
  struct Part {
    size_t anc_begin, anc_end;
    const Value* max_end = nullptr;
    size_t desc_begin = 0, desc_end = 0;
  };
  std::vector<Part> parts;
  {
    size_t begin = 0;
    for (size_t ci = 0; ci <= cuts.size(); ++ci) {
      size_t end = ci < cuts.size() ? cuts[ci] : ancs.size();
      Part p{begin, end};
      for (size_t i = begin; i < end; ++i) {
        if (!ancs[i].end.is_null() &&
            (p.max_end == nullptr ||
             ancs[i].end.Compare(*p.max_end) > 0)) {
          p.max_end = &ancs[i].end;
        }
      }
      parts.push_back(p);
      begin = end;
    }
  }

  // Assign each descendant to the first group whose max end has not been
  // passed — the only group that can contain it (groups are disjoint and
  // in start order, descendants arrive sorted on start). Descendants past
  // the last group match nothing and are dropped.
  {
    size_t p = 0;
    size_t d = 0;
    for (; d < descs.size() && p < parts.size(); ++d) {
      while (p < parts.size() &&
             (parts[p].max_end == nullptr ||
              parts[p].max_end->Compare(descs[d].start) < 0)) {
        ++p;
        if (p < parts.size()) {
          parts[p].desc_begin = d;
          parts[p].desc_end = d;
        }
      }
      if (p < parts.size()) parts[p].desc_end = d + 1;
    }
  }

  size_t shards = parts.size();
  out_.resize(shards);
  if (stats_ != nullptr) {
    stats_->morsels += shards;
    stats_->threads_used.UpdateMax(std::min(pool_->size() + 1, shards));
  }
  return pool_->ParallelFor(shards, [&](size_t i) -> Status {
    return JoinPartition(ancs, parts[i].anc_begin, parts[i].anc_end, descs,
                         parts[i].desc_begin, parts[i].desc_end, &out_[i]);
  });
}

Result<bool> ParallelStructuralJoinOp::Next(Row* row) {
  while (part_ < out_.size()) {
    if (pos_ < out_[part_].size()) {
      *row = std::move(out_[part_][pos_++]);
      return true;
    }
    ++part_;
    pos_ = 0;
  }
  return false;
}

void ParallelStructuralJoinOp::Close() {
  anc_->Close();
  desc_->Close();
  out_.clear();
  out_.shrink_to_fit();
}

std::string ParallelStructuralJoinOp::Name() const {
  return "ParallelStructuralJoin(" + desc_start_->ToString() +
         (lower_strict_ ? " > " : " >= ") + anc_start_->ToString() + " AND " +
         desc_start_->ToString() + (upper_inclusive_ ? " <= " : " < ") +
         anc_end_->ToString() + ")";
}

void ParallelStructuralJoinOp::Describe(int indent, std::string* out) const {
  Operator::Describe(indent, out);
  anc_->Describe(indent + 1, out);
  desc_->Describe(indent + 1, out);
}

}  // namespace oxml
