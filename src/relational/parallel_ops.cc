#include "src/relational/parallel_ops.h"

#include <algorithm>

#include "src/relational/btree.h"
#include "src/relational/heap_table.h"
#include "src/relational/query_control.h"

namespace oxml {

// ------------------------------------------------------------- ParallelScan

ParallelScanOp::ParallelScanOp(TableInfo* table, Schema qualified_schema,
                               ThreadPool* pool, size_t min_rows,
                               ExecStats* stats)
    : table_(table), pool_(pool), min_rows_(min_rows), stats_(stats) {
  schema_ = std::move(qualified_schema);
}

ParallelScanOp::ParallelScanOp(TableInfo* table, TableIndex* index,
                               Schema qualified_schema,
                               std::optional<std::string> lower,
                               std::optional<std::string> upper,
                               size_t eq_prefix, ThreadPool* pool,
                               size_t min_rows, ExecStats* stats)
    : table_(table),
      index_(index),
      lower_(std::move(lower)),
      upper_(std::move(upper)),
      pool_(pool),
      min_rows_(min_rows),
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
  // A small table runs as one shard, which ParallelFor runs inline.
  size_t target = table_->heap()->row_count() >= min_rows_
                      ? pool_->TargetShards()
                      : 1;
  return index_ == nullptr ? OpenHeap(target) : OpenIndex(target);
}

Status ParallelScanOp::OpenHeap(size_t target_shards) {
  OXML_ASSIGN_OR_RETURN(std::vector<uint32_t> chain,
                        table_->heap()->PageChain());
  size_t shards = std::min(target_shards, chain.size());
  if (shards == 0) return Status::OK();
  partitions_.resize(shards);
  if (stats_ != nullptr && target_shards > 1) {
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

Status ParallelScanOp::OpenIndex(size_t target_shards) {
  if (stats_ != nullptr) ++stats_->index_probes;
  const BPlusTree& tree = index_->tree;
  // Candidate separators over the whole tree, narrowed to (lower, upper).
  // Separators drawn from the live tree stay valid cut points for a
  // snapshot view too: the shard ranges are disjoint and cover
  // [lower, upper) no matter which keys the separators name.
  std::vector<std::string> seps = tree.SplitKeys(target_shards);
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
  if (stats_ != nullptr && target_shards > 1) {
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
      Row row;
      OXML_RETURN_NOT_OK(table_->heap()->Get(it.rid(), &row));
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

}  // namespace oxml
