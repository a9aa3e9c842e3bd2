#ifndef OXML_RELATIONAL_CATALOG_H_
#define OXML_RELATIONAL_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/relational/btree.h"
#include "src/relational/heap_table.h"
#include "src/relational/key_codec.h"
#include "src/relational/schema.h"
#include "src/relational/statement_context.h"

namespace oxml {

/// A relaxed-atomic counter that still behaves like the plain uint64_t it
/// replaced: copyable (benchmarks snapshot whole ExecStats structs),
/// incrementable with ++/+=, and implicitly convertible for comparisons and
/// arithmetic. Relaxed ordering is sufficient — these are monotone tallies,
/// never used to synchronize, and concurrent readers only need each bump to
/// be free of torn writes and data races.
class StatCounter {
 public:
  StatCounter(uint64_t v = 0) : v_(v) {}  // NOLINT: implicit by design
  StatCounter(const StatCounter& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  StatCounter& operator=(const StatCounter& o) {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  /// Raises the counter to at least `v` (high-water marks like
  /// `threads_used`).
  void UpdateMax(uint64_t v) {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  operator uint64_t() const {  // NOLINT: implicit by design
    return v_.load(std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_;
};

/// Mutation counters shared by the executor and the storage layer; the
/// ordered-XML benchmarks read these to report "rows touched" per update.
/// Counters are relaxed atomics (see StatCounter): concurrent read-only
/// statements bump them from many threads at once.
struct ExecStats {
  StatCounter rows_scanned = 0;    // rows produced by table/index scans
  StatCounter index_probes = 0;    // index lookups / range scans started
  StatCounter rows_inserted = 0;
  StatCounter rows_deleted = 0;
  StatCounter rows_updated = 0;
  StatCounter statements = 0;
  StatCounter plan_cache_hits = 0;    // statements served from the plan cache
  StatCounter plan_cache_misses = 0;  // statements that paid parse + plan
  StatCounter parse_plan_ns = 0;  // wall time spent lexing/parsing/planning

  // Join-strategy counters, bumped once per join operator Open() so that a
  // benchmark (or test) can see which physical join the planner picked.
  StatCounter joins_nested_loop = 0;
  StatCounter joins_hash = 0;
  StatCounter joins_index_nested_loop = 0;
  StatCounter joins_merge = 0;
  StatCounter joins_structural = 0;

  // Sort accounting: `sorts_performed` counts SortOp::Open() calls (a full
  // materialize + sort); `sorts_elided` counts ORDER BY clauses the planner
  // dropped because the input order already satisfied them.
  StatCounter sorts_performed = 0;
  StatCounter sorts_elided = 0;

  // Intra-query parallelism (see DatabaseOptions::enable_parallel_execution):
  // `threads_used` is the high-water worker count any parallel operator
  // fanned out to, `morsels` counts scan/join partitions executed by
  // operators that fanned out (a small scan run inline counts none), and
  // `parallel_joins` counts StructuralJoinOp::Open() calls that fanned out
  // over the pool (a join with no pool runs inline and counts none).
  StatCounter threads_used = 0;
  StatCounter morsels = 0;
  StatCounter parallel_joins = 0;

  // Document loading (OrderedXmlStore::LoadDocument):
  // `rows_shredded` counts rows produced by the partition/shred phase,
  // `runs_merged` counts the per-worker sorted runs fed to the k-way
  // merge, and `load_threads_used` is the high-water worker count that
  // shredded at least one partition during a load.
  StatCounter rows_shredded = 0;
  StatCounter runs_merged = 0;
  StatCounter load_threads_used = 0;

  // MVCC snapshot reads (see DatabaseOptions::enable_mvcc):
  // `snapshot_reads` counts page fetches served from a published version
  // instead of the live frame, `versions_retained` is the cumulative count
  // of page versions published by copy-on-write capture, and
  // `version_chain_max` is the high-water length of any single page's
  // version chain (1 under the current one-writer design).
  StatCounter snapshot_reads = 0;
  StatCounter versions_retained = 0;
  StatCounter version_chain_max = 0;

  // Resource governance (see DatabaseOptions::default_statement_timeout_ms,
  // statement_memory_budget_bytes): per-statement outcomes counted by the
  // statement governor when a limit trips, plus transient-I/O retries the
  // storage backend absorbed (EAGAIN / injected transient faults) and
  // auto-checkpoints that failed and were deferred to the next threshold
  // crossing.
  StatCounter statements_timed_out = 0;
  StatCounter statements_cancelled = 0;
  StatCounter mem_budget_rejections = 0;
  StatCounter io_retries = 0;
  StatCounter checkpoints_failed = 0;

  /// Fraction of statement compilations avoided by the plan cache.
  double PlanCacheHitRate() const {
    uint64_t total = plan_cache_hits + plan_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(plan_cache_hits) /
                            static_cast<double>(total);
  }

  void Reset() { *this = ExecStats(); }
};

/// What an open transaction changed in one memory-resident B+tree, kept so
/// snapshot readers can reconstruct the committed view (the heap has page
/// versions for this; the trees mutate in place and need a logical delta).
/// The committed view of the index is (tree \ inserted) ∪ erased — both
/// sets are ordered by (key, rid), the tree's own total order.
struct IndexTxnDelta {
  using Entry = std::pair<std::string, Rid>;
  std::set<Entry> inserted;  ///< added by the open txn: hidden from readers
  std::set<Entry> erased;    ///< removed by the open txn: re-surfaced
  /// The tree was bulk-built inside the open transaction (empty before it):
  /// the committed view is empty regardless of tree contents.
  bool whole_tree_new = false;
};

/// An ordered cursor over one index that readers use instead of a raw
/// BPlusTree::Iterator. In current-state mode it is a passthrough; in
/// snapshot mode (an open transaction's delta + a snapshot LSN in the
/// thread's StatementContext) it merges the tree's entries — minus the
/// transaction's inserts — with the transaction's erased entries, yielding
/// the committed view in exact (key, rid) order.
class IndexCursor {
 public:
  IndexCursor() = default;
  /// Current-state passthrough.
  explicit IndexCursor(BPlusTree::Iterator it) : it_(it) {}
  /// Snapshot merge view. `extra` iterates the delta's erased entries from
  /// the cursor's start position.
  IndexCursor(BPlusTree::Iterator it, const IndexTxnDelta* delta,
              std::set<IndexTxnDelta::Entry>::const_iterator extra,
              std::set<IndexTxnDelta::Entry>::const_iterator extra_end)
      : it_(it), delta_(delta), extra_(extra), extra_end_(extra_end) {
    SkipHidden();
  }

  bool valid() const { return TreeSideValid() || extra_ != extra_end_; }
  const std::string& key() const {
    return ExtraIsCurrent() ? extra_->first : it_.key();
  }
  const Rid& rid() const {
    return ExtraIsCurrent() ? extra_->second : it_.rid();
  }
  void Next() {
    if (ExtraIsCurrent()) {
      ++extra_;
    } else {
      it_.Next();
      SkipHidden();
    }
  }

 private:
  bool TreeSideValid() const {
    return it_.valid() && !(delta_ != nullptr && delta_->whole_tree_new);
  }
  /// True when the erased-set side holds the smaller (key, rid) entry.
  bool ExtraIsCurrent() const {
    if (extra_ == extra_end_) return false;
    if (!TreeSideValid()) return true;
    const IndexTxnDelta::Entry& e = *extra_;
    int c = e.first.compare(it_.key());
    if (c != 0) return c < 0;
    return e.second < it_.rid();
  }
  /// Advances the tree side past entries the open transaction inserted.
  void SkipHidden() {
    if (delta_ == nullptr) return;
    while (it_.valid() &&
           delta_->inserted.count({it_.key(), it_.rid()}) > 0) {
      it_.Next();
    }
  }

  BPlusTree::Iterator it_;
  const IndexTxnDelta* delta_ = nullptr;
  std::set<IndexTxnDelta::Entry>::const_iterator extra_;
  std::set<IndexTxnDelta::Entry>::const_iterator extra_end_;
};

/// A secondary (or primary, when `unique`) index over a table.
///
/// All mutations flow through the Insert/Erase/BulkBuild wrappers so that,
/// while a transaction is open under MVCC, the logical delta needed by
/// snapshot readers is maintained alongside the in-place tree (see
/// IndexTxnDelta). Readers open cursors via ScanFrom/ScanBegin, which pick
/// snapshot or current-state mode off the thread's StatementContext.
struct TableIndex {
  std::string name;
  std::vector<int> column_indices;  // positions in the table schema
  bool unique = false;
  BPlusTree tree;
  /// Non-null while an MVCC transaction is open (set by Database::Begin on
  /// every index, cleared at commit/rollback). Only the transaction owner
  /// mutates it; readers access it read-only under the shared statement
  /// latch, which the owner's mutating statements exclude.
  std::unique_ptr<IndexTxnDelta> txn_delta;

  /// Encoded key of `row` for this index.
  std::string KeyFor(const Row& row) const {
    std::vector<Value> vals;
    vals.reserve(column_indices.size());
    for (int c : column_indices) vals.push_back(row[c]);
    return EncodeKey(vals);
  }

  void BeginTxnTracking() { txn_delta = std::make_unique<IndexTxnDelta>(); }
  void EndTxnTracking() { txn_delta.reset(); }

  /// Inserts into the tree, recording the delta when tracking. Re-inserting
  /// an entry the same transaction erased cancels instead of accumulating
  /// ((key, rid) pairs are unique, so the entry is back to committed state).
  void Insert(std::string_view key, const Rid& rid) {
    tree.Insert(key, rid);
    if (txn_delta != nullptr) {
      IndexTxnDelta::Entry e{std::string(key), rid};
      if (txn_delta->erased.erase(e) == 0) {
        txn_delta->inserted.insert(std::move(e));
      }
    }
  }

  /// Erases from the tree, recording the delta when tracking (only when the
  /// entry was actually present). Erasing an entry inserted by the same
  /// transaction cancels.
  bool Erase(std::string_view key, const Rid& rid) {
    bool present = tree.Erase(key, rid);
    if (present && txn_delta != nullptr) {
      IndexTxnDelta::Entry e{std::string(key), rid};
      if (txn_delta->inserted.erase(e) == 0) {
        txn_delta->erased.insert(std::move(e));
      }
    }
    return present;
  }

  /// Bulk-builds the (empty) tree; when tracking, the committed view stays
  /// empty — the whole tree belongs to the open transaction.
  Status BulkBuild(std::vector<BPlusTree::Entry>&& entries) {
    Status st = tree.BulkBuild(std::move(entries));
    if (st.ok() && txn_delta != nullptr) txn_delta->whole_tree_new = true;
    return st;
  }

  /// Ordered cursor at the first visible entry with key >= `lower`.
  IndexCursor ScanFrom(std::string_view lower) const {
    if (!SnapshotMode()) return IndexCursor(tree.LowerBound(lower));
    return IndexCursor(
        tree.LowerBound(lower), txn_delta.get(),
        txn_delta->erased.lower_bound({std::string(lower), Rid{0, 0}}),
        txn_delta->erased.end());
  }

  /// Ordered cursor at the smallest visible entry.
  IndexCursor ScanBegin() const {
    if (!SnapshotMode()) return IndexCursor(tree.Begin());
    return IndexCursor(tree.Begin(), txn_delta.get(),
                       txn_delta->erased.begin(), txn_delta->erased.end());
  }

 private:
  /// Snapshot mode: a transaction is being tracked and the calling thread
  /// reads under a snapshot (i.e. it is not the transaction owner).
  bool SnapshotMode() const {
    return txn_delta != nullptr &&
           CurrentStatementContext().snapshot_lsn.has_value();
  }
};

/// A table: heap storage plus its indexes, with index maintenance on every
/// mutation. All row mutations must flow through this class.
class TableInfo {
 public:
  TableInfo(std::string name, Schema schema, std::unique_ptr<HeapTable> heap)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        heap_(std::move(heap)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  HeapTable* heap() const { return heap_.get(); }

  const std::vector<std::unique_ptr<TableIndex>>& indexes() const {
    return indexes_;
  }

  /// Builds a new index (bulk-loading existing rows). Fails on duplicate
  /// keys when `unique`.
  Result<TableIndex*> CreateIndex(std::string index_name,
                                  std::vector<int> column_indices,
                                  bool unique);

  TableIndex* FindIndex(const std::string& index_name) const;

  /// Discards every index and rebuilds it by rescanning the heap. Used by
  /// transaction rollback after the heap pages were restored: the memory-
  /// resident B+trees have no pre-images, so they are recomputed the same
  /// way Database::Open recomputes them. Invalidates raw TableIndex*
  /// pointers held elsewhere (cached plans must be dropped by the caller).
  Status RebuildIndexes();

  /// Inserts a row, maintaining all indexes; enforces unique constraints.
  Result<Rid> InsertRow(const Row& row, ExecStats* stats);

  /// Appends `rows` through the bulk path: one HeapTable::AppendBatch for
  /// the heap, then each index is built bottom-up (sort the (key, rid)
  /// entries, BPlusTree::BulkBuild) instead of one Insert per row — with
  /// the per-index builds fanned out over `pool` when one is supplied.
  /// Requires an empty table (bulk index construction needs empty trees);
  /// callers loading into a non-empty table must fall back to InsertRow.
  /// Enforces unique constraints (duplicate key => Aborted). On failure the
  /// table may hold partial state; the caller's transaction rollback
  /// restores the heap pages and rebuilds the indexes.
  Status BulkLoadRows(const std::vector<Row>& rows, class ThreadPool* pool,
                      ExecStats* stats);

  /// Deletes the row at `rid`, maintaining indexes.
  Status DeleteRow(const Rid& rid, ExecStats* stats);

  /// Replaces the row at `rid`; returns the (possibly moved) rid.
  Result<Rid> UpdateRow(const Rid& rid, const Row& new_row, ExecStats* stats);

 private:
  std::string name_;
  Schema schema_;
  std::unique_ptr<HeapTable> heap_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_CATALOG_H_
