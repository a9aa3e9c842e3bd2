#ifndef OXML_RELATIONAL_HEAP_TABLE_H_
#define OXML_RELATIONAL_HEAP_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/buffer_pool.h"
#include "src/relational/page.h"
#include "src/relational/schema.h"

namespace oxml {

/// A heap file: an unordered chain of slotted pages holding encoded rows.
/// Inserts go to the tail page (allocating new pages as needed); deletes
/// leave holes that in-page slot reuse reclaims.
///
/// Rows larger than kMaxInlineCell spill into a chain of overflow pages;
/// the slotted page then stores only a fixed-size overflow marker. Every
/// stored cell carries a one-byte tag distinguishing inline rows from
/// overflow markers. Overflow pages of deleted rows are not reclaimed
/// (there is no free-space map; acceptable for the workloads here).
class HeapTable {
 public:
  /// Rows longer than this are stored in overflow pages.
  static constexpr size_t kMaxInlineCell = kPageSize / 4;

  /// Creates a new heap (allocates its first page).
  static Result<std::unique_ptr<HeapTable>> Create(BufferPool* pool,
                                                   Schema schema);

  /// Re-attaches to an existing heap whose metadata was read from the
  /// persisted catalog (see Database::Open on an existing file).
  static std::unique_ptr<HeapTable> Attach(BufferPool* pool, Schema schema,
                                           uint32_t first_page,
                                           uint32_t last_page,
                                           uint64_t row_count,
                                           uint64_t page_chain_length,
                                           uint64_t data_bytes);

  uint32_t first_page() const { return first_page_; }
  uint32_t last_page() const { return last_page_; }

  /// The mutable bookkeeping that Insert/Delete/Update advance. Transaction
  /// rollback snapshots it at Begin and restores it alongside the page
  /// pre-images (first_page_ never changes after Create).
  struct Metadata {
    uint32_t last_page = kInvalidPageId;
    uint64_t row_count = 0;
    uint64_t page_chain_length = 0;
    uint64_t data_bytes = 0;
  };
  Metadata SnapshotMetadata() const {
    return {last_page_, row_count_, page_chain_length_, data_bytes_};
  }
  void RestoreMetadata(const Metadata& m) {
    last_page_ = m.last_page;
    row_count_ = m.row_count;
    page_chain_length_ = m.page_chain_length;
    data_bytes_ = m.data_bytes;
  }

  Result<Rid> Insert(const Row& row);

  /// Appends every row in order to the tail of the page chain, filling one
  /// Rid per row. Unlike repeated Insert — which re-fetches the tail page
  /// from the buffer pool for every row — the pinned tail handle is cached
  /// across the whole batch, and the avoided fetches are credited to
  /// BufferPool::saved_fetch_count(). Used by the bulk-load path.
  Status AppendBatch(const std::vector<Row>& rows, std::vector<Rid>* rids);

  Result<Row> Get(const Rid& rid) const;

  /// Reads the row at `rid` into `*row`, reusing its storage: the row is
  /// decoded straight from the pinned heap page, and the page is unpinned
  /// before returning.
  Status Get(const Rid& rid, Row* row) const;
  Status Delete(const Rid& rid);

  /// Updates in place when possible; otherwise moves the row, returning its
  /// new Rid (callers must then fix any secondary indexes).
  Result<Rid> Update(const Rid& rid, const Row& row);

  const Schema& schema() const { return schema_; }
  uint64_t row_count() const { return row_count_; }
  uint64_t page_chain_length() const { return page_chain_length_; }
  /// Approximate on-page bytes used by live rows (excludes page overhead).
  uint64_t data_bytes() const { return data_bytes_; }

  /// Forward scan over all live rows in page-chain order. With `max_pages`
  /// the scan covers at most that many pages starting at `page_id`, so a
  /// partitioned scan over [chain[i], chain[i+k]) sees every row exactly
  /// once (see PageChain).
  class Iterator {
   public:
    Iterator(const HeapTable* table, uint32_t page_id);
    Iterator(const HeapTable* table, uint32_t page_id, uint64_t max_pages);
    /// Advances to the next live row; returns false at end-of-heap.
    /// On true, `rid` and `row` are filled.
    Result<bool> Next(Rid* rid, Row* row);

   private:
    const HeapTable* table_;
    uint32_t page_id_;
    uint16_t next_slot_ = 0;
    uint64_t pages_left_ = UINT64_MAX;
  };

  Iterator Scan() const { return Iterator(this, first_page_); }

  /// The page ids of the heap chain in scan order (one buffer-pool fetch
  /// per page). ParallelScanOp slices this into per-thread partitions.
  Result<std::vector<uint32_t>> PageChain() const;

 private:
  /// Builds the tagged cell for `row`, writing overflow pages if needed.
  Result<std::string> MakeCell(const Row& row);
  /// Decodes a tagged cell into `*row` (following the overflow chain if
  /// needed).
  Status ReadCell(std::string_view cell, Row* row) const;
  /// ReadCell for a cell that lies in `*page`. An overflow row's marker is
  /// copied and `*page` released before its chain is read, so a reader
  /// never holds more than one page of the table.
  Status ReadPinnedCell(std::string_view cell, PageHandle* page,
                        Row* row) const;

  HeapTable(BufferPool* pool, Schema schema, uint32_t first_page)
      : pool_(pool),
        schema_(std::move(schema)),
        first_page_(first_page),
        last_page_(first_page) {}

  BufferPool* pool_;
  Schema schema_;
  uint32_t first_page_;
  uint32_t last_page_;
  uint64_t row_count_ = 0;
  uint64_t page_chain_length_ = 1;
  uint64_t data_bytes_ = 0;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_HEAP_TABLE_H_
