#include "src/relational/heap_table.h"

#include <cstring>

namespace oxml {

namespace {

constexpr char kInlineTag = '\0';
constexpr char kOverflowTag = '\x01';

// Overflow page layout: [u32 next_page][u32 chunk_len][chunk bytes...].
constexpr size_t kOverflowHeader = 8;
constexpr size_t kOverflowCapacity = kPageSize - kOverflowHeader;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

/// Logical row size recorded in a tagged cell (for byte accounting).
uint64_t LogicalSize(std::string_view cell) {
  if (cell.empty()) return 0;
  if (cell[0] == kInlineTag) return cell.size() - 1;
  return LoadU32(cell.data() + 5);  // total_len field of the marker
}

}  // namespace

Result<std::unique_ptr<HeapTable>> HeapTable::Create(BufferPool* pool,
                                                     Schema schema) {
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool->NewPage());
  SlottedPage::Initialize(page.data());
  page.MarkDirty();
  return std::unique_ptr<HeapTable>(
      new HeapTable(pool, std::move(schema), page.page_id()));
}

std::unique_ptr<HeapTable> HeapTable::Attach(BufferPool* pool, Schema schema,
                                             uint32_t first_page,
                                             uint32_t last_page,
                                             uint64_t row_count,
                                             uint64_t page_chain_length,
                                             uint64_t data_bytes) {
  auto heap = std::unique_ptr<HeapTable>(
      new HeapTable(pool, std::move(schema), first_page));
  heap->last_page_ = last_page;
  heap->row_count_ = row_count;
  heap->page_chain_length_ = page_chain_length;
  heap->data_bytes_ = data_bytes;
  return heap;
}

Result<std::string> HeapTable::MakeCell(const Row& row) {
  std::string encoded = EncodeRow(schema_, row);
  if (encoded.size() <= kMaxInlineCell) {
    std::string cell;
    cell.reserve(encoded.size() + 1);
    cell.push_back(kInlineTag);
    cell.append(encoded);
    return cell;
  }
  // Spill into an overflow chain.
  uint32_t first_page = kInvalidPageId;
  uint32_t prev_page = kInvalidPageId;
  size_t offset = 0;
  while (offset < encoded.size()) {
    size_t chunk = std::min(kOverflowCapacity, encoded.size() - offset);
    OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->NewPage());
    StoreU32(page.data(), kInvalidPageId);
    StoreU32(page.data() + 4, static_cast<uint32_t>(chunk));
    std::memcpy(page.data() + kOverflowHeader, encoded.data() + offset,
                chunk);
    page.MarkDirty();
    if (first_page == kInvalidPageId) {
      first_page = page.page_id();
    } else {
      OXML_ASSIGN_OR_RETURN(PageHandle prev, pool_->FetchPage(prev_page));
      StoreU32(prev.data(), page.page_id());
      prev.MarkDirty();
    }
    prev_page = page.page_id();
    offset += chunk;
  }
  std::string marker(9, '\0');
  marker[0] = kOverflowTag;
  StoreU32(marker.data() + 1, first_page);
  StoreU32(marker.data() + 5, static_cast<uint32_t>(encoded.size()));
  return marker;
}

Status HeapTable::ReadCell(std::string_view cell, Row* row) const {
  if (cell.empty()) return Status::Internal("empty heap cell");
  if (cell[0] == kInlineTag) {
    return DecodeRow(schema_, cell.substr(1), row);
  }
  if (cell[0] != kOverflowTag || cell.size() != 9) {
    return Status::Internal("corrupt heap cell tag");
  }
  uint32_t page_id = LoadU32(cell.data() + 1);
  uint32_t total = LoadU32(cell.data() + 5);
  std::string encoded;
  encoded.reserve(total);
  while (page_id != kInvalidPageId && encoded.size() < total) {
    OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
    uint32_t next = LoadU32(page.data());
    uint32_t chunk = LoadU32(page.data() + 4);
    if (chunk > kOverflowCapacity) {
      return Status::Internal("corrupt overflow chunk length");
    }
    encoded.append(page.data() + kOverflowHeader, chunk);
    page_id = next;
  }
  if (encoded.size() != total) {
    return Status::Internal("truncated overflow chain");
  }
  return DecodeRow(schema_, encoded, row);
}

Result<Rid> HeapTable::Insert(const Row& row) {
  OXML_ASSIGN_OR_RETURN(std::string cell, MakeCell(row));
  uint64_t logical = LogicalSize(cell);
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(last_page_));
  SlottedPage sp(page.data());
  Result<uint16_t> slot = sp.Insert(cell);
  if (!slot.ok()) {
    if (!slot.status().IsOutOfRange()) return slot.status();
    // Tail page is full: extend the chain.
    OXML_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
    SlottedPage::Initialize(fresh.data());
    sp.set_next_page(fresh.page_id());
    page.MarkDirty();
    last_page_ = fresh.page_id();
    ++page_chain_length_;
    SlottedPage fresh_sp(fresh.data());
    OXML_ASSIGN_OR_RETURN(uint16_t s, fresh_sp.Insert(cell));
    fresh.MarkDirty();
    ++row_count_;
    data_bytes_ += logical;
    return Rid{fresh.page_id(), s};
  }
  page.MarkDirty();
  ++row_count_;
  data_bytes_ += logical;
  return Rid{page.page_id(), *slot};
}

Status HeapTable::AppendBatch(const std::vector<Row>& rows,
                              std::vector<Rid>* rids) {
  rids->clear();
  if (rows.empty()) return Status::OK();
  rids->reserve(rows.size());
  // One tail fetch for the whole batch; per-row Insert would fetch it once
  // per row. MakeCell may itself fetch/allocate overflow pages while the
  // tail stays pinned, which is safe (pins only exempt frames from
  // eviction).
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(last_page_));
  for (const Row& row : rows) {
    OXML_ASSIGN_OR_RETURN(std::string cell, MakeCell(row));
    SlottedPage sp(page.data());
    Result<uint16_t> slot = sp.Insert(cell);
    if (!slot.ok()) {
      if (!slot.status().IsOutOfRange()) return slot.status();
      // Tail page is full: extend the chain and keep the fresh page as the
      // cached tail.
      OXML_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
      SlottedPage::Initialize(fresh.data());
      sp.set_next_page(fresh.page_id());
      page.MarkDirty();
      last_page_ = fresh.page_id();
      ++page_chain_length_;
      page = std::move(fresh);
      slot = SlottedPage(page.data()).Insert(cell);
      if (!slot.ok()) return slot.status();
    }
    page.MarkDirty();
    ++row_count_;
    data_bytes_ += LogicalSize(cell);
    rids->push_back(Rid{page.page_id(), *slot});
  }
  pool_->NoteSavedFetches(rows.size() - 1);
  return Status::OK();
}

Result<Row> HeapTable::Get(const Rid& rid) const {
  Row row;
  OXML_RETURN_NOT_OK(Get(rid, &row));
  return row;
}

Status HeapTable::Get(const Rid& rid, Row* row) const {
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(rid.page_id));
  OXML_ASSIGN_OR_RETURN(std::string_view cell,
                        SlottedPage(page.data()).Get(rid.slot));
  return ReadPinnedCell(cell, &page, row);
}

Status HeapTable::ReadPinnedCell(std::string_view cell, PageHandle* page,
                                 Row* row) const {
  if (cell.empty() || cell[0] != kOverflowTag) return ReadCell(cell, row);
  // An overflow row: drop the heap page before walking the chain, so a
  // reader holds at most one page of a table at any time.
  std::string marker(cell);
  *page = PageHandle();
  return ReadCell(marker, row);
}

Status HeapTable::Delete(const Rid& rid) {
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(rid.page_id));
  SlottedPage sp(page.data());
  OXML_ASSIGN_OR_RETURN(std::string_view cell, sp.Get(rid.slot));
  data_bytes_ -= LogicalSize(cell);
  // Overflow pages of the row are orphaned (no free-space map).
  OXML_RETURN_NOT_OK(sp.Delete(rid.slot));
  page.MarkDirty();
  --row_count_;
  return Status::OK();
}

Result<Rid> HeapTable::Update(const Rid& rid, const Row& row) {
  OXML_ASSIGN_OR_RETURN(std::string cell, MakeCell(row));
  uint64_t logical = LogicalSize(cell);
  {
    OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(rid.page_id));
    SlottedPage sp(page.data());
    OXML_ASSIGN_OR_RETURN(std::string_view old_cell, sp.Get(rid.slot));
    uint64_t old_logical = LogicalSize(old_cell);
    Status st = sp.Update(rid.slot, cell);
    if (st.ok()) {
      page.MarkDirty();
      data_bytes_ += logical;
      data_bytes_ -= old_logical;
      return rid;
    }
    if (!st.IsOutOfRange()) return st;
    // The page could not host the larger row; SlottedPage::Update already
    // freed the old cell, so finish the move with a fresh insert.
    page.MarkDirty();
    data_bytes_ -= old_logical;
    --row_count_;
  }
  // Re-insert the prepared cell via the tail-page path.
  // (MakeCell already wrote any overflow chain; reuse Insert's slotting by
  // inlining its logic over the ready-made cell.)
  OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(last_page_));
  SlottedPage sp(page.data());
  Result<uint16_t> slot = sp.Insert(cell);
  if (!slot.ok()) {
    if (!slot.status().IsOutOfRange()) return slot.status();
    OXML_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
    SlottedPage::Initialize(fresh.data());
    sp.set_next_page(fresh.page_id());
    page.MarkDirty();
    last_page_ = fresh.page_id();
    ++page_chain_length_;
    SlottedPage fresh_sp(fresh.data());
    OXML_ASSIGN_OR_RETURN(uint16_t s, fresh_sp.Insert(cell));
    fresh.MarkDirty();
    ++row_count_;
    data_bytes_ += logical;
    return Rid{fresh.page_id(), s};
  }
  page.MarkDirty();
  ++row_count_;
  data_bytes_ += logical;
  return Rid{page.page_id(), *slot};
}

HeapTable::Iterator::Iterator(const HeapTable* table, uint32_t page_id)
    : table_(table), page_id_(page_id) {}

HeapTable::Iterator::Iterator(const HeapTable* table, uint32_t page_id,
                              uint64_t max_pages)
    : table_(table), page_id_(page_id), pages_left_(max_pages) {
  if (max_pages == 0) page_id_ = kInvalidPageId;
}

Result<std::vector<uint32_t>> HeapTable::PageChain() const {
  std::vector<uint32_t> chain;
  chain.reserve(page_chain_length_);
  uint32_t id = first_page_;
  while (id != kInvalidPageId) {
    chain.push_back(id);
    OXML_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(id));
    id = SlottedPage(page.data()).next_page();
  }
  return chain;
}

Result<bool> HeapTable::Iterator::Next(Rid* rid, Row* row) {
  while (page_id_ != kInvalidPageId) {
    OXML_ASSIGN_OR_RETURN(PageHandle page, table_->pool_->FetchPage(page_id_));
    SlottedPage sp(page.data());
    while (next_slot_ < sp.slot_count()) {
      uint16_t slot = next_slot_++;
      Result<std::string_view> cell = sp.Get(slot);
      if (!cell.ok()) continue;  // deleted slot
      *rid = Rid{page_id_, slot};
      OXML_RETURN_NOT_OK(table_->ReadPinnedCell(*cell, &page, row));
      return true;
    }
    page_id_ = (--pages_left_ == 0) ? kInvalidPageId : sp.next_page();
    next_slot_ = 0;
  }
  return false;
}

}  // namespace oxml
