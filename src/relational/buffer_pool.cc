#include "src/relational/buffer_pool.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/relational/statement_context.h"
#include "src/relational/wal.h"

namespace oxml {

// ---------------------------------------------------------------- backends

void IoRetryPolicy::Backoff(int attempt) {
  int64_t us = 64LL << (attempt < 5 ? attempt : 5);  // 64us .. 2ms
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

bool FileBackend::NoteRetry(int* attempt) {
  if (retries_ != nullptr) retries_->fetch_add(1, std::memory_order_relaxed);
  if (*attempt + 1 >= IoRetryPolicy::kMaxAttempts) return false;
  IoRetryPolicy::Backoff(*attempt);
  ++*attempt;
  return true;
}

Result<uint32_t> MemoryBackend::AllocatePage() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.emplace_back();  // zero until first written
  return static_cast<uint32_t>(pages_.size() - 1);
}

Status MemoryBackend::ReadPage(uint32_t id, char* buf) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) return Status::OutOfRange("bad page id");
  if (pages_[id] == nullptr) {
    std::memset(buf, 0, kPageSize);
  } else {
    std::memcpy(buf, pages_[id].get(), kPageSize);
  }
  return Status::OK();
}

Status MemoryBackend::WritePage(uint32_t id, const char* buf) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) return Status::OutOfRange("bad page id");
  if (pages_[id] == nullptr) {
    pages_[id] = std::unique_ptr<char[]>(new char[kPageSize]);
  }
  std::memcpy(pages_[id].get(), buf, kPageSize);
  return Status::OK();
}

uint32_t MemoryBackend::page_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<uint32_t>(pages_.size());
}

Result<std::unique_ptr<FileBackend>> FileBackend::Open(
    const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  auto backend = std::unique_ptr<FileBackend>(new FileBackend(fd, path));
  if (!truncate) {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
      return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
    }
    if (size % static_cast<off_t>(kPageSize) != 0) {
      return Status::IOError(path + " is not page-aligned (corrupt?)");
    }
    backend->page_count_ = static_cast<uint32_t>(size / kPageSize);
  }
  return backend;
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint32_t> FileBackend::AllocatePage() {
  uint32_t id = page_count_;
  char zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  OXML_RETURN_NOT_OK(WritePage(id, zeros));
  ++page_count_;
  return id;
}

Status FileBackend::ReadPage(uint32_t id, char* buf) {
  size_t done = 0;
  int attempt = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, buf + done, kPageSize - done,
                        static_cast<off_t>(id) * kPageSize +
                            static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN && NoteRetry(&attempt)) continue;
      return Status::IOError("pread(" + path_ + ", page " +
                             std::to_string(id) +
                             "): " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("pread(" + path_ + ", page " +
                             std::to_string(id) + "): unexpected EOF at byte " +
                             std::to_string(done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBackend::WritePage(uint32_t id, const char* buf) {
  size_t done = 0;
  int attempt = 0;
  while (done < kPageSize) {
    ssize_t n = ::pwrite(fd_, buf + done, kPageSize - done,
                         static_cast<off_t>(id) * kPageSize +
                             static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN && NoteRetry(&attempt)) continue;
      return Status::IOError("pwrite(" + path_ + ", page " +
                             std::to_string(id) +
                             "): " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FileBackend::Sync() {
  int attempt = 0;
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    if (errno == EAGAIN && NoteRetry(&attempt)) continue;
    return Status::IOError("fsync(" + path_ + "): " + std::strerror(errno));
  }
  return Status::OK();
}

// ------------------------------------------------------------- page handle

PageHandle::PageHandle(BufferPool* pool, BufferFrame* frame,
                       uint32_t page_id)
    : pool_(pool), frame_(frame), page_id_(page_id), data_(frame->data.get()) {}

PageHandle::PageHandle(std::shared_ptr<char[]> image, uint32_t page_id)
    : page_id_(page_id), data_(image.get()), owned_(std::move(image)) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_),
      frame_(other.frame_),
      page_id_(other.page_id_),
      data_(other.data_),
      owned_(std::move(other.owned_)) {
  other.pool_ = nullptr;
  other.frame_ = nullptr;
  other.data_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    owned_ = std::move(other.owned_);
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  if (frame_ != nullptr) pool_->MarkDirty(frame_);
}

void PageHandle::Release() {
  if (frame_ != nullptr) {
    // Release order: this thread's reads and writes of the page happen
    // before a victim sweep that sees the count reach 0 and reuses the
    // buffer. The frame object itself is never freed while the pool lives.
    frame_->pin_count.fetch_sub(1, std::memory_order_release);
    frame_ = nullptr;
    pool_ = nullptr;
  }
}

// ------------------------------------------------------------- buffer pool

BufferPool::BufferPool(std::unique_ptr<StorageBackend> backend,
                       size_t capacity)
    : backend_(std::move(backend)), capacity_(capacity) {}

BufferPool::~BufferPool() {
  if (!discard_on_destroy_) (void)FlushAll();
}

void BufferPool::Pin(Frame* f) {
  f->pin_count.fetch_add(1, std::memory_order_relaxed);
  // Unbounded pools never evict, so they skip the reference bit; bounded
  // ones write it only when it flips, keeping hits on a hot page from
  // storing to the same cache line over and over.
  if (capacity_ != 0 && !f->referenced.load(std::memory_order_relaxed)) {
    f->referenced.store(true, std::memory_order_relaxed);
  }
}

BufferPool::Frame* BufferPool::AddFrame() {
  frames_.push_back(std::make_unique<Frame>());
  Frame* f = frames_.back().get();
  f->data = std::unique_ptr<char[]>(new char[kPageSize]);
  return f;
}

Result<BufferPool::Frame*> BufferPool::AcquireFrame() {
  if (capacity_ == 0 || frames_.size() < capacity_) {
    return AddFrame();
  }
  // CLOCK: the hand passes over every frame at most twice. A referenced
  // frame loses its bit and gets a second chance; the first unreferenced,
  // unpinned frame is the victim. Frames dirtied by the open transaction
  // are not eligible (no-steal): writing them back would put uncommitted
  // bytes in the data file. Loading frames are pinned by their loader. The
  // exclusive table latch held by the caller keeps every fetcher out of the
  // page table, so pin counts cannot rise underneath the sweep; they may
  // only fall.
  bool saw_txn_dirty = false;
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame* f = frames_[hand_].get();
    hand_ = hand_ + 1 == n ? 0 : hand_ + 1;
    if (f->pin_count.load(std::memory_order_acquire) > 0) continue;
    if (f->txn_dirty) {
      saw_txn_dirty = true;
      continue;
    }
    if (f->referenced.load(std::memory_order_relaxed)) {
      f->referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    if (f->page_id != kInvalidPageId) {
      if (f->dirty) {
        OXML_RETURN_NOT_OK(backend_->WritePage(f->page_id, f->data.get()));
        f->dirty = false;
      }
      table_.erase(f->page_id);
      f->page_id = kInvalidPageId;
    }
    return f;
  }
  if (saw_txn_dirty) {
    // Every evictable frame belongs to the open transaction; grow the pool
    // past its capacity rather than steal.
    return AddFrame();
  }
  return Status::Internal("buffer pool exhausted: all frames pinned");
}

void BufferPool::MapFrame(Frame* f, uint32_t page_id,
                          BufferFrame::State state) {
  f->page_id = page_id;
  f->dirty = false;
  f->txn_dirty = false;
  f->state.store(state, std::memory_order_relaxed);
  f->pin_count.store(1, std::memory_order_relaxed);
  f->referenced.store(capacity_ != 0, std::memory_order_relaxed);
  table_.emplace(page_id, f);
}

Status BufferPool::WaitLoaded(Frame* f) {
  if (f->state.load(std::memory_order_acquire) == BufferFrame::State::kReady) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(load_mu_);
  ++f->load_waiters;
  load_cv_.wait(lock, [f] {
    return f->state.load(std::memory_order_acquire) !=
           BufferFrame::State::kLoading;
  });
  --f->load_waiters;
  if (f->state.load(std::memory_order_relaxed) ==
      BufferFrame::State::kFailed) {
    return f->load_error;
  }
  return Status::OK();
}

void BufferPool::FinishLoad(Frame* f, const Status& st) {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (!st.ok()) f->load_error = st;
  // Release order: the page bytes the loader just read are visible to a
  // fetcher that sees kReady, on the hit path or in WaitLoaded.
  f->state.store(st.ok() ? BufferFrame::State::kReady
                         : BufferFrame::State::kFailed,
                 std::memory_order_release);
  if (f->load_waiters > 0) load_cv_.notify_all();
}

void BufferPool::CaptureUndo(uint32_t page_id, const Frame& frame) {
  if (!in_txn_ || undo_.count(page_id) > 0) return;
  TxnUndo u;
  u.before = std::shared_ptr<char[]>(new char[kPageSize]);
  std::memcpy(u.before.get(), frame.data.get(), kPageSize);
  u.was_dirty = frame.dirty;
  if (mvcc_enabled_) {
    // Publish the pre-image as a committed page version, sharing the undo
    // buffer. Its base LSN is the newest committed LSN — the state this
    // transaction started from, which is also <= the snapshot LSN of every
    // reader statement that can overlap it (commits are serialized, so the
    // counter cannot advance while this transaction is open).
    std::lock_guard<std::mutex> vlock(versions_mu_);
    auto& chain = versions_[page_id];
    chain.push_back(
        {u.before, last_commit_lsn_.load(std::memory_order_relaxed)});
    versions_published_.fetch_add(1, std::memory_order_relaxed);
    uint64_t len = chain.size();
    uint64_t prev = version_chain_max_.load(std::memory_order_relaxed);
    while (prev < len && !version_chain_max_.compare_exchange_weak(
                             prev, len, std::memory_order_relaxed)) {
    }
  }
  undo_.emplace(page_id, std::move(u));
}

Result<PageHandle> BufferPool::ServeVersion(uint32_t page_id,
                                            uint64_t snap_lsn) {
  std::shared_ptr<char[]> image;
  {
    std::lock_guard<std::mutex> vlock(versions_mu_);
    auto it = versions_.find(page_id);
    if (it != versions_.end()) {
      // Newest version not newer than the snapshot. Chains are in
      // publication (= LSN) order, so scan from the back.
      for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
        if (rit->base_lsn <= snap_lsn) {
          image = rit->image;
          break;
        }
      }
    }
  }
  if (image == nullptr) {
    // Unreachable for pages the committed state references: every txn-dirty
    // frame with committed history has a published pre-image whose base LSN
    // is the snapshot every overlapping reader holds. Only a page born
    // inside the open transaction lacks one, and committed structures never
    // point at it — surfacing an error beats serving uncommitted bytes.
    return Status::Internal("page " + std::to_string(page_id) +
                            " has no version visible at snapshot LSN " +
                            std::to_string(snap_lsn));
  }
  snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
  return PageHandle(std::move(image), page_id);
}

Result<PageHandle> BufferPool::NewPage() {
  // Exclusive: allocation mutates both the backend and the page table.
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  OXML_ASSIGN_OR_RETURN(uint32_t id, backend_->AllocatePage());
  OXML_ASSIGN_OR_RETURN(Frame* frame, AcquireFrame());
  std::memset(frame->data.get(), 0, kPageSize);
  MapFrame(frame, id, BufferFrame::State::kReady);
  frame->dirty = true;  // a fresh page must eventually reach the backend
  if (in_txn_) {
    frame->txn_dirty = true;
    ++txn_dirty_count_;
    TxnUndo u;
    u.is_new = true;  // rollback zeroes the page instead of restoring
    undo_.emplace(id, std::move(u));
  }
  return PageHandle(this, frame, id);
}

size_t BufferPool::pinned_frame_count() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  size_t n = 0;
  for (const auto& frame : frames_) {
    if (frame->pin_count.load(std::memory_order_relaxed) > 0) ++n;
  }
  return n;
}

Result<PageHandle> BufferPool::FetchPage(uint32_t page_id) {
  const std::optional<uint64_t>& lsn = CurrentStatementContext().snapshot_lsn;
  const uint64_t* snap = mvcc_enabled_ && lsn.has_value() ? &*lsn : nullptr;
  {
    // Fast path: a resident page is pinned under the shared latch, so any
    // number of readers fault-free pages in parallel. Frames are never
    // freed and eviction only reuses unpinned frames under the exclusive
    // latch, so the returned data pointer stays valid for the life of the
    // pin. A frame still loading is pinned here and waited for outside the
    // latch.
    //
    // Disabled for the owner of an open transaction: undo capture mutates
    // the unsynchronized undo_ map, and the txn owner's own parallel-scan
    // workers (which never take the statement latch) reach here
    // concurrently, so every transactional fetch must serialize through
    // the exclusive path below. in_txn_ only flips under the exclusive
    // table latch, making this shared-latched read race-free.
    //
    // Snapshot readers (snapshot set; only foreign threads carry one
    // while a transaction is open) stay on the shared path: a resident
    // frame the transaction has NOT dirtied still holds committed bytes —
    // the statement latch keeps writer statements out while reader
    // statements run, so txn_dirty cannot flip underneath us — and a
    // txn-dirty frame is served from the published version chain instead.
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    if (!in_txn_ || snap != nullptr) {
      auto it = table_.find(page_id);
      if (it != table_.end()) {
        Frame* f = it->second;
        if (in_txn_ && f->txn_dirty) return ServeVersion(page_id, *snap);
        hits_.fetch_add(1, std::memory_order_relaxed);
        Pin(f);
        lock.unlock();
        PageHandle handle(this, f, page_id);
        OXML_RETURN_NOT_OK(WaitLoaded(f));
        return handle;
      }
      // Non-resident. While a transaction is open, no-steal keeps its
      // txn-dirty frames resident, so the backend copy is committed state:
      // a snapshot reader faults it in below without capturing undo, which
      // belongs to the transaction owner alone.
    }
  }
  for (;;) {
    std::unique_lock<std::shared_mutex> lock(table_mu_);
    const bool txn_owner = in_txn_ && snap == nullptr;
    // Another thread may have mapped the page while we upgraded.
    auto it = table_.find(page_id);
    if (it != table_.end()) {
      Frame* f = it->second;
      if (snap != nullptr && in_txn_ && f->txn_dirty) {
        return ServeVersion(page_id, *snap);
      }
      Pin(f);
      PageHandle handle(this, f, page_id);
      if (f->state.load(std::memory_order_acquire) ==
          BufferFrame::State::kLoading) {
        // Wait without the latch: a failed load retakes it to unmap the
        // frame. The transaction owner then looks again, so undo capture
        // sees the loaded bytes under the latch.
        lock.unlock();
        OXML_RETURN_NOT_OK(WaitLoaded(f));
        if (txn_owner) continue;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return handle;
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (snap == nullptr) CaptureUndo(page_id, *f);
      return handle;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    OXML_ASSIGN_OR_RETURN(Frame* f, AcquireFrame());
    if (txn_owner) {
      // The owner reads under the latch, as undo capture requires.
      Status st = backend_->ReadPage(page_id, f->data.get());
      if (!st.ok()) return st;  // `f` stays unmapped, free for reuse
      MapFrame(f, page_id, BufferFrame::State::kReady);
      CaptureUndo(page_id, *f);
      return PageHandle(this, f, page_id);
    }
    // Map the frame pinned and loading, then read with no latch held:
    // hits on other pages, and other misses, proceed meanwhile.
    MapFrame(f, page_id, BufferFrame::State::kLoading);
    lock.unlock();
    PageHandle handle(this, f, page_id);
    Status st = backend_->ReadPage(page_id, f->data.get());
    if (!st.ok()) {
      // Unmap first so the next fetch of this page misses and retries;
      // the frame is reused once this handle and every waiter's unpin.
      std::lock_guard<std::shared_mutex> relock(table_mu_);
      table_.erase(page_id);
      f->page_id = kInvalidPageId;
    }
    FinishLoad(f, st);
    OXML_RETURN_NOT_OK(st);
    return handle;
  }
}

void BufferPool::MarkDirty(Frame* f) {
  // Only writers mark pages dirty, and the statement latch serializes them
  // against every reader, so these plain fields race with nothing; the
  // shared table latch orders them against victim sweeps and flushes.
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  f->dirty = true;
  if (in_txn_ && !f->txn_dirty) {
    f->txn_dirty = true;
    ++txn_dirty_count_;
  }
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  for (auto& frame : frames_) {
    if (frame->dirty && !frame->txn_dirty) {
      OXML_RETURN_NOT_OK(
          backend_->WritePage(frame->page_id, frame->data.get()));
      frame->dirty = false;
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ transactions

Status BufferPool::BeginTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (in_txn_) {
    return Status::InvalidArgument("a transaction is already open");
  }
  in_txn_ = true;
  txn_dirty_count_ = 0;
  undo_.clear();
  return Status::OK();
}

Status BufferPool::CommitTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (!in_txn_) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (txn_dirty_count_ == 0) {
    // Read-only transaction: nothing to log, nothing to make durable, and
    // the commit LSN does not advance (the committed state is unchanged).
    in_txn_ = false;
    undo_.clear();
    RetireVersions();
    return Status::OK();
  }
  // The LSN this commit installs. Commits are serialized by the statement
  // latch, so a simple increment of the newest committed LSN is monotone;
  // it is only published after the commit record succeeds, so a failed
  // commit leaves the snapshot clock untouched.
  uint64_t commit_lsn = last_commit_lsn_.load(std::memory_order_relaxed) + 1;
  if (wal_ != nullptr) {
    // Log images in page order so replay and crash tests are deterministic.
    std::vector<const Frame*> dirty;
    dirty.reserve(txn_dirty_count_);
    for (const auto& frame : frames_) {
      if (frame->txn_dirty) dirty.push_back(frame.get());
    }
    std::sort(dirty.begin(), dirty.end(), [](const Frame* a, const Frame* b) {
      return a->page_id < b->page_id;
    });
    for (const Frame* f : dirty) {
      OXML_RETURN_NOT_OK(wal_->AppendPageImage(f->page_id, f->data.get()));
    }
    // The commit record makes the transaction real. On failure the txn is
    // left open so the caller can roll back — recovery will ignore the
    // orphaned images above.
    OXML_RETURN_NOT_OK(wal_->Commit(commit_lsn));
  }
  for (auto& frame : frames_) frame->txn_dirty = false;
  last_commit_lsn_.store(commit_lsn, std::memory_order_release);
  in_txn_ = false;
  txn_dirty_count_ = 0;
  undo_.clear();
  RetireVersions();
  return Status::OK();
}

void BufferPool::RetireVersions() {
  // Drop the transaction's published versions. Safe without waiting for
  // readers: commit/rollback run under the exclusive statement latch, so no
  // reader statement is in flight, and any version-backed handle that
  // somehow outlives its statement keeps its buffer alive via shared_ptr.
  std::lock_guard<std::mutex> vlock(versions_mu_);
  versions_.clear();
}

Status BufferPool::RollbackTxn() {
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  if (!in_txn_) {
    return Status::InvalidArgument("no transaction is open");
  }
  for (auto& [id, u] : undo_) {
    auto it = table_.find(id);
    if (it == table_.end()) {
      // An undo-tracked clean frame may have been evicted (it was read, not
      // written, inside the txn — the backend still holds its last committed
      // image). Nothing to restore.
      continue;
    }
    Frame& f = *it->second;
    if (u.is_new) {
      // The page did not exist before the transaction. The backend already
      // allocated it (zeroed); zero the frame and mark it clean so nothing
      // is written back. The page id is leaked until reuse, never exposed.
      std::memset(f.data.get(), 0, kPageSize);
      f.dirty = false;
      f.txn_dirty = false;
      continue;
    }
    std::memcpy(f.data.get(), u.before.get(), kPageSize);
    f.dirty = u.was_dirty;
    f.txn_dirty = false;
  }
  in_txn_ = false;
  txn_dirty_count_ = 0;
  undo_.clear();
  RetireVersions();
  return Status::OK();
}

}  // namespace oxml
