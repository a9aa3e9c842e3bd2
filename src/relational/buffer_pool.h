#ifndef OXML_RELATIONAL_BUFFER_POOL_H_
#define OXML_RELATIONAL_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/relational/page.h"

namespace oxml {

class WriteAheadLog;

/// Abstract page store underneath the buffer pool.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;
  /// Allocates a zeroed page, returning its id (ids are dense from 0).
  virtual Result<uint32_t> AllocatePage() = 0;
  virtual Status ReadPage(uint32_t id, char* buf) = 0;
  virtual Status WritePage(uint32_t id, const char* buf) = 0;
  /// Forces previously written pages to stable storage. A no-op for
  /// memory-resident backends.
  virtual Status Sync() { return Status::OK(); }
  virtual uint32_t page_count() const = 0;
};

/// Keeps every page in RAM (a main-memory database configuration). A
/// page's buffer is allocated by its first WritePage and reads as zeros
/// until then, so pages that live only in the buffer pool are not held
/// twice. Safe for concurrent ReadPage beside AllocatePage/WritePage: the
/// pool faults pages in outside its page-table latch.
class MemoryBackend : public StorageBackend {
 public:
  Result<uint32_t> AllocatePage() override;
  Status ReadPage(uint32_t id, char* buf) override;
  Status WritePage(uint32_t id, const char* buf) override;
  uint32_t page_count() const override;

 private:
  mutable std::shared_mutex mu_;  // guards `pages_` and every page's bytes
  std::vector<std::unique_ptr<char[]>> pages_;  // null: never written
};

/// Stores pages in a file via pread/pwrite (a disk-resident configuration).
/// All transfers retry on EINTR and loop on short reads/writes.
/// Shared counter for transient-I/O retries, surfaced as
/// ExecStats::io_retries. shared_ptr because the pool's backend (owned via
/// the BufferPool) can outlive the Database's ExecStats during teardown.
using IoRetryCounter = std::shared_ptr<std::atomic<uint64_t>>;

/// The bounded retry-with-backoff policy shared by every durable-I/O layer
/// (FileBackend for real EINTR/EAGAIN, FaultInjectingBackend and the WAL
/// for injected transient faults): up to kMaxAttempts tries with an
/// exponentially growing sleep in between.
struct IoRetryPolicy {
  static constexpr int kMaxAttempts = 6;
  /// Sleeps ~64us << attempt (capped at ~2ms). attempt is 0-based.
  static void Backoff(int attempt);
};

class FileBackend : public StorageBackend {
 public:
  /// Opens the file. With `truncate` (the default) any existing content is
  /// discarded; otherwise existing pages are preserved and the page count
  /// is derived from the file size (which must be page-aligned).
  static Result<std::unique_ptr<FileBackend>> Open(const std::string& path,
                                                   bool truncate = true);
  ~FileBackend() override;

  Result<uint32_t> AllocatePage() override;
  Status ReadPage(uint32_t id, char* buf) override;
  Status WritePage(uint32_t id, const char* buf) override;
  Status Sync() override;
  uint32_t page_count() const override { return page_count_; }

  /// Attaches the ExecStats retry counter (see IoRetryCounter). Optional;
  /// retries happen (and are merely uncounted) without it.
  void set_retry_counter(IoRetryCounter retries) {
    retries_ = std::move(retries);
  }

 private:
  FileBackend(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  /// Notes one transient-error retry and decides whether to keep going.
  bool NoteRetry(int* attempt);

  int fd_;
  std::string path_;
  uint32_t page_count_ = 0;
  IoRetryCounter retries_;
};

class BufferPool;

/// One page slot of a BufferPool. Frames are allocated once and reused in
/// place when CLOCK picks them as victims, so a frame's address and its
/// 8 KiB buffer stay valid for as long as anyone holds a pin on it.
struct BufferFrame {
  enum class State : uint8_t {
    kReady,    ///< `data` holds the page
    kLoading,  ///< a fetcher is reading the page outside the table latch
    kFailed,   ///< that read failed; `load_error` says why (frame unmapped)
  };

  std::unique_ptr<char[]> data;
  /// kInvalidPageId while the frame maps no page (never used, or its load
  /// failed). Written only under the exclusive table latch.
  uint32_t page_id = kInvalidPageId;
  /// Raised under the table latch (either mode); dropped with no latch by
  /// PageHandle::Release. A pinned frame is never a victim.
  std::atomic<int> pin_count{0};
  /// CLOCK reference bit: set on pin, cleared by the sweeping hand.
  std::atomic<bool> referenced{false};
  std::atomic<State> state{State::kReady};
  int load_waiters = 0;  // guarded by BufferPool::load_mu_
  Status load_error;     // guarded by BufferPool::load_mu_
  bool dirty = false;
  bool txn_dirty = false;  // dirtied by the open transaction
};

/// RAII pin on a buffered page. While a PageHandle is alive the frame will
/// not be evicted. Call MarkDirty() after mutating data().
///
/// A handle may instead be backed by an immutable published page *version*
/// (snapshot reads): it then owns a share of the version's buffer rather
/// than a pin, and MarkDirty is a no-op — version images are never written.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, BufferFrame* frame, uint32_t page_id);
  /// Version-backed handle: keeps `image` alive for the handle's lifetime.
  PageHandle(std::shared_ptr<char[]> image, uint32_t page_id);
  ~PageHandle();

  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return data_ != nullptr; }
  uint32_t page_id() const { return page_id_; }
  char* data() const { return data_; }
  void MarkDirty();

 private:
  /// Drops the pin straight on the frame: no latch, no page-table lookup.
  void Release();
  BufferPool* pool_ = nullptr;
  BufferFrame* frame_ = nullptr;  // null for version-backed handles
  uint32_t page_id_ = kInvalidPageId;
  char* data_ = nullptr;
  std::shared_ptr<char[]> owned_;  // set for version-backed handles
};

/// A pin-counted CLOCK buffer pool over a StorageBackend, with single-level
/// transaction support.
///
/// Transaction discipline (no-steal, redo-only WAL):
///  - While a transaction is open, every page it dirties is marked
///    `txn_dirty`, its pre-image is retained for rollback, and the frame is
///    exempt from eviction and FlushAll — uncommitted bytes never reach the
///    data file.
///  - CommitTxn appends the full image of every txn-dirty page to the WAL
///    (when one is attached) followed by a commit record; only then do the
///    frames become ordinary dirty frames, eligible for write-back.
///  - RollbackTxn restores the pre-images, leaving the pool byte-identical
///    to the last committed state.
/// BeginTxn must not be called while mutable page handles are outstanding:
/// pre-images are captured on the first fetch of a page inside the
/// transaction.
///
/// Threading (see docs/INTERNALS.md §9): any number of threads may fetch
/// and release pages concurrently. The page table is guarded by a
/// reader–writer latch whose shared mode covers the hit fast path (lookup
/// plus an atomic pin-count bump and reference bit). A miss takes it
/// exclusively only to pick a victim and map the page to a frame marked
/// *loading*; the backend read runs after the latch is dropped, and other
/// fetchers of that page pin the frame and wait for the load. NewPage,
/// eviction, FlushAll and the transaction entry points take the latch
/// exclusively. While a transaction is open the txn owner's fetches take
/// the exclusive path and read under it — undo capture mutates the
/// unsynchronized undo map, and the owner's parallel-scan workers call
/// FetchPage concurrently without holding the statement latch. Releasing a
/// pin takes no latch at all. Transactions and every other mutation are
/// additionally serialized by the Database-level statement latch.
///
/// MVCC snapshot reads (INTERNALS.md §11): every pre-image the undo log
/// captures is simultaneously *published* as an immutable page version
/// stamped with the commit LSN it belongs to (the newest committed LSN at
/// capture time — i.e. the state the open transaction started from). A
/// thread whose StatementContext carries a snapshot LSN (armed by the
/// Database layer for reader statements that overlap a foreign open
/// transaction, see statement_context.h) is served, for
/// txn-dirty frames, the newest published version with base LSN <= its
/// snapshot LSN instead of the frame's uncommitted bytes; clean resident
/// frames and backend faults already hold committed state and are served
/// directly. Version buffers are shared with the undo log (one copy per
/// page per transaction) and retired wholesale when the transaction
/// commits or rolls back — outstanding version-backed handles keep their
/// buffer alive independently via shared_ptr.
class BufferPool {
 public:
  /// `capacity` is the number of resident frames; 0 means unbounded
  /// (sensible with MemoryBackend). A transaction whose footprint exceeds
  /// the capacity grows the pool past it (no-steal forbids evicting its
  /// pages); the extra frames stay and are reused by later misses.
  BufferPool(std::unique_ptr<StorageBackend> backend, size_t capacity = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a fresh page and returns it pinned (contents zeroed).
  Result<PageHandle> NewPage();

  /// Returns the page pinned, faulting it in from the backend if needed.
  Result<PageHandle> FetchPage(uint32_t page_id);

  /// Writes back all dirty frames except those of an open transaction.
  Status FlushAll();

  /// fsyncs the backend (data file durability point of a checkpoint).
  Status SyncBackend() { return backend_->Sync(); }

  // ------------------------------------------------------------ transactions

  /// Attaches the WAL that CommitTxn writes redo records to (may be null:
  /// transactions then provide in-memory atomicity only).
  void SetWal(WriteAheadLog* wal) { wal_ = wal; }

  Status BeginTxn();
  /// Logs every txn-dirty page image + a commit record to the attached WAL
  /// and retires the transaction. On failure the transaction stays open so
  /// the caller can roll it back.
  Status CommitTxn();
  /// Restores the pre-images of every page the transaction dirtied.
  Status RollbackTxn();
  bool InTxn() const { return in_txn_; }
  /// Number of pages dirtied by the open transaction.
  size_t TxnDirtyCount() const { return txn_dirty_count_; }

  /// When set, the destructor discards dirty pages instead of flushing them
  /// (used to simulate a crash in tests).
  void set_discard_on_destroy(bool v) { discard_on_destroy_ = v; }

  // --------------------------------------------------------- MVCC snapshots

  /// Gates version publication and snapshot-serving FetchPage. On by
  /// default; Database::Open turns it off when DatabaseOptions::enable_mvcc
  /// is false (readers then rely on the exclusive statement latch alone).
  void set_mvcc_enabled(bool v) { mvcc_enabled_ = v; }
  bool mvcc_enabled() const { return mvcc_enabled_; }

  /// Reseeds the commit-LSN counter from WAL recovery, so LSNs assigned
  /// after a reopen stay monotone across the crash.
  void SeedCommitLsn(uint64_t lsn) {
    last_commit_lsn_.store(lsn, std::memory_order_release);
  }
  /// The LSN of the newest committed transaction — the snapshot a reader
  /// statement starting now should run under.
  uint64_t last_commit_lsn() const {
    return last_commit_lsn_.load(std::memory_order_acquire);
  }

  uint64_t snapshot_read_count() const {
    return snapshot_reads_.load(std::memory_order_relaxed);
  }
  /// Cumulative page versions published (one per page per transaction).
  uint64_t versions_published_count() const {
    return versions_published_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any single page's version-chain length. With one
  /// transaction open at a time this is 1 whenever MVCC is exercised.
  uint64_t version_chain_max() const {
    return version_chain_max_.load(std::memory_order_relaxed);
  }
  /// Versions currently retained for the open transaction (0 when idle).
  uint64_t versions_retained() const {
    std::lock_guard<std::mutex> lock(versions_mu_);
    uint64_t n = 0;
    for (const auto& [id, chain] : versions_) n += chain.size();
    return n;
  }

  uint32_t page_count() const {
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    return backend_->page_count();
  }
  /// Frames with a non-zero pin count. Between statements this is 0: an
  /// operator holds no pin between its Next() calls (INTERNALS.md §6).
  size_t pinned_frame_count() const;

  uint64_t hit_count() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Credits `n` FetchPage calls that a batch operation avoided by holding
  /// a pinned handle across rows (e.g. HeapTable::AppendBatch caching the
  /// tail page). Pure accounting; lets stats distinguish "cheap because
  /// cached" from "cheap because skipped".
  void NoteSavedFetches(uint64_t n) {
    saved_fetches_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t saved_fetch_count() const {
    return saved_fetches_.load(std::memory_order_relaxed);
  }

 private:
  friend class PageHandle;

  using Frame = BufferFrame;

  /// Rollback state for one page touched inside the open transaction. The
  /// pre-image buffer is shared with the published version chain (MVCC), so
  /// capture costs one copy regardless of how many readers snapshot it.
  struct TxnUndo {
    std::shared_ptr<char[]> before;  // null for pages born in this txn
    bool was_dirty = false;
    bool is_new = false;
  };

  /// One published committed image of a page. `base_lsn` is the commit LSN
  /// whose state the image belongs to; a reader with snapshot LSN S is
  /// served the newest version with base_lsn <= S.
  struct PageVersion {
    std::shared_ptr<char[]> image;
    uint64_t base_lsn = 0;
  };

  /// Sets the frame's dirty bits (PageHandle::MarkDirty); keeps the pin.
  void MarkDirty(Frame* f);
  /// Pins `f` and sets its reference bit. Caller holds `table_mu_`.
  void Pin(Frame* f);
  /// Blocks until `f` (pinned by the caller) leaves State::kLoading.
  /// Returns the load's error if it failed. Caller holds no latch.
  Status WaitLoaded(Frame* f);
  /// Publishes the outcome of an out-of-latch load and wakes its waiters.
  void FinishLoad(Frame* f, const Status& st);
  /// Serves `page_id` from the published version chains for a reader whose
  /// snapshot is `snap_lsn`. Caller holds `table_mu_` (either mode).
  Result<PageHandle> ServeVersion(uint32_t page_id, uint64_t snap_lsn);
  /// Drops all published versions (transaction end). Caller holds
  /// `table_mu_` exclusively.
  void RetireVersions();
  /// Returns an unmapped, unpinned frame for a new page: a fresh one below
  /// capacity, else the CLOCK victim (written back first if dirty). Grows
  /// past capacity when only txn-dirty frames are evictable; errors if all
  /// are pinned. Caller must hold `table_mu_` exclusively.
  Result<Frame*> AcquireFrame();
  /// Appends a new unmapped frame with its page buffer.
  Frame* AddFrame();
  /// Maps `page_id` to `f` (from AcquireFrame), pinned once. Caller holds
  /// `table_mu_` exclusively.
  void MapFrame(Frame* f, uint32_t page_id, BufferFrame::State state);
  /// Records the pre-image of `frame` if the open transaction has not
  /// touched this page yet.
  void CaptureUndo(uint32_t page_id, const Frame& frame);

  std::unique_ptr<StorageBackend> backend_;
  size_t capacity_;
  /// Guards `table_`, `frames_`, `hand_` and the frames' mapping and dirty
  /// bits: shared for the hit fast path, exclusive for victim selection,
  /// allocation, flush and the txn entry points.
  mutable std::shared_mutex table_mu_;
  std::unordered_map<uint32_t, Frame*> table_;  // resident page -> frame
  std::vector<std::unique_ptr<Frame>> frames_;  // every frame, never freed
  size_t hand_ = 0;                             // CLOCK hand into frames_
  /// Guards the frames' load_waiters/load_error and the wakeups of fetchers
  /// waiting out a load. Taken after `table_mu_` or with no latch held.
  std::mutex load_mu_;
  std::condition_variable load_cv_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> saved_fetches_{0};

  WriteAheadLog* wal_ = nullptr;
  bool in_txn_ = false;
  size_t txn_dirty_count_ = 0;
  std::unordered_map<uint32_t, TxnUndo> undo_;
  bool discard_on_destroy_ = false;

  // MVCC state. `versions_` is touched by snapshot readers under the shared
  // table latch, so it has its own mutex (always acquired after table_mu_,
  // never the other way around).
  bool mvcc_enabled_ = true;
  mutable std::mutex versions_mu_;
  std::unordered_map<uint32_t, std::vector<PageVersion>> versions_;
  std::atomic<uint64_t> last_commit_lsn_{0};
  std::atomic<uint64_t> snapshot_reads_{0};
  std::atomic<uint64_t> versions_published_{0};
  std::atomic<uint64_t> version_chain_max_{0};
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_BUFFER_POOL_H_
