#ifndef OXML_RELATIONAL_QUERY_CONTROL_H_
#define OXML_RELATIONAL_QUERY_CONTROL_H_

// Resource governance for statement execution: deadlines, cooperative
// cancellation, and memory budgets (see docs/INTERNALS.md §12).
//
// A QueryControl is the per-statement governance token. It travels in the
// thread's StatementContext (statement_context.h): the Database installs
// one for each top-level statement (nested statements on the same thread
// inherit it) and ThreadPool::ParallelFor carries it into every worker, so
// any code on the statement's path — operators, parallel shards, the shred
// pipeline, WAL replay — can poll `CheckCurrentControl()` without a
// parameter.
//
// Cancellation is cooperative: `Cancel()` flips an atomic flag and the
// statement aborts at its next check point. Checks are designed to be
// cheap enough for per-row call sites: a relaxed atomic load, with the
// deadline clock read only every `kDeadlineCheckStride` checks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/common/status.h"
#include "src/relational/statement_context.h"
#include "src/relational/value.h"

namespace oxml {

/// A byte quota shared by concurrent statements (the database-global cap).
/// cap == 0 means unlimited; `used` is advisory accounting either way.
struct MemoryBudget {
  uint64_t cap = 0;
  std::atomic<uint64_t> used{0};

  /// Reserves `bytes` against the cap. Returns false (and reserves
  /// nothing) if the cap would be exceeded.
  bool TryCharge(uint64_t bytes) {
    uint64_t now = used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (cap != 0 && now > cap) {
      used.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void Release(uint64_t bytes) {
    used.fetch_sub(bytes, std::memory_order_relaxed);
  }
};

/// Per-statement governance token: deadline + cancel flag + memory
/// accounting. Thread-safe: parallel workers of one statement share it.
class QueryControl {
 public:
  /// How many Check() calls share one reading of the deadline clock.
  static constexpr uint32_t kDeadlineCheckStride = 64;

  QueryControl() = default;
  ~QueryControl();

  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Identity used by Database::Cancel. 0 = not registered.
  void set_statement_id(uint64_t id) { statement_id_ = id; }
  uint64_t statement_id() const { return statement_id_; }

  /// Absolute deadline; statements past it fail with kDeadlineExceeded.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }

  /// Caps (0 = unlimited). `global` may be nullptr; it must outlive the
  /// control (the Database owns both).
  void SetMemoryLimits(uint64_t statement_cap_bytes, MemoryBudget* global) {
    statement_cap_ = statement_cap_bytes;
    global_budget_ = global;
  }

  /// Requests cancellation; safe from any thread. The statement aborts
  /// with kCancelled at its next check point.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The cooperative check point. kOk, or kCancelled / kDeadlineExceeded.
  /// Cheap: one relaxed load on the cancel-only path; the clock is read
  /// once per kDeadlineCheckStride calls (shared across threads).
  Status Check() {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("statement cancelled");
    }
    if (has_deadline_) {
      if (expired_.load(std::memory_order_relaxed)) return DeadlineError();
      if ((ticks_.fetch_add(1, std::memory_order_relaxed) %
           kDeadlineCheckStride) == 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        expired_.store(true, std::memory_order_relaxed);
        return DeadlineError();
      }
    }
    return Status::OK();
  }

  /// Reserves `bytes` against the per-statement cap and the global budget.
  /// On kResourceExhausted nothing stays charged for this call; all
  /// successful charges are released when the control is destroyed.
  Status ChargeMemory(uint64_t bytes);

  /// Returns part of the statement's reservation early (optional — the
  /// destructor releases whatever remains).
  void ReleaseMemory(uint64_t bytes);

  uint64_t memory_used() const {
    return statement_used_.load(std::memory_order_relaxed);
  }

 private:
  static Status DeadlineError() {
    return Status::DeadlineExceeded("statement deadline exceeded");
  }

  uint64_t statement_id_ = 0;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> expired_{false};
  std::atomic<uint32_t> ticks_{0};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  uint64_t statement_cap_ = 0;
  std::atomic<uint64_t> statement_used_{0};
  MemoryBudget* global_budget_ = nullptr;
};

/// kOk when no control is installed; otherwise the control's Check().
/// The per-row check point used throughout the executor.
inline Status CheckCurrentControl() {
  QueryControl* ctl = CurrentStatementContext().control;
  if (ctl == nullptr) return Status::OK();
  return ctl->Check();
}

/// Cheap per-row size estimate used for budget charging (same scale as the
/// shred pipeline's run sealing: fixed overhead per value + string bytes).
uint64_t EstimateRowBytes(const Row& row);

/// Accumulates row-size estimates locally and charges the current control
/// in batches, so per-row charging costs one add on the hot path. Create
/// one per materializing loop; nothing to flush at the end — any
/// remainder below the batch size is simply never charged (the estimate
/// is approximate anyway).
class BudgetCharger {
 public:
  static constexpr uint64_t kBatchBytes = 32 * 1024;

  BudgetCharger() : ctl_(CurrentStatementContext().control) {}
  explicit BudgetCharger(QueryControl* ctl) : ctl_(ctl) {}

  Status AddRow(const Row& row) {
    if (ctl_ == nullptr) return Status::OK();
    return Add(EstimateRowBytes(row));
  }

  Status Add(uint64_t bytes) {
    if (ctl_ == nullptr) return Status::OK();
    pending_ += bytes;
    if (pending_ < kBatchBytes) return Status::OK();
    uint64_t charge = pending_;
    pending_ = 0;
    return ctl_->ChargeMemory(charge);
  }

 private:
  QueryControl* ctl_;
  uint64_t pending_ = 0;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_QUERY_CONTROL_H_
