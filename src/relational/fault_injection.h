#ifndef OXML_RELATIONAL_FAULT_INJECTION_H_
#define OXML_RELATIONAL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/relational/buffer_pool.h"

namespace oxml {

/// A shared fault schedule consulted by every durable I/O operation — data
/// file page reads/writes/syncs (via FaultInjectingBackend) and WAL
/// appends/syncs/resets (WriteAheadLog takes the plan directly). The crash
/// tests arm the plan to fire at the Nth counted I/O; once a crash-class
/// fault fires, every subsequent operation fails with a "simulated crash"
/// IOError, modelling a killed process whose files can no longer change.
/// Not latched: durable writes only happen under the database's exclusive
/// statement latch (writers and transactions serialize; concurrent readers
/// never write pages or the WAL), so the counters here see one thread at a
/// time. Page *reads* run concurrently — the buffer pool faults pages in
/// outside its table latch — so the `crashed` flag they consult is atomic.
/// Crash tests additionally run single-threaded by construction.
struct FaultPlan {
  enum class Mode : uint8_t {
    kNone = 0,    ///< count I/Os but never fire
    kCrash,       ///< the Nth I/O does not happen; everything after fails
    kTornPage,    ///< the Nth write persists only its first half, then crash
    kEIO,         ///< the Nth I/O fails with EIO once; later I/Os proceed
    kShortWrite,  ///< the Nth write persists half and fails once; no crash
    kTransient,   ///< write-class I/Os nth .. nth+K-1 fail with a retryable
                  ///< error, then succeed (K = transient_failures); models
                  ///< EAGAIN-style blips that a bounded retry loop absorbs
    kEnospc,      ///< every write-class I/O from the nth on fails with
                  ///< ENOSPC until the plan is re-armed ("space returns");
                  ///< reads keep working — the disk is full, not broken
  };

  /// What the instrumented operation should do, as decided by BeforeWrite /
  /// BeforeRead / BeforeSync.
  enum class Decision : uint8_t {
    kProceed,   ///< perform the I/O normally
    kFail,      ///< do nothing; return an IOError
    kTear,      ///< persist only the first `kTearBytes` of the buffer, then
                ///< return an IOError
    kFailTransient,  ///< do nothing; retryable — the caller may back off and
                     ///< consult the plan again (each retry is counted)
    kFailEnospc,     ///< do nothing; return an ENOSPC-flavoured IOError that
                     ///< is NOT retryable (space does not return on its own)
  };

  static constexpr size_t kTearBytes = 4096;  // half a page

  /// Arms the plan: the `nth` counted I/O (1-based) fires `mode`. Resets
  /// counters and the crashed flag.
  void Arm(uint64_t nth, Mode mode) {
    trigger = nth;
    this->mode = mode;
    io_count = 0;
    faults_fired = 0;
    crashed = false;
  }

  /// Arms a transient fault: write-class I/Os nth .. nth+k-1 fail with
  /// Decision::kFailTransient, then I/Os succeed again.
  void ArmTransient(uint64_t nth, uint64_t k) {
    Arm(nth, Mode::kTransient);
    transient_failures = k;
  }

  /// Counts a write-class I/O (page write, WAL append) and decides its fate.
  Decision BeforeWrite() { return Step(/*is_write=*/true); }
  /// Counts a sync (fsync of data file or WAL).
  Decision BeforeSync() { return Step(/*is_write=*/true); }
  /// Reads are not counted toward the trigger, but fail after a crash.
  Decision BeforeRead() {
    return crashed.load(std::memory_order_acquire) ? Decision::kFail
                                                   : Decision::kProceed;
  }

  /// IOError used for simulated failures.
  static Status SimulatedError(const char* what) {
    return Status::IOError(std::string("fault injection: ") + what);
  }

  /// The injected disk-full error. Message mirrors strerror(ENOSPC) so
  /// logs read like the real thing.
  static Status SimulatedEnospc(const char* what) {
    return Status::IOError(std::string("fault injection: ") + what +
                           ": No space left on device");
  }

  uint64_t io_count = 0;      ///< write-class I/Os seen since Arm()
  uint64_t trigger = 0;       ///< 1-based index of the faulted I/O (0 = off)
  uint64_t faults_fired = 0;  ///< number of injected faults so far
  uint64_t transient_failures = 2;  ///< K for Mode::kTransient
  Mode mode = Mode::kNone;
  std::atomic<bool> crashed{false};  ///< post-crash: every I/O fails

 private:
  Decision Step(bool is_write) {
    if (crashed) return Decision::kFail;
    ++io_count;
    if (trigger == 0 || mode == Mode::kNone) return Decision::kProceed;
    // Transient and disk-full faults cover a range of I/Os; the classic
    // crash-class faults fire on exactly the trigger.
    if (mode == Mode::kTransient) {
      if (io_count < trigger || io_count >= trigger + transient_failures) {
        return Decision::kProceed;
      }
      ++faults_fired;
      return Decision::kFailTransient;
    }
    if (mode == Mode::kEnospc) {
      if (io_count < trigger) return Decision::kProceed;
      ++faults_fired;
      return Decision::kFailEnospc;
    }
    if (io_count != trigger) return Decision::kProceed;
    ++faults_fired;
    switch (mode) {
      case Mode::kCrash:
        crashed = true;
        return Decision::kFail;
      case Mode::kTornPage:
        crashed = true;
        return is_write ? Decision::kTear : Decision::kFail;
      case Mode::kEIO:
        return Decision::kFail;
      case Mode::kShortWrite:
        return is_write ? Decision::kTear : Decision::kFail;
      case Mode::kNone:
      case Mode::kTransient:
      case Mode::kEnospc:
        break;
    }
    return Decision::kProceed;
  }
};

/// Consults `plan` for a write-class I/O, absorbing Decision::kFailTransient
/// with the bounded IoRetryPolicy backoff (each retry re-consults the plan
/// and bumps `retries` when attached). Returns the first non-transient
/// decision, or kFailTransient once the retry budget is exhausted. Shared
/// by FaultInjectingBackend and the WAL.
FaultPlan::Decision DecideWriteWithRetry(FaultPlan* plan,
                                         const IoRetryCounter& retries);

/// A StorageBackend decorator that routes every page operation through a
/// FaultPlan. Wraps the real backend of a file-backed database in tests;
/// production opens never pay for it.
class FaultInjectingBackend : public StorageBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<StorageBackend> inner,
                        std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  Result<uint32_t> AllocatePage() override;
  Status ReadPage(uint32_t id, char* buf) override;
  Status WritePage(uint32_t id, const char* buf) override;
  Status Sync() override;
  uint32_t page_count() const override { return inner_->page_count(); }

  /// Attaches the ExecStats retry counter (injected-transient retries
  /// performed here are counted like real EAGAIN retries).
  void set_retry_counter(IoRetryCounter retries) {
    retries_ = std::move(retries);
  }

 private:
  /// Consults the plan for a write-class I/O, absorbing transient faults
  /// with the bounded backoff policy. Returns the final decision (never
  /// kFailTransient unless the retry budget is exhausted).
  FaultPlan::Decision DecideWrite();

  std::unique_ptr<StorageBackend> inner_;
  std::shared_ptr<FaultPlan> plan_;
  IoRetryCounter retries_;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_FAULT_INJECTION_H_
