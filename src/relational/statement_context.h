#ifndef OXML_RELATIONAL_STATEMENT_CONTEXT_H_
#define OXML_RELATIONAL_STATEMENT_CONTEXT_H_

// The state an engine statement carries on its thread (docs/INTERNALS.md
// §12): who runs it, what governs it and which committed state it reads.
//
// The Database installs a context for every statement it runs, the session
// layer installs one around every engine call made on a session's behalf,
// and ThreadPool::ParallelFor copies the caller's context into every task.
// Code anywhere on a statement's path — operators, parallel shards, the
// shred pipeline, WAL replay, the buffer pool — reads it through
// CurrentStatementContext() instead of taking a parameter. Tasks handed to
// ThreadPool::Submit start with an empty context.

#include <cstdint>
#include <optional>

namespace oxml {

class QueryControl;

struct StatementContext {
  /// The session the statement runs for (0 = the embedded API). A
  /// transaction begun under a session id belongs to that session, not to
  /// a thread, so any pool thread carrying the id may drive it.
  uint64_t session_id = 0;
  /// The governance token polled by CheckCurrentControl (null = none).
  QueryControl* control = nullptr;
  /// When set, page fetches and index cursors serve the committed state as
  /// of this commit LSN; unset = read current state (no foreign
  /// transaction is open, or the thread owns it and sees its own writes).
  std::optional<uint64_t> snapshot_lsn;
};

/// The calling thread's context (every field empty outside a statement).
const StatementContext& CurrentStatementContext();

/// Installs a context on the calling thread for the scope's lifetime and
/// restores the previous one on destruction, so nested scopes compose.
class ScopedStatementContext {
 public:
  explicit ScopedStatementContext(const StatementContext& ctx);
  ~ScopedStatementContext();

  ScopedStatementContext(const ScopedStatementContext&) = delete;
  ScopedStatementContext& operator=(const ScopedStatementContext&) = delete;

  /// Arms a read snapshot in the installed context (a reader statement
  /// does so once it holds the statement latch).
  void set_snapshot_lsn(uint64_t lsn);

 private:
  StatementContext prev_;
};

}  // namespace oxml

#endif  // OXML_RELATIONAL_STATEMENT_CONTEXT_H_
