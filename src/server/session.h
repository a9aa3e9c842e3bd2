#ifndef OXML_SERVER_SESSION_H_
#define OXML_SERVER_SESSION_H_

// Sessions and admission control (docs/INTERNALS.md §13).
//
// A Session is the unit of client state: a per-connection prepared-
// statement namespace (ids scoped to the session, plans shared through the
// database's plan cache), transaction ownership (the session — not any
// particular thread — owns its open transaction, via the session id in the
// StatementContext around every engine call made on its behalf), per-session
// StatementOptions defaults (deadline, memory budget) and per-session
// statement statistics.
//
// The SessionManager owns the sessions and the statement admission gate: a
// bounded count of concurrently executing statements plus a bounded wait
// queue feeding the database's statement latch. A statement arriving when
// the queue is full is rejected immediately with kResourceExhausted — the
// overload signal is an error frame, never a hang. Idle sessions past the
// configured timeout are reaped (prepared statements released, an owned
// transaction rolled back).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/database.h"

namespace oxml {
namespace server {

/// Per-session defaults applied to every statement the session runs (the
/// session-scoped analogue of StatementOptions).
struct SessionDefaults {
  /// -1 = inherit DatabaseOptions::default_statement_timeout_ms; 0 = no
  /// deadline; > 0 = per-statement deadline in milliseconds. Servers set a
  /// finite default so a statement gate-waiting behind a dead session's
  /// transaction can never pin a pool worker forever.
  int64_t timeout_ms = -1;
  /// -1 = inherit DatabaseOptions::statement_memory_budget_bytes;
  /// 0 = unlimited; > 0 = per-statement cap in bytes.
  int64_t memory_budget_bytes = -1;
};

/// Per-session statement counters (relaxed atomics: exact per-field,
/// unsynchronized across fields).
struct SessionStats {
  std::atomic<uint64_t> statements{0};
  std::atomic<uint64_t> rows_returned{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> cancelled{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> admission_rejected{0};
  std::atomic<uint64_t> txns_committed{0};
  std::atomic<uint64_t> txns_rolled_back{0};
};

/// Admission-gate counters (SessionManager::admission_*).
struct AdmissionStats {
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> queued_peak{0};
};

struct SessionManagerOptions {
  /// Concurrent sessions; a connection past the cap is refused with
  /// kResourceExhausted.
  size_t max_sessions = 64;
  /// Statements executing at once across all sessions. Statements past the
  /// cap wait in the admission queue.
  size_t max_concurrent_statements = 8;
  /// Bounded admission queue; a statement arriving when `queued ==
  /// max_queued_statements` is rejected with kResourceExhausted.
  size_t max_queued_statements = 32;
  /// Sessions idle longer than this are reaped (0 = never). The server's
  /// poll loop drives ReapIdle on its sweep interval.
  int64_t idle_timeout_ms = 0;
  /// Defaults stamped onto new sessions (each session may override its own
  /// via SetDefaults / the kSessionOpts frame).
  SessionDefaults defaults;
};

class SessionManager;

/// Result of Session::Prepare.
struct PreparedInfo {
  uint32_t stmt_id = 0;
  uint32_t param_count = 0;
};

/// One client session. Statement entry points (Query/Execute/
/// QueryPrepared/ExecutePrepared/RunStatement) are serialized per session by
/// the caller (the server runs one frame at a time per connection); Cancel
/// and Kill may race them from any thread. Transaction-control calls
/// (Begin/Commit/Rollback/Close) bypass the admission gate — see
/// docs/INTERNALS.md §13 for why that is required for liveness.
class Session {
 public:
  Session(Database* db, SessionManager* manager, uint64_t id);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  Database* database() const { return db_; }

  // ------------------------------------------------- prepared statements

  /// Compiles `sql` through the shared plan cache and stores a
  /// session-scoped handle carrying private bindings (two sessions
  /// preparing the same text share the compiled plan but never each
  /// other's parameters).
  Result<PreparedInfo> Prepare(const std::string& sql);
  /// Binds `values` starting at parameter `first_index`.
  Status Bind(uint32_t stmt_id, size_t first_index, Row values);
  Status CloseStatement(uint32_t stmt_id);
  size_t prepared_count() const;

  // ------------------------------------------------------------ execution

  /// One-shot statements (admission-gated, governed, session-identified).
  Result<ResultSet> Query(const std::string& sql, Row params,
                          uint64_t client_tag);
  Result<int64_t> Execute(const std::string& sql, Row params,
                          uint64_t client_tag);
  Result<ResultSet> QueryPrepared(uint32_t stmt_id, uint64_t client_tag);
  Result<int64_t> ExecutePrepared(uint32_t stmt_id, uint64_t client_tag);

  /// The common statement path, also used directly by the server's XPath
  /// frame so driver-evaluated queries get the same gating as SQL: build
  /// the session-scoped QueryControl (deadline + budget from the session
  /// defaults), register it for Database::Cancel, pass the admission gate,
  /// then run `body` under a StatementContext carrying this session's id
  /// and the control. Every nested engine statement inherits both, so ids
  /// and governance are session-qualified end to end.
  Status RunStatement(uint64_t client_tag, const std::function<Status()>& body);

  // --------------------------------------------------------- transactions

  Status Begin();
  Status Commit();
  Status Rollback();
  /// True when the database's open transaction belongs to this session.
  bool OwnsOpenTxn() const;

  // -------------------------------------------------- control & lifecycle

  /// Out-of-band cancel: forwards to Database::Cancel for the statement
  /// this session has in flight. `client_tag` of 0 targets whatever is in
  /// flight; a non-zero tag must match the in-flight statement's tag.
  /// Statement ids are resolved through this session's own slot, so a
  /// session can never cancel another session's statement. NotFound when
  /// nothing (matching) is in flight — cancellation raced completion.
  Status Cancel(uint64_t client_tag);

  /// Kill: cancels any in-flight statement and marks the session dead —
  /// every later statement fails with kCancelled. Used by
  /// SessionManager::Kill and by disconnect cleanup.
  void Kill();
  bool killed() const { return killed_.load(std::memory_order_acquire); }

  /// Releases everything the session holds: cancels in-flight work, rolls
  /// back an owned open transaction (through the session-identity path, so
  /// it works from any thread), clears the prepared namespace. Idempotent.
  Status Close();

  void SetDefaults(const SessionDefaults& defaults);
  SessionDefaults defaults() const;

  SessionStats* stats() { return &stats_; }

  /// Milliseconds since the session last started or finished a statement.
  int64_t idle_ms() const;
  /// True while a statement is executing or queued for admission (such a
  /// session is never reaped).
  bool busy() const { return busy_.load(std::memory_order_acquire); }

 private:
  struct PreparedHandle {
    std::string sql;
    uint32_t param_count = 0;
    Row bindings;
  };

  void Touch();
  /// The StatementContext of an engine call made for this session.
  StatementContext Context(QueryControl* control = nullptr) const {
    StatementContext ctx;
    ctx.session_id = id_;
    ctx.control = control;
    return ctx;
  }

  Database* db_;
  SessionManager* manager_;
  const uint64_t id_;

  mutable std::mutex mu_;
  std::map<uint32_t, PreparedHandle> prepared_;
  uint32_t next_stmt_id_ = 1;
  SessionDefaults defaults_;
  bool closed_ = false;

  /// In-flight statement slot (guarded by mu_): the client tag and the
  /// engine statement id Cancel forwards to Database::Cancel.
  uint64_t inflight_tag_ = 0;
  uint64_t inflight_statement_id_ = 0;

  std::atomic<bool> killed_{false};
  std::atomic<bool> busy_{false};
  std::atomic<int64_t> last_active_ns_;
  SessionStats stats_;
};

/// Owns every session and the statement admission gate.
class SessionManager {
 public:
  SessionManager(Database* db, SessionManagerOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session, or kResourceExhausted at the session cap.
  Result<std::shared_ptr<Session>> CreateSession();
  std::shared_ptr<Session> Find(uint64_t session_id);
  /// Closes and removes the session (rolls back an owned transaction).
  Status CloseSession(uint64_t session_id);
  /// Cancels the session's in-flight statement (Database::Cancel underneath).
  Status Cancel(uint64_t session_id);
  /// Kills the session: cancel in flight, fail all later statements, close.
  Status Kill(uint64_t session_id);

  /// Closes every session idle longer than options().idle_timeout_ms;
  /// returns how many were reaped. No-op when the timeout is 0 or a
  /// statement is in flight on the session.
  size_t ReapIdle();

  size_t session_count() const;
  std::vector<std::shared_ptr<Session>> Sessions() const;

  /// The admission gate (called by Session::RunStatement). Admit blocks in
  /// the bounded queue until a slot frees, polling `control` so a queued
  /// statement still honors its deadline / out-of-band cancel; it returns
  /// kResourceExhausted immediately when the queue itself is full.
  Status Admit(QueryControl* control);
  void Release();

  size_t running_statements() const;
  size_t queued_statements() const;
  const AdmissionStats& admission_stats() const { return admission_stats_; }
  const SessionManagerOptions& options() const { return options_; }
  Database* database() const { return db_; }

 private:
  Database* db_;
  SessionManagerOptions options_;

  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t running_ = 0;
  size_t queued_ = 0;
  AdmissionStats admission_stats_;
};

}  // namespace server
}  // namespace oxml

#endif  // OXML_SERVER_SESSION_H_
