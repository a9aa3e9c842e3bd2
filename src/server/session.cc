#include "src/server/session.h"

#include <algorithm>
#include <utility>

namespace oxml {
namespace server {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StatementOptions ToStatementOptions(const SessionDefaults& defaults) {
  StatementOptions opts;
  opts.timeout_ms = defaults.timeout_ms;
  opts.memory_budget_bytes = defaults.memory_budget_bytes;
  return opts;
}

}  // namespace

// ----------------------------------------------------------------- Session

Session::Session(Database* db, SessionManager* manager, uint64_t id)
    : db_(db), manager_(manager), id_(id), last_active_ns_(NowNs()) {
  defaults_ = manager_->options().defaults;
}

Session::~Session() { (void)Close(); }

void Session::Touch() {
  last_active_ns_.store(NowNs(), std::memory_order_release);
}

int64_t Session::idle_ms() const {
  return (NowNs() - last_active_ns_.load(std::memory_order_acquire)) /
         1'000'000;
}

Result<PreparedInfo> Session::Prepare(const std::string& sql) {
  Touch();
  if (killed()) return Status::Cancelled("session was killed");
  // Validate and warm the shared plan cache; the session keeps only the
  // text and its private bindings. Execution goes through QueryP/ExecuteP,
  // whose per-call parameter buffers make concurrent sessions on the same
  // text safe (PreparedStatement handles share bindings per text, which is
  // exactly the coupling a session namespace must not have).
  OXML_ASSIGN_OR_RETURN(PreparedStatement handle, db_->Prepare(sql));
  PreparedHandle ph;
  ph.sql = sql;
  ph.param_count = static_cast<uint32_t>(handle.param_count());
  ph.bindings.assign(ph.param_count, Value::Null());
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = next_stmt_id_++;
  PreparedInfo info{id, ph.param_count};
  prepared_.emplace(id, std::move(ph));
  return info;
}

Status Session::Bind(uint32_t stmt_id, size_t first_index, Row values) {
  Touch();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prepared_.find(stmt_id);
  if (it == prepared_.end()) {
    return Status::NotFound("no prepared statement " +
                            std::to_string(stmt_id) + " in this session");
  }
  if (first_index + values.size() > it->second.param_count) {
    return Status::InvalidArgument(
        "bind of " + std::to_string(values.size()) + " values at index " +
        std::to_string(first_index) + " overflows " +
        std::to_string(it->second.param_count) + " parameters");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    it->second.bindings[first_index + i] = std::move(values[i]);
  }
  return Status::OK();
}

Status Session::CloseStatement(uint32_t stmt_id) {
  Touch();
  std::lock_guard<std::mutex> lock(mu_);
  if (prepared_.erase(stmt_id) == 0) {
    return Status::NotFound("no prepared statement " +
                            std::to_string(stmt_id) + " in this session");
  }
  return Status::OK();
}

size_t Session::prepared_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_.size();
}

Status Session::RunStatement(uint64_t client_tag,
                             const std::function<Status()>& body) {
  Touch();
  if (killed()) return Status::Cancelled("session was killed");
  busy_.store(true, std::memory_order_release);

  // Session-scoped governance: the control is built here (not by the
  // engine statement) so the deadline clock covers admission-queue time
  // and the session's own defaults apply; the nested engine statement
  // inherits it. Registering it gives it an engine statement id, which is
  // what the out-of-band cancel path resolves through this session's
  // in-flight slot — ids are session-qualified by construction.
  std::shared_ptr<QueryControl> control =
      db_->NewStatementControl(ToStatementOptions(defaults()));
  uint64_t statement_id = db_->RegisterControl(control);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_tag_ = client_tag;
    inflight_statement_id_ = statement_id;
  }

  Status st = manager_->Admit(control.get());
  if (st.ok()) {
    ScopedStatementContext scope(Context(control.get()));
    st = body();
    manager_->Release();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_tag_ = 0;
    inflight_statement_id_ = 0;
  }
  db_->UnregisterControl(statement_id);
  busy_.store(false, std::memory_order_release);
  Touch();

  ++stats_.statements;
  if (!st.ok()) {
    ++stats_.errors;
    if (st.IsCancelled()) ++stats_.cancelled;
    if (st.IsDeadlineExceeded()) ++stats_.timed_out;
    if (st.IsResourceExhausted()) ++stats_.admission_rejected;
  }
  return st;
}

Result<ResultSet> Session::Query(const std::string& sql, Row params,
                                 uint64_t client_tag) {
  ResultSet rs;
  OXML_RETURN_NOT_OK(RunStatement(client_tag, [&]() -> Status {
    OXML_ASSIGN_OR_RETURN(rs, db_->QueryP(sql, std::move(params)));
    return Status::OK();
  }));
  stats_.rows_returned += rs.rows.size();
  return rs;
}

Result<int64_t> Session::Execute(const std::string& sql, Row params,
                                 uint64_t client_tag) {
  int64_t affected = 0;
  OXML_RETURN_NOT_OK(RunStatement(client_tag, [&]() -> Status {
    OXML_ASSIGN_OR_RETURN(affected, db_->ExecuteP(sql, std::move(params)));
    return Status::OK();
  }));
  return affected;
}

Result<ResultSet> Session::QueryPrepared(uint32_t stmt_id,
                                         uint64_t client_tag) {
  std::string sql;
  Row params;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(stmt_id);
    if (it == prepared_.end()) {
      return Status::NotFound("no prepared statement " +
                              std::to_string(stmt_id) + " in this session");
    }
    sql = it->second.sql;
    params = it->second.bindings;
  }
  return Query(sql, std::move(params), client_tag);
}

Result<int64_t> Session::ExecutePrepared(uint32_t stmt_id,
                                         uint64_t client_tag) {
  std::string sql;
  Row params;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(stmt_id);
    if (it == prepared_.end()) {
      return Status::NotFound("no prepared statement " +
                              std::to_string(stmt_id) + " in this session");
    }
    sql = it->second.sql;
    params = it->second.bindings;
  }
  return Execute(sql, std::move(params), client_tag);
}

Status Session::Begin() {
  Touch();
  if (killed()) return Status::Cancelled("session was killed");
  // Transaction control bypasses the admission gate (liveness: the commit
  // that frees gate-waiting statements must never queue behind them), but
  // still runs governed — Begin itself gate-waits when a foreign session's
  // transaction is open, and that wait must honor the session deadline.
  std::shared_ptr<QueryControl> control =
      db_->NewStatementControl(ToStatementOptions(defaults()));
  ScopedStatementContext scope(Context(control.get()));
  return db_->Begin();
}

Status Session::Commit() {
  Touch();
  ScopedStatementContext scope(Context());
  Status st = db_->Commit();
  if (st.ok()) ++stats_.txns_committed;
  return st;
}

Status Session::Rollback() {
  Touch();
  ScopedStatementContext scope(Context());
  Status st = db_->Rollback();
  if (st.ok()) ++stats_.txns_rolled_back;
  return st;
}

bool Session::OwnsOpenTxn() const {
  return db_->InTransaction() && db_->txn_session() == id_;
}

Status Session::Cancel(uint64_t client_tag) {
  uint64_t statement_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_statement_id_ == 0 ||
        (client_tag != 0 && client_tag != inflight_tag_)) {
      return Status::NotFound("no matching in-flight statement");
    }
    statement_id = inflight_statement_id_;
  }
  // Resolved through this session's slot only, so the id handed to
  // Database::Cancel is necessarily one of ours. NotFound here means the
  // statement finished in the meantime — benign for the caller too.
  return db_->Cancel(statement_id);
}

void Session::Kill() {
  killed_.store(true, std::memory_order_release);
  (void)Cancel(0);
}

Status Session::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::OK();
    closed_ = true;
  }
  killed_.store(true, std::memory_order_release);
  (void)Cancel(0);
  Status st = Status::OK();
  if (OwnsOpenTxn()) {
    // Disconnect mid-transaction: roll back through the normal undo path.
    // The session id makes this legal from whatever thread runs the
    // cleanup; Rollback's exclusive latch waits out any statement the
    // cancel above is still aborting. A benign race remains — the
    // transaction may finish between the check and here — and surfaces as
    // InvalidArgument("no transaction is open"), which is success.
    ScopedStatementContext scope(Context());
    Status rb = db_->Rollback();
    if (rb.ok()) {
      ++stats_.txns_rolled_back;
    } else if (!rb.IsInvalidArgument()) {
      st = rb;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  prepared_.clear();
  return st;
}

void Session::SetDefaults(const SessionDefaults& defaults) {
  std::lock_guard<std::mutex> lock(mu_);
  defaults_ = defaults;
}

SessionDefaults Session::defaults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defaults_;
}

// ---------------------------------------------------------- SessionManager

SessionManager::SessionManager(Database* db, SessionManagerOptions options)
    : db_(db), options_(options) {
  if (options_.max_concurrent_statements == 0) {
    options_.max_concurrent_statements = 1;
  }
}

SessionManager::~SessionManager() {
  // Close every remaining session (rolls back owned transactions) so a
  // manager teardown leaves the database clean.
  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& [id, session] : sessions) (void)session->Close();
}

Result<std::shared_ptr<Session>> SessionManager::CreateSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " sessions)");
  }
  uint64_t id = next_session_id_++;
  auto session = std::make_shared<Session>(db_, this, id);
  sessions_[id] = session;
  return session;
}

std::shared_ptr<Session> SessionManager::Find(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status SessionManager::CloseSession(uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(session_id));
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  return session->Close();
}

Status SessionManager::Cancel(uint64_t session_id) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  return session->Cancel(0);
}

Status SessionManager::Kill(uint64_t session_id) {
  std::shared_ptr<Session> session = Find(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  session->Kill();
  return CloseSession(session_id);
}

size_t SessionManager::ReapIdle() {
  if (options_.idle_timeout_ms <= 0) return 0;
  std::vector<std::shared_ptr<Session>> victims;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      if (!s.busy() && s.idle_ms() >= options_.idle_timeout_ms) {
        victims.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : victims) {
    session->Kill();
    (void)session->Close();
  }
  return victims.size();
}

size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::vector<std::shared_ptr<Session>> SessionManager::Sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

Status SessionManager::Admit(QueryControl* control) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (running_ < options_.max_concurrent_statements) {
    ++running_;
    ++admission_stats_.admitted;
    return Status::OK();
  }
  if (queued_ >= options_.max_queued_statements) {
    ++admission_stats_.rejected;
    return Status::ResourceExhausted(
        "statement admission queue is full (" +
        std::to_string(options_.max_concurrent_statements) + " running, " +
        std::to_string(queued_) + " queued)");
  }
  ++queued_;
  uint64_t peak = admission_stats_.queued_peak.load(std::memory_order_relaxed);
  while (queued_ > peak &&
         !admission_stats_.queued_peak.compare_exchange_weak(
             peak, queued_, std::memory_order_relaxed)) {
  }
  while (running_ >= options_.max_concurrent_statements) {
    if (control != nullptr) {
      // A queued statement must still honor its deadline and out-of-band
      // cancellation; poll between waits (the cv wakes on every Release).
      Status st = control->Check();
      if (!st.ok()) {
        --queued_;
        return st;
      }
    }
    admission_cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  --queued_;
  ++running_;
  ++admission_stats_.admitted;
  return Status::OK();
}

void SessionManager::Release() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --running_;
  }
  admission_cv_.notify_one();
}

size_t SessionManager::running_statements() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return running_;
}

size_t SessionManager::queued_statements() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return queued_;
}

}  // namespace server
}  // namespace oxml
