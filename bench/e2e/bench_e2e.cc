// bench_e2e — the end-to-end OXWP benchmark (see README.md beside this file).
//
// Starts an OxmlServer in-process over one Database that holds the same
// news document under all three order encodings (stores doc_global,
// doc_local, doc_dewey), drives one workload against it from at most four
// load threads, checks every answer against an oracle computed before the
// server starts, and prints every metric by name with its unit. The last
// line of stdout is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//   bench_e2e --workload qr_read --seed 1 --seconds 10 --trace 0
//   bench_e2e --workload all --smoke        # each workload in a child process
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload with spans recorded in alternating half-second slices (so the
// tracing overhead is measured inside one run), then replays every page
// view once over the wire and once decomposed into its embedded calls, and
// reports the per-layer metrics. Layers are timed only from here, around
// calls into their public functions.

#include <sys/resource.h>
#include <sys/wait.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/trace.h"
#include "src/common/random.h"
#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

extern char** environ;

namespace oxml {
namespace bench_e2e {
namespace {

constexpr int kEncodings = 3;
constexpr OrderEncoding kEncoding[kEncodings] = {
    OrderEncoding::kGlobal, OrderEncoding::kLocal, OrderEncoding::kDewey};
constexpr const char* kEncName[kEncodings] = {"global", "local", "dewey"};
const char* const kWorkloads[] = {"qr_read", "mixed_move", "cold_read",
                                  "session_churn"};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

// ------------------------------------------------------------------ flags

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string data_dir = "bench_e2e_data";
  std::string json_path;   // append one result line per run
  std::string trace_file;  // Chrome trace of a traced run
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) Die("missing value for " + arg);
      value = argv[++i];
    }
    if (arg == "--workload") {
      f.workload = value;
    } else if (arg == "--seed") {
      f.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      f.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      f.trace = value == "1";
    } else if (arg == "--smoke") {
      f.smoke = true;
    } else if (arg == "--data-dir") {
      f.data_dir = value;
    } else if (arg == "--json") {
      f.json_path = value;
    } else if (arg == "--trace-file") {
      f.trace_file = value;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (f.seconds <= 0) Die("--seconds must be positive");
  return f;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 27);
}

// -------------------------------------------------------------- workloads

/// One statement a page view sends to its encoding's store: an XPath, or
/// (sql) `SELECT COUNT(*) FROM <table> WHERE tag = ?` with `text` bound to
/// the marker. Statements go to the doc_* stores, or (on_move_store) to the
/// move_* table that mixed_move's writer is changing.
struct Statement {
  bool sql = false;
  std::string text;
  bool on_move_store = false;
};

std::string TableName(bool move_store, int e) {
  return std::string(move_store ? "move_" : "doc_") + kEncName[e];
}

// ------------------------------------------------------- embedded answers

std::string CountSql(const std::string& table) {
  return "SELECT COUNT(*) FROM " + table + " WHERE tag = ?";
}

/// Time spent in each layer by one embedded evaluation.
struct Breakdown {
  int64_t eval_ns = 0;
  int64_t reconstruct_ns = 0;
  int64_t write_ns = 0;
  uint64_t results = 0;
  uint64_t bytes = 0;
};

/// The answer the kXPath frame returns, computed embedded with the
/// server's node-signature format (src/server/server.cc): attributes as
/// "@name=value", every other node as its serialized reconstructed subtree.
Result<std::vector<std::string>> Embedded(OrderedXmlStore* store,
                                          const Statement& st,
                                          Breakdown* b) {
  std::vector<std::string> out;
  if (st.sql) {
    int64_t t0 = NowNs();
    OXML_ASSIGN_OR_RETURN(ResultSet rs,
                          store->db()->QueryP(CountSql(store->table_name()),
                                              {Value::Text(st.text)}));
    b->eval_ns += NowNs() - t0;
    for (const Row& row : rs.rows) out.push_back(row[0].ToString());
  } else {
    int64_t t0 = NowNs();
    OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                          EvaluateXPath(store, st.text));
    b->eval_ns += NowNs() - t0;
    for (const StoredNode& n : nodes) {
      if (n.kind == XmlNodeKind::kAttribute) {
        out.push_back("@" + n.tag + "=" + n.value);
        continue;
      }
      int64_t t1 = NowNs();
      OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> subtree,
                            store->ReconstructSubtree(n));
      int64_t t2 = NowNs();
      out.push_back(WriteXml(*subtree));
      b->reconstruct_ns += t2 - t1;
      b->write_ns += NowNs() - t2;
    }
  }
  b->results += out.size();
  for (const std::string& s : out) b->bytes += s.size();
  return out;
}

struct Workload {
  std::string name;
  int sections = 0;
  int paragraphs = 0;
  bool file_backed = false;
  size_t buffer_frames = 0;  // 0 = unbounded pool
  bool churn = false;        // connect + goodbye around every request
  double moves_per_s = 0;    // open-loop writer rate; 0 = read-only
  /// Every statement a page view can send; page views index into it.
  std::vector<Statement> universe;
  std::function<std::vector<size_t>(Random*)> page_view;
  /// When set, derives the answer to every universe statement from a few
  /// whole-document evaluations on one doc store; otherwise each statement
  /// is evaluated on its own.
  std::function<Result<std::vector<std::vector<std::string>>>(
      OrderedXmlStore*)>
      derive_answers;
};

std::string Sec(int k) {
  return "/nitf/body/section[" + std::to_string(k) + "]";
}

/// Page views that send all `n` statements of the universe, in order.
std::function<std::vector<size_t>(Random*)> InOrder(size_t n) {
  return [n](Random*) {
    std::vector<size_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  };
}

Workload MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "qr_read") {
    // The paper's ordered queries QR1-QR8 (bench/bench_queries.cc); QR8 is
    // the reconstruction of one section. Smoke keeps >= 75 sections so QR7
    // and QR8 still return rows.
    w.sections = smoke ? 80 : 150;
    w.paragraphs = smoke ? 3 : 20;
    for (const char* q :
         {"//para", "/nitf/body/section[5]/title",
          "/nitf/body/section[last()]/para[last()]",
          "//section[@id = 's10']/following-sibling::section",
          "/nitf/body//para", "//para[@class = 'lead']",
          "/nitf/body/section[position() >= 50]/title",
          "/nitf/body/section[75]"}) {
      w.universe.push_back({false, q});
    }
    w.page_view = InOrder(w.universe.size());
  } else if (name == "mixed_move") {
    // The E6 query mix (bench/bench_mixed_workload.cc) beside an open-loop
    // paragraph mover; smoke keeps >= 41 sections for the s40 query. The
    // XPaths read the doc_* copies: the kXPath frame evaluates and then
    // reconstructs each node in separate statements, so a move committing
    // in between fails or changes the answer (README.md, known race). The
    // count is one statement, so it reads the move_* table under the
    // writer, served from MVCC snapshots, and its answer never changes.
    w.sections = smoke ? 45 : 60;
    w.paragraphs = smoke ? 4 : 10;
    w.file_backed = true;
    w.moves_per_s = 120;
    for (const char* q :
         {"//para[@class = 'lead']", "/nitf/body/section[7]/para[3]",
          "//section[@id = 's40']/following-sibling::section[1]",
          "/nitf/body/section[last()]/para[last()]"}) {
      w.universe.push_back({false, q});
    }
    w.universe.push_back({true, "para", /*on_move_store=*/true});
    w.page_view = InOrder(w.universe.size());
  } else if (name == "cold_read") {
    w.sections = smoke ? 60 : 300;
    w.paragraphs = smoke ? 4 : 10;
    w.file_backed = true;
    w.buffer_frames = 32;
    for (int k = 1; k <= w.sections; ++k) {
      w.universe.push_back({false, Sec(k)});
      w.universe.push_back({false, Sec(k) + "/para[last()]"});
      w.universe.push_back(
          {false, "//section[@id = 's" + std::to_string(k) +
                      "']/following-sibling::section[1]"});
    }
    w.page_view = [n = w.sections](Random* rng) {
      size_t k = static_cast<size_t>(rng->Uniform(0, n - 1));
      return std::vector<size_t>{3 * k, 3 * k + 1, 3 * k + 2};
    };
    // Evaluating the 900 statements one by one through a 32-frame pool
    // takes seconds; every answer is a section, the next section, or a section's
    // last paragraph, so two evaluations per store give them all.
    w.derive_answers = [n = static_cast<size_t>(w.sections)](
                           OrderedXmlStore* store)
        -> Result<std::vector<std::vector<std::string>>> {
      Breakdown b;
      OXML_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                            Embedded(store, {false, "/nitf/body/section"}, &b));
      OXML_ASSIGN_OR_RETURN(
          std::vector<std::string> last_paras,
          Embedded(store, {false, "/nitf/body/section/para[last()]"}, &b));
      if (sections.size() != n || last_paras.size() != n) {
        return Status::Internal("unexpected document shape");
      }
      std::vector<std::vector<std::string>> out;
      for (size_t k = 0; k < n; ++k) {
        out.push_back({sections[k]});
        out.push_back({last_paras[k]});
        out.push_back(k + 1 < n ? std::vector<std::string>{sections[k + 1]}
                                : std::vector<std::string>{});
      }
      return out;
    };
  } else if (name == "session_churn") {
    w.sections = smoke ? 20 : 60;
    w.paragraphs = smoke ? 4 : 10;
    w.churn = true;
    w.universe.push_back({true, "para"});
    for (int k = 1; k <= w.sections; ++k) {
      w.universe.push_back({false, Sec(k) + "/title"});
      w.universe.push_back({false, Sec(k) + "/para[last()]"});
    }
    w.page_view = [n = w.sections](Random* rng) {
      size_t k = static_cast<size_t>(rng->Uniform(0, n - 1));
      return std::vector<size_t>{0, 1 + 2 * k, 2 + 2 * k};
    };
  } else {
    Die("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------ the server

/// The database, its stores and the server in front of them. Members are
/// destroyed in reverse order: server, stores, database.
struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> doc[kEncodings];   // read by clients
  std::unique_ptr<OrderedXmlStore> move[kEncodings];  // mixed_move's writer
  std::unique_ptr<server::OxmlServer> server;

  OrderedXmlStore* StoreFor(const Statement& st, int e) const {
    return (st.on_move_store ? move : doc)[e].get();
  }
};

/// Opens a fresh database, loads the document into every store, and starts
/// the server. `load_ns[e]` receives the doc store load times.
std::unique_ptr<Served> Serve(const Workload& w, const XmlDocument& doc,
                              const std::string& db_path, int64_t* load_ns) {
  auto s = std::make_unique<Served>();
  DatabaseOptions opts;
  if (w.file_backed) {
    opts.file_path = db_path;
    opts.buffer_capacity = w.buffer_frames;
  }
  s->db = Must(Database::Open(opts), "open database");
  auto load = [&](std::unique_ptr<OrderedXmlStore>* slot, int e,
                  const std::string& table) {
    StoreOptions so;
    so.table_name = table;
    *slot = Must(OrderedXmlStore::Create(s->db.get(), kEncoding[e], so),
                 "create " + table);
    Must((*slot)->LoadDocument(doc), "load " + table);
  };
  for (int e = 0; e < kEncodings; ++e) {
    int64_t t0 = NowNs();
    load(&s->doc[e], e, TableName(false, e));
    load_ns[e] = NowNs() - t0;
  }
  if (w.moves_per_s > 0) {
    for (int e = 0; e < kEncodings; ++e) {
      load(&s->move[e], e, TableName(true, e));
    }
  }
  s->server = std::make_unique<server::OxmlServer>(s->db.get(),
                                                   server::ServerOptions{});
  Must(s->server->Start(), "start server");
  for (int e = 0; e < kEncodings; ++e) {
    s->server->RegisterStore(TableName(false, e), s->doc[e].get());
  }
  return s;
}

// ---------------------------------------------------------------- clients

struct Shared {
  const Workload* w = nullptr;
  Served* served = nullptr;
  uint16_t port = 0;
  /// expected[i] = the answer to w->universe[i] (identical on all stores).
  std::vector<std::vector<std::string>> expected;
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;

  std::mutex mu;  // guards the members below
  uint64_t wrong = 0;
  std::vector<std::string> first_errors;  // the first 5 failures

  void Fail(bool wrong_answer, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (wrong_answer) ++wrong;
    if (first_errors.size() < 5) first_errors.push_back(what);
  }
};

struct OpSample {
  int enc = 0;
  int64_t start_ns = 0;
  int64_t latency_ns = 0;
  bool ok = false;
  bool traced = false;
  uint64_t statements = 0;  // wire statement calls
};

Result<std::unique_ptr<server::OxmlClient>> Connect(uint16_t port) {
  Span span("connect");
  server::ClientOptions copts;
  copts.port = port;
  return server::OxmlClient::Connect(copts);
}

/// Sends one statement over the wire; the page view's encoding is `e`.
Result<std::vector<std::string>> Wire(server::OxmlClient* c,
                                      const Statement& st, int e,
                                      bool prepared) {
  const std::string table = TableName(st.on_move_store, e);
  if (!st.sql) {
    Span span("xpath", e);
    return c->XPath(table, st.text);
  }
  ResultSet rs;
  if (prepared) {
    server::ClientPrepared p;
    {
      Span span("prepare", e);
      OXML_ASSIGN_OR_RETURN(p, c->Prepare(CountSql(table)));
    }
    {
      Span span("bind", e);
      OXML_RETURN_NOT_OK(c->Bind(p.stmt_id, 0, {Value::Text(st.text)}));
    }
    Span span("query_prepared", e);
    OXML_ASSIGN_OR_RETURN(rs, c->QueryPrepared(p.stmt_id));
  } else {
    Span span("query", e);
    OXML_ASSIGN_OR_RETURN(rs, c->Query(CountSql(table),
                                       {Value::Text(st.text)}));
  }
  std::vector<std::string> out;
  for (const Row& row : rs.rows) out.push_back(row[0].ToString());
  return out;
}

/// Checks a wire answer; false (and the wrong-answer count bumped) on a
/// mismatch.
bool Check(Shared* sh, size_t idx, int e,
           const std::vector<std::string>& got) {
  const std::vector<std::string>& want = sh->expected[idx];
  if (got == want) return true;
  sh->Fail(true, std::string("wrong answer from ") + kEncName[e] + " to '" +
                     sh->w->universe[idx].text + "': " +
                     (got.size() == want.size()
                          ? "different content"
                          : std::to_string(got.size()) +
                                " results, expected " +
                                std::to_string(want.size())));
  return false;
}

void RunClient(Shared* sh, int index, uint64_t seed,
               std::vector<OpSample>* samples) {
  const Workload& w = *sh->w;
  Random rng(Mix(seed, static_cast<uint64_t>(index)));
  std::unique_ptr<server::OxmlClient> conn;
  while (NowNs() < sh->window_end_ns) {
    int e = static_cast<int>(rng.Uniform(0, kEncodings - 1));
    std::vector<size_t> view = w.page_view(&rng);
    OpSample s;
    s.enc = e;
    s.start_ns = NowNs();
    bool right = true;
    Status st;
    {
      Span request("request", e);
      s.traced = request.recording();
      st = [&]() -> Status {
        if (conn == nullptr) {
          OXML_ASSIGN_OR_RETURN(conn, Connect(sh->port));
        }
        for (size_t idx : view) {
          ++s.statements;
          OXML_ASSIGN_OR_RETURN(
              std::vector<std::string> got,
              Wire(conn.get(), w.universe[idx], e, /*prepared=*/w.churn));
          right = Check(sh, idx, e, got) && right;
        }
        if (!w.churn) return Status::OK();
        Span span("goodbye", e);
        Status bye = conn->Goodbye();
        conn.reset();
        return bye;
      }();
    }
    s.latency_ns = NowNs() - s.start_ns;
    s.ok = st.ok() && right;
    if (!st.ok()) {
      sh->Fail(false, std::string(kEncName[e]) + ": " + st.ToString());
      conn.reset();  // a failed exchange may leave the stream mid-frame
    }
    if (s.start_ns >= sh->window_start_ns && s.start_ns < sh->window_end_ns) {
      samples->push_back(s);
    }
  }
  if (conn != nullptr) (void)conn->Goodbye();
}

// ----------------------------------------------------------------- writer

struct WriteSample {
  int enc = 0;
  bool in_window = false;
  bool ok = false;
  int64_t latency_ns = 0;  // from the due time
  UpdateStats update;
  uint64_t wal_bytes = 0;
  uint64_t wal_images = 0;
  uint64_t wal_syncs = 0;
  bool checkpoint = false;
};

/// Open loop: tick n is due at start + n / rate and moves one paragraph of
/// one move_* store to before another paragraph of the same section. The
/// stores take turns, and every (section, i, j) is applied to all three,
/// so they stay identical. Only this thread commits, so the WAL deltas
/// around a move are that move's alone.
void RunWriter(Shared* sh, uint64_t seed, int64_t start_ns, int64_t warm_ticks,
               int64_t total_ticks, std::vector<WriteSample>* samples) {
  const Workload& w = *sh->w;
  Random rng(Mix(seed, 1000));
  const double period_ns = 1e9 / w.moves_per_s;
  WriteAheadLog* wal = sh->served->db->wal();
  int section = 1;
  int from = 0;
  int to = 1;
  for (int64_t n = 0; n < total_ticks; ++n) {
    int e = static_cast<int>(n % kEncodings);
    if (e == 0) {
      section = static_cast<int>(rng.Uniform(1, w.sections));
      from = static_cast<int>(rng.Uniform(0, w.paragraphs - 1));
      do {
        to = static_cast<int>(rng.Uniform(0, w.paragraphs - 1));
      } while (to == from);
    }
    int64_t due = start_ns + static_cast<int64_t>(n * period_ns);
    if (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    OrderedXmlStore* store = sh->served->move[e].get();
    WriteSample s;
    s.enc = e;
    s.in_window = n >= warm_ticks;
    uint64_t bytes = wal->bytes_appended();
    uint64_t images = wal->page_images();
    uint64_t syncs = wal->syncs();
    uint64_t size = wal->size_bytes();
    Status st = [&]() -> Status {
      Span write("write", e);
      std::vector<StoredNode> paras;
      {
        Span locate("locate", e);
        OXML_ASSIGN_OR_RETURN(paras,
                              EvaluateXPath(store, Sec(section) + "/para"));
      }
      if (paras.size() != static_cast<size_t>(w.paragraphs)) {
        return Status::Internal("section lost paragraphs");
      }
      Span move("move", e);
      OXML_ASSIGN_OR_RETURN(
          s.update, store->MoveSubtree(paras[from], paras[to],
                                       InsertPosition::kBefore));
      return Status::OK();
    }();
    s.latency_ns = NowNs() - due;
    s.ok = st.ok();
    s.wal_bytes = wal->bytes_appended() - bytes;
    s.wal_images = wal->page_images() - images;
    s.wal_syncs = wal->syncs() - syncs;
    s.checkpoint = wal->size_bytes() < size;
    if (!st.ok()) sh->Fail(false, std::string("move on ") + kEncName[e] +
                                      ": " + st.ToString());
    samples->push_back(s);
  }
}

// ------------------------------------------------------------- reporting

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

/// Engine, pool and server counters, read while the load runs (all are
/// relaxed atomics).
struct Counters {
  ExecStats exec;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t snapshot_reads = 0;
  uint64_t frames = 0;
  uint64_t protocol_errors = 0;
  uint64_t admission_rejected = 0;

  static Counters Read(Served* s) {
    Counters c;
    c.exec = *s->db->stats();
    BufferPool* pool = s->db->buffer_pool();
    c.buffer_hits = pool->hit_count();
    c.buffer_misses = pool->miss_count();
    c.snapshot_reads = pool->snapshot_read_count();
    c.frames = s->server->stats()->frames_received.load();
    c.protocol_errors = s->server->stats()->protocol_errors.load();
    c.admission_rejected =
        s->server->session_manager()->admission_stats().rejected.load();
    return c;
  }
};

/// Per-page-view layer times of the replay phase, by encoding.
struct Replay {
  std::vector<double> eval_ms[kEncodings];
  std::vector<double> reconstruct_ms[kEncodings];
  std::vector<double> overhead_ms;
  std::vector<double> write_ms;
  uint64_t statements[kEncodings] = {};
  uint64_t results[kEncodings] = {};
  uint64_t bytes = 0;
  int views_per_encoding = 0;
};

/// Single client, nothing else running: each page view is sent once over
/// the wire and once decomposed into EvaluateXPath -> ReconstructSubtree
/// per node -> WriteXml, so the server's share is wire - (eval +
/// reconstruct + write).
Replay RunReplay(Shared* sh, uint64_t seed, int views_per_encoding) {
  const Workload& w = *sh->w;
  Replay r;
  r.views_per_encoding = views_per_encoding;
  auto conn = Must(Connect(sh->port), "replay connect");
  Random rng(Mix(seed, 2000));
  std::vector<std::vector<size_t>> views(views_per_encoding);
  for (std::vector<size_t>& view : views) view = w.page_view(&rng);
  for (int e = 0; e < kEncodings; ++e) {
    for (const std::vector<size_t>& view : views) {
      Span span("replay", e);
      int64_t wire_ns = 0;
      for (size_t idx : view) {
        int64_t t0 = NowNs();
        auto got = Must(Wire(conn.get(), w.universe[idx], e,
                             /*prepared=*/false),
                        "replay");
        wire_ns += NowNs() - t0;
        Check(sh, idx, e, got);
      }
      Breakdown b;
      uint64_t statements_before = sh->served->db->stats()->statements;
      for (size_t idx : view) {
        const Statement& st = w.universe[idx];
        Span embedded("embedded", e);
        Check(sh, idx, e,
              Must(Embedded(sh->served->StoreFor(st, e), st, &b), "replay"));
      }
      r.statements[e] +=
          sh->served->db->stats()->statements - statements_before;
      r.results[e] += b.results;
      r.bytes += b.bytes;
      r.eval_ms[e].push_back(b.eval_ns / 1e6);
      r.reconstruct_ms[e].push_back(b.reconstruct_ns / 1e6);
      r.write_ms.push_back(b.write_ns / 1e6);
      r.overhead_ms.push_back(
          (wire_ns - b.eval_ns - b.reconstruct_ns - b.write_ns) / 1e6);
    }
  }
  (void)conn->Goodbye();
  return r;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------- run

/// Everything one run measured.
struct RunData {
  double generate_ms = 0;
  double xml_bytes = 0;
  std::vector<double> setup_s;
  std::vector<double> load_ms[kEncodings];
  double storage_ratio = 0;
  std::vector<OpSample> reads;      // page views started in the window
  std::vector<WriteSample> writes;  // every tick; in_window marks the window
  Counters before, after;           // at the window's edges
  double slice_s[2] = {0, 0};       // untraced / traced seconds of the window
  Replay replay;
};

/// The window's outcomes, counted once for both metric sets.
struct Tally {
  uint64_t attempted = 0;
  uint64_t done = 0;                // completed reads + writes
  uint64_t reads_done[2] = {0, 0};  // by slice: untraced, traced
  uint64_t statements_sent = 0;
  std::vector<double> read_ms[kEncodings];
  std::vector<double> write_ms[kEncodings];
  std::vector<const WriteSample*> writes_done;

  explicit Tally(const RunData& d) {
    for (const OpSample& s : d.reads) {
      ++attempted;
      statements_sent += s.statements;
      if (!s.ok) continue;
      ++done;
      ++reads_done[s.traced ? 1 : 0];
      read_ms[s.enc].push_back(s.latency_ns / 1e6);
    }
    for (const WriteSample& s : d.writes) {
      if (!s.in_window) continue;
      ++attempted;
      if (!s.ok) continue;
      ++done;
      write_ms[s.enc].push_back(s.latency_ns / 1e6);
      writes_done.push_back(&s);
    }
  }
};

std::vector<Metric> EndToEndMetrics(const RunData& d, const Tally& t,
                                    double seconds) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Percentile(d.setup_s, 50), "s"});
  m.push_back({"ops_per_s", static_cast<double>(t.done) / seconds, "1/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  for (int p : {50, 90}) {
    for (int e = 0; e < kEncodings; ++e) {
      m.push_back({"read_p" + std::to_string(p) + "_ms." + kEncName[e],
                   Percentile(t.read_ms[e], p), "ms"});
    }
  }
  return m;
}

std::vector<Metric> PerLayerMetrics(const RunData& d, const Tally& t,
                                    uint64_t queued_peak, int64_t window_start,
                                    int64_t window_end) {
  // Latencies of the spans recorded in the window's traced slices, by name
  // and by (name, encoding).
  std::map<std::string, std::vector<double>> spans;
  std::map<std::pair<std::string, int>, std::vector<double>> enc_spans;
  for (const SpanRecord& s : Tracer::Get().Collect()) {
    if (s.start_ns < window_start || s.start_ns >= window_end) continue;
    double ms = (s.end_ns - s.start_ns) / 1e6;
    spans[s.name].push_back(ms);
    enc_spans[{s.name, s.tag}].push_back(ms);
  }
  auto span_p50 = [&spans](std::initializer_list<const char*> names) {
    std::vector<double> all;
    for (const char* name : names) {
      const std::vector<double>& v = spans[name];
      all.insert(all.end(), v.begin(), v.end());
    }
    return Percentile(all, 50);
  };
  auto enc_span_p50 = [&enc_spans](const char* name, int e) {
    return Percentile(enc_spans[{name, e}], 50);
  };
  const ExecStats& a = d.after.exec;
  const ExecStats& b = d.before.exec;
  const double done = static_cast<double>(t.done);
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  double wal_bytes = 0, wal_images = 0, wal_syncs = 0, checkpoints = 0;
  double writes[kEncodings] = {}, renumbered[kEncodings] = {},
         renumbers[kEncodings] = {}, sql[kEncodings] = {};
  for (const WriteSample* s : t.writes_done) {
    wal_bytes += static_cast<double>(s->wal_bytes);
    wal_images += static_cast<double>(s->wal_images);
    wal_syncs += static_cast<double>(s->wal_syncs);
    checkpoints += s->checkpoint ? 1 : 0;
    writes[s->enc] += 1;
    renumbered[s->enc] += static_cast<double>(s->update.rows_renumbered);
    renumbers[s->enc] += s->update.renumbering_triggered ? 1 : 0;
    sql[s->enc] += static_cast<double>(s->update.statements);
  }
  const double writes_done = static_cast<double>(t.writes_done.size());
  const Replay& r = d.replay;
  const double views = r.views_per_encoding;

  std::vector<Metric> m;
  m.push_back({"error_rate",
               Ratio(static_cast<double>(t.attempted - t.done), t.attempted),
               "ratio"});
  for (int e = 0; e < kEncodings; ++e) {
    std::string enc = kEncName[e];
    m.push_back({"write_p50_ms." + enc, Percentile(t.write_ms[e], 50), "ms"});
    m.push_back({"write_p99_ms." + enc, Percentile(t.write_ms[e], 99), "ms"});
  }

  m.push_back({"server.statement_ms",
               span_p50({"xpath", "query", "query_prepared"}),
               "ms"});
  m.push_back({"server.overhead_ms", Percentile(r.overhead_ms, 50), "ms"});
  m.push_back({"server.connect_ms", span_p50({"connect"}), "ms"});
  m.push_back({"server.goodbye_ms", span_p50({"goodbye"}), "ms"});
  m.push_back({"server.frames_per_statement",
               Ratio(delta(d.after.frames, d.before.frames), t.statements_sent),
               "count"});
  m.push_back({"server.admission_rejected",
               delta(d.after.admission_rejected, d.before.admission_rejected),
               "count"});
  m.push_back({"server.admission_queued_peak",
               static_cast<double>(queued_peak), "count"});
  m.push_back({"server.protocol_errors",
               delta(d.after.protocol_errors, d.before.protocol_errors),
               "count"});

  const double plan_hits = delta(a.plan_cache_hits, b.plan_cache_hits);
  const double buffer_hits = delta(d.after.buffer_hits, d.before.buffer_hits);
  const double buffer_misses =
      delta(d.after.buffer_misses, d.before.buffer_misses);
  m.push_back({"relational.plan_cache_hit_rate",
               Ratio(plan_hits, plan_hits + delta(a.plan_cache_misses,
                                                  b.plan_cache_misses)),
               "ratio"});
  m.push_back({"relational.parse_plan_us_per_op",
               Ratio(delta(a.parse_plan_ns, b.parse_plan_ns) / 1e3, done),
               "us"});
  m.push_back({"relational.rows_scanned_per_op",
               Ratio(delta(a.rows_scanned, b.rows_scanned), done), "count"});
  m.push_back({"relational.index_probes_per_op",
               Ratio(delta(a.index_probes, b.index_probes), done), "count"});
  m.push_back({"relational.sorts_per_op",
               Ratio(delta(a.sorts_performed, b.sorts_performed), done),
               "count"});
  m.push_back({"relational.sorts_elided_per_op",
               Ratio(delta(a.sorts_elided, b.sorts_elided), done), "count"});
  m.push_back({"relational.buffer_hit_rate",
               Ratio(buffer_hits, buffer_hits + buffer_misses), "ratio"});
  m.push_back({"relational.buffer_misses_per_op", Ratio(buffer_misses, done),
               "count"});
  m.push_back({"relational.snapshot_reads_per_op",
               Ratio(delta(d.after.snapshot_reads, d.before.snapshot_reads),
                     done),
               "count"});
  m.push_back({"relational.wal_bytes_per_write", Ratio(wal_bytes, writes_done),
               "B"});
  m.push_back({"relational.wal_page_images_per_write",
               Ratio(wal_images, writes_done), "count"});
  m.push_back({"relational.wal_syncs_per_write", Ratio(wal_syncs, writes_done),
               "count"});
  m.push_back({"relational.wal_checkpoints", checkpoints, "count"});
  m.push_back({"relational.storage_bytes_per_xml_byte", d.storage_ratio,
               "ratio"});
  for (int e = 0; e < kEncodings; ++e) {
    m.push_back({std::string("relational.statements_per_read.") + kEncName[e],
                 Ratio(static_cast<double>(r.statements[e]), views), "count"});
  }

  for (int e = 0; e < kEncodings; ++e) {
    std::string enc = kEncName[e];
    m.push_back({"core.xpath_eval_ms." + enc, Percentile(r.eval_ms[e], 50),
                 "ms"});
    m.push_back({"core.reconstruct_ms." + enc,
                 Percentile(r.reconstruct_ms[e], 50), "ms"});
    m.push_back({"core.results_per_read." + enc,
                 Ratio(static_cast<double>(r.results[e]), views), "count"});
    m.push_back({"core.load_ms." + enc, Percentile(d.load_ms[e], 50), "ms"});
    m.push_back({"core.locate_ms." + enc, enc_span_p50("locate", e), "ms"});
    m.push_back({"core.move_ms." + enc, enc_span_p50("move", e), "ms"});
    m.push_back({"core.rows_renumbered_per_write." + enc,
                 Ratio(renumbered[e], writes[e]), "count"});
    m.push_back({"core.renumber_rate." + enc, Ratio(renumbers[e], writes[e]),
                 "ratio"});
    m.push_back({"core.sql_per_write." + enc, Ratio(sql[e], writes[e]),
                 "count"});
  }

  m.push_back({"xml.write_ms", Percentile(r.write_ms, 50), "ms"});
  m.push_back({"xml.bytes_per_read",
               Ratio(static_cast<double>(r.bytes), kEncodings * views), "B"});
  m.push_back({"xml.generate_ms", d.generate_ms, "ms"});

  const double untraced = Ratio(t.reads_done[0], d.slice_s[0]);
  const double traced = Ratio(t.reads_done[1], d.slice_s[1]);
  m.push_back({"bench.trace_overhead_pct",
               100.0 * Ratio(untraced - traced, untraced), "%"});
  return m;
}

/// mixed_move's end state: every move_* store is valid, and all three
/// reconstruct to the same bytes.
bool MoveStoresAgree(Served* served) {
  bool agree = true;
  std::string global;
  for (int e = 0; e < kEncodings; ++e) {
    Status valid = served->move[e]->Validate();
    auto rebuilt = served->move[e]->ReconstructDocument();
    if (!valid.ok() || !rebuilt.ok()) {
      std::fprintf(stderr, "bench_e2e: move_%s is broken: %s\n", kEncName[e],
                   (valid.ok() ? rebuilt.status() : valid).ToString().c_str());
      agree = false;
      continue;
    }
    std::string bytes = WriteXml(**rebuilt);
    if (e == 0) global = std::move(bytes);
    if (e > 0 && bytes != global) {
      std::fprintf(stderr, "bench_e2e: move_%s differs from move_global\n",
                   kEncName[e]);
      agree = false;
    }
  }
  return agree;
}

void SleepUntil(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

int RunWorkload(const Flags& flags) {
  const Workload w = MakeWorkload(flags.workload, flags.smoke);
  const double warmup_s = flags.smoke ? 0.5 : 2.0;
  const int rounds_before = flags.smoke ? 1 : 3;
  const int rounds_after = flags.smoke ? 1 : 2;
  const double round_s = flags.smoke ? 0 : 0.5;
  const int replay_views = flags.smoke ? 2 : 8;
  const int clients = 3;
  RunData d;

  std::error_code ec;
  std::filesystem::create_directories(flags.data_dir, ec);
  const std::string db_path = flags.data_dir + "/" + w.name + "-" +
                              std::to_string(::getpid()) + ".db";

  // Inputs: the document and every request stream derive from --seed.
  NewsGeneratorOptions gen;
  gen.seed = flags.seed;
  gen.sections = w.sections;
  gen.paragraphs_per_section = w.paragraphs;
  int64_t t0 = NowNs();
  std::unique_ptr<XmlDocument> doc = GenerateNewsXml(gen);
  d.generate_ms = (NowNs() - t0) / 1e6;
  d.xml_bytes = static_cast<double>(WriteXml(*doc).size());

  // Set-up: loads into fresh databases, in rounds that repeat the load for
  // at least `round_s`; a round's sample is its mean set-up time, and
  // setup_s is the median of the rounds. Rounds run both before and after
  // the window: on a shared host the speed drifts within seconds, and
  // rounds taken back to back sample one moment of that drift. The last
  // load before the window is served.
  auto set_up_round = [&]() {
    std::unique_ptr<Served> last;
    int64_t round_ns = 0;
    int loads = 0;
    while (loads == 0 || round_ns < round_s * 1e9) {
      last.reset();
      int64_t load_ns[kEncodings];
      int64_t s0 = NowNs();
      last = Serve(w, *doc, db_path, load_ns);
      round_ns += NowNs() - s0;
      ++loads;
      for (int e = 0; e < kEncodings; ++e) {
        d.load_ms[e].push_back(load_ns[e] / 1e6);
      }
    }
    d.setup_s.push_back(round_ns / 1e9 / loads);
    return last;
  };
  std::unique_ptr<Served> served;
  for (int round = 0; round < rounds_before; ++round) {
    served.reset();
    served = set_up_round();
  }
  const int stores = w.moves_per_s > 0 ? 2 * kEncodings : kEncodings;
  StorageStats storage = served->db->GetStorageStats();
  d.storage_ratio = (static_cast<double>(storage.heap_pages) * kPageSize +
                     static_cast<double>(storage.index_bytes)) /
                    (stores * d.xml_bytes);

  // The oracle: every statement's answer from each encoding, embedded;
  // the three encodings must agree before any client starts.
  Shared sh;
  sh.w = &w;
  sh.served = served.get();
  sh.port = served->server->port();
  for (int e = 0; e < kEncodings; ++e) {
    std::vector<std::vector<std::string>> answers;
    if (w.derive_answers) {
      answers = Must(w.derive_answers(served->doc[e].get()), "oracle");
    } else {
      for (const Statement& st : w.universe) {
        Breakdown b;
        answers.push_back(Must(Embedded(served->StoreFor(st, e), st, &b),
                               "oracle " + st.text));
      }
    }
    if (e == 0) {
      sh.expected = std::move(answers);
    } else if (answers != sh.expected) {
      std::fprintf(stderr, "bench_e2e: %s disagrees with global\n",
                   kEncName[e]);
      return 1;
    }
  }

  // Load: closed-loop clients (and the open-loop writer) through the
  // warm-up and the window.
  const int64_t start_ns = NowNs();
  sh.window_start_ns = start_ns + static_cast<int64_t>(warmup_s * 1e9);
  sh.window_end_ns =
      sh.window_start_ns + static_cast<int64_t>(flags.seconds * 1e9);
  std::vector<std::vector<OpSample>> reads(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, &sh, c, flags.seed, &reads[c]);
  }
  if (w.moves_per_s > 0) {
    const int64_t warm_ticks = std::llround(warmup_s * w.moves_per_s);
    const int64_t total_ticks =
        warm_ticks + std::llround(flags.seconds * w.moves_per_s);
    threads.emplace_back(RunWriter, &sh, flags.seed, start_ns, warm_ticks,
                         total_ticks, &d.writes);
  }
  SleepUntil(sh.window_start_ns);
  d.before = Counters::Read(served.get());
  if (flags.trace) {
    // Spans are recorded in every other half-second slice; a request takes
    // the slice it starts in, so the traced and untraced rates come from
    // one window.
    int64_t slice_start = sh.window_start_ns;
    for (int k = 0; slice_start < sh.window_end_ns; ++k) {
      int64_t slice_end = std::min(sh.window_end_ns, slice_start + 500000000);
      Tracer::Get().set_enabled(k % 2 == 1);
      SleepUntil(slice_end);
      d.slice_s[k % 2] += (slice_end - slice_start) / 1e9;
      slice_start = slice_end;
    }
    Tracer::Get().set_enabled(false);
  } else {
    SleepUntil(sh.window_end_ns);
  }
  d.after = Counters::Read(served.get());
  for (std::thread& t : threads) t.join();
  for (const auto& v : reads) d.reads.insert(d.reads.end(), v.begin(), v.end());

  bool correct = w.moves_per_s == 0 || MoveStoresAgree(served.get());
  if (flags.trace) {
    Tracer::Get().set_enabled(true);
    d.replay = RunReplay(&sh, flags.seed, replay_views);
    Tracer::Get().set_enabled(false);
  }
  correct = correct && sh.wrong == 0;

  const uint64_t queued_peak =
      served->server->session_manager()->admission_stats().queued_peak.load();
  served.reset();
  for (int round = 0; round < rounds_after; ++round) set_up_round();
  std::filesystem::remove(db_path, ec);
  std::filesystem::remove(db_path + ".wal", ec);

  const Tally t(d);
  const std::vector<Metric> metrics =
      flags.trace ? PerLayerMetrics(d, t, queued_peak, sh.window_start_ns,
                                    sh.window_end_ns)
                  : EndToEndMetrics(d, t, flags.seconds);

  // ---- output
  const uint64_t failed = t.attempted - t.done;
  std::printf("workload %s seed %llu window %.1fs%s: %llu attempted, %llu "
              "failed, %llu wrong answers\n",
              w.name.c_str(), static_cast<unsigned long long>(flags.seed),
              flags.seconds, flags.trace ? " (traced)" : "",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(sh.wrong));
  for (const std::string& e : sh.first_errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  for (const Metric& x : metrics) {
    std::printf("  %-42s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  if (flags.trace && !flags.trace_file.empty() &&
      !Tracer::Get().WriteChromeTrace(flags.trace_file)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                 flags.trace_file.c_str());
  }
  std::string line = ResultJson(correct, t.attempted, failed, metrics);
  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "a");
    if (f == nullptr) Die("cannot open " + flags.json_path);
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, %s\n",
                 w.name.c_str(), static_cast<unsigned long long>(flags.seed),
                 flags.trace ? 1 : 0, line.c_str() + 1);
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// --workload all: every workload in its own child process, so each one's
/// peak RSS is its own.
int RunAll(int argc, char** argv) {
  int worst = 0;
  for (const char* name : kWorkloads) {
    std::vector<std::string> args{argv[0]};
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--workload") {
        ++i;
        continue;
      }
      if (a.rfind("--workload=", 0) == 0) continue;
      if (a == "--trace-file" && i + 1 < argc) {
        args.push_back(a);
        args.push_back(std::string(argv[++i]) + "." + name);
        continue;
      }
      args.push_back(a);
    }
    args.push_back("--workload");
    args.push_back(name);
    std::vector<char*> cargv;
    for (std::string& a : args) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargv.data(),
                    environ) != 0) {
      Die("cannot spawn a child for " + std::string(name));
    }
    int status = 0;
    pid_t waited = 0;
    do {
      waited = waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    int code = waited == pid && WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    if (code != 0) {
      std::fprintf(stderr, "bench_e2e: workload %s exited with %d\n", name,
                   code);
      worst = std::max(worst, code);
    }
  }
  return worst;
}

}  // namespace
}  // namespace bench_e2e
}  // namespace oxml

int main(int argc, char** argv) {
  using namespace oxml::bench_e2e;
  Flags flags = ParseFlags(argc, argv);
  if (flags.workload == "all") return RunAll(argc, argv);
  return RunWorkload(flags);
}
