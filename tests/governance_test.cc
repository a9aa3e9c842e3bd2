// Resource governance: statement deadlines, cooperative cancellation,
// memory budgets, and disk-full degradation (docs/INTERNALS.md §12).
//
// Deadline tests avoid sleeps: a pre-expired QueryControl installed through
// the public ScopedStatementContext makes the next statement on this thread
// fail at its first cooperative check point, deterministically. The
// database-level timeout path (StatementOptions / DatabaseOptions) is
// exercised with a 1 ms deadline against a query whose cross products are
// far too large to finish in that time.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/relational/fault_injection.h"
#include "src/relational/query_control.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

// Installs a control whose deadline has already passed on the current
// thread for the lifetime of the object: the next statement (which
// inherits the installed control) fails deterministically at its first
// cooperative check point — no sleeps, no timing dependence.
struct ExpiredDeadlineScope {
  ExpiredDeadlineScope() {
    ctl.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
    StatementContext ctx;
    ctx.control = &ctl;
    scope.emplace(ctx);
  }
  QueryControl ctl;
  std::optional<ScopedStatementContext> scope;
};

// ------------------------------------------------- deadlines on the stores

class GovernanceEncodingTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  void SetUp() override {
    NewsGeneratorOptions gen;
    gen.seed = 11;
    gen.sections = 40;
    gen.paragraphs_per_section = 5;
    doc_ = GenerateNewsXml(gen);
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db_.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok()) << sr.status();
    store_ = std::move(sr).value();
    ASSERT_TRUE(store_->LoadDocument(*doc_).ok());
  }

  std::unique_ptr<XmlDocument> doc_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
};

TEST_P(GovernanceEncodingTest, ExpiredDeadlineAbortsScansOnEveryEncoding) {
  {
    ExpiredDeadlineScope expired;
    // Nested statements inherit the installed control, so every driver
    // query dies at its first operator check point.
    auto r = EvaluateXPath(store_.get(), "//para");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  }
  // The deadline left nothing behind: the same scan now completes.
  auto r = EvaluateXPath(store_.get(), "//para");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 200u);
  EXPECT_TRUE(store_->Validate().ok());
}

TEST_P(GovernanceEncodingTest, TimedOutMutationRollsBackCompletely) {
  std::string before;
  {
    auto rec = store_->ReconstructDocument();
    ASSERT_TRUE(rec.ok());
    before = WriteXml(**rec);
  }
  {
    ExpiredDeadlineScope expired;
    auto sections = [&]() -> Result<std::vector<StoredNode>> {
      // Resolve the target outside the expired window? No — resolving
      // also trips the deadline, which is itself part of the contract.
      return EvaluateXPath(store_.get(), "/nitf/body/section");
    }();
    ASSERT_FALSE(sections.ok());
    EXPECT_TRUE(sections.status().IsDeadlineExceeded());
  }
  auto sections = EvaluateXPath(store_.get(), "/nitf/body/section");
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_FALSE(sections->empty());
  {
    ExpiredDeadlineScope expired;
    auto frag = ParseXml("<section id=\"gx\"><para>doomed</para></section>");
    ASSERT_TRUE(frag.ok());
    auto ins = store_->InsertSubtree(sections->front(), InsertPosition::kAfter,
                                     *(*frag)->root_element());
    ASSERT_FALSE(ins.ok());
    EXPECT_TRUE(ins.status().IsDeadlineExceeded()) << ins.status();
  }
  // The failed mutation rolled back: document byte-identical, store valid,
  // and the next mutation succeeds.
  EXPECT_TRUE(store_->Validate().ok());
  {
    auto rec = store_->ReconstructDocument();
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(WriteXml(**rec), before);
  }
  auto frag = ParseXml("<section id=\"ok\"><para>fine</para></section>");
  ASSERT_TRUE(frag.ok());
  auto ins = store_->InsertSubtree(sections->front(), InsertPosition::kAfter,
                                   *(*frag)->root_element());
  EXPECT_TRUE(ins.ok()) << ins.status();
}

// QR-style ordered queries with generous limits configured must return
// exactly what an ungoverned database returns, with no counter tripped.
TEST_P(GovernanceEncodingTest, GenerousLimitsLeaveQueriesUnaffected) {
  DatabaseOptions governed;
  governed.default_statement_timeout_ms = 60'000;
  governed.statement_memory_budget_bytes = 1ull << 30;
  governed.total_memory_budget_bytes = 2ull << 30;
  auto dbr = Database::Open(governed);
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  auto sr = OrderedXmlStore::Create(dbr->get(), GetParam(), {.gap = 8});
  ASSERT_TRUE(sr.ok()) << sr.status();
  ASSERT_TRUE((*sr)->LoadDocument(*doc_).ok());

  const char* queries[] = {
      "//para",
      "/nitf/body/section[5]/title",
      "/nitf/body/section[last()]/para[last()]",
      "//section[@id = 's10']/following-sibling::section",
      "/nitf/body//para",
      "//para[@class = 'lead']",
      "/nitf/body/section[position() >= 20]/title",
  };
  for (const char* q : queries) {
    auto plain = EvaluateXPath(store_.get(), q);
    auto governed_r = EvaluateXPath(sr->get(), q);
    ASSERT_TRUE(plain.ok()) << q << ": " << plain.status();
    ASSERT_TRUE(governed_r.ok()) << q << ": " << governed_r.status();
    EXPECT_EQ(plain->size(), governed_r->size()) << q;
  }
  auto plain_doc = store_->ReconstructDocument();
  auto governed_doc = (*sr)->ReconstructDocument();
  ASSERT_TRUE(plain_doc.ok());
  ASSERT_TRUE(governed_doc.ok());
  EXPECT_EQ(WriteXml(**plain_doc), WriteXml(**governed_doc));

  ExecStats* stats = (*dbr)->stats();
  EXPECT_EQ(stats->statements_timed_out, 0u);
  EXPECT_EQ(stats->statements_cancelled, 0u);
  EXPECT_EQ(stats->mem_budget_rejections, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, GovernanceEncodingTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

// ------------------------------------------------ deadlines on SQL plans

class GovernanceSqlTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions opts) {
    auto dbr = Database::Open(opts);
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
    Must("CREATE TABLE t (id INT, grp INT, payload TEXT)");
    std::string filler(60, 'x');
    for (int i = 0; i < 400; ++i) {
      Must("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 7) + ", '" + filler + std::to_string(i) +
           "')");
    }
  }

  void Must(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(GovernanceSqlTest, ExpiredDeadlineAbortsSortAndJoin) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = true;
  opts.num_threads = 2;
  Open(opts);
  const char* statements[] = {
      // Mid-sort: ORDER BY on a non-key expression forces a SortOp.
      "SELECT id FROM t ORDER BY payload",
      // Mid-join: self cross join, big enough for the parallel operators.
      "SELECT a.id FROM t a, t b WHERE a.grp = b.grp",
  };
  for (const char* sql : statements) {
    {
      ExpiredDeadlineScope expired;
      auto r = db_->Query(sql);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_TRUE(r.status().IsDeadlineExceeded()) << sql << ": "
                                                   << r.status();
    }
    auto r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " after the deadline scope: "
                        << r.status();
  }
}

TEST_F(GovernanceSqlTest, StatementTimeoutOverrideTripsAndIsTallied) {
  Open(DatabaseOptions{});
  // Inequality predicates keep this a nested-loop cross product (~64M
  // iterations): unfinishable in 1 ms, so the deadline check at the
  // operator boundaries must fire.
  StatementOptions sopts;
  sopts.timeout_ms = 1;
  auto r = db_->Query(
      "SELECT a.id FROM t a, t b, t c WHERE a.id < b.id AND b.id < c.id",
      sopts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  EXPECT_EQ(db_->stats()->statements_timed_out, 1u);
  // Per-call override, not a sticky setting: the same query unbounded
  // completes.
  auto ok = db_->Query("SELECT id FROM t WHERE id = 3");
  EXPECT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(db_->stats()->statements_timed_out, 1u);
}

TEST_F(GovernanceSqlTest, DefaultStatementTimeoutAppliesToEveryStatement) {
  DatabaseOptions opts;
  // Generous enough that the setup inserts never trip it (even under
  // TSan), yet hopeless for the 64M-iteration cross product below.
  opts.default_statement_timeout_ms = 500;
  {
    auto dbr = Database::Open(opts);
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
  }
  Must("CREATE TABLE t (id INT, grp INT, payload TEXT)");
  for (int i = 0; i < 400; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
         std::to_string(i % 7) + ", 'p')");
  }
  auto r = db_->Query(
      "SELECT a.id FROM t a, t b, t c WHERE a.id < b.id AND b.id < c.id");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  // A per-call override of 0 disables the database default.
  StatementOptions unbounded;
  unbounded.timeout_ms = 0;
  auto ok = db_->Query("SELECT id FROM t WHERE id = 3", unbounded);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// ------------------------------------------------------------ cancellation

TEST_F(GovernanceSqlTest, CancelUnknownStatementIsNotFound) {
  Open(DatabaseOptions{});
  Status st = db_->Cancel(999'999);
  EXPECT_TRUE(st.IsNotFound()) << st;
}

TEST_F(GovernanceSqlTest, StatementIdOutParamIsFilled) {
  Open(DatabaseOptions{});
  uint64_t id = 0;
  StatementOptions sopts;
  sopts.statement_id = &id;
  auto r = db_->Query("SELECT id FROM t WHERE id = 1", sopts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(id, 0u);
  // The statement is finished, so cancelling it now is a clean NotFound.
  EXPECT_TRUE(db_->Cancel(id).IsNotFound());
}

// Cross-thread cancel stress (primarily a TSan target): one thread runs
// heavy queries while another sweeps Cancel over the live statement-id
// window. Every query must either complete correctly or fail with
// kCancelled, and the database must stay fully usable.
TEST_F(GovernanceSqlTest, ConcurrencyCancelRaceStress) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = true;
  opts.num_threads = 2;
  Open(opts);
  const std::string heavy = "SELECT a.id FROM t a, t b WHERE a.grp = b.grp";
  auto baseline = db_->Query(heavy);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t expected_rows = baseline->rows.size();

  uint64_t cancelled_seen = 0;
  for (int iter = 0; iter < 12; ++iter) {
    std::atomic<bool> done{false};
    uint64_t base = db_->next_statement_id();
    std::thread canceller([&] {
      while (!done.load(std::memory_order_acquire)) {
        uint64_t hi = db_->next_statement_id();
        for (uint64_t id = base; id <= hi; ++id) {
          (void)db_->Cancel(id);  // NotFound = raced completion; fine
        }
        std::this_thread::yield();
      }
    });
    auto r = db_->Query(heavy);
    done.store(true, std::memory_order_release);
    canceller.join();
    if (r.ok()) {
      EXPECT_EQ(r->rows.size(), expected_rows) << "iteration " << iter;
    } else {
      EXPECT_TRUE(r.status().IsCancelled()) << "iteration " << iter << ": "
                                            << r.status();
      ++cancelled_seen;
    }
    // Whatever the race outcome, the next statement runs normally.
    auto after = db_->Query("SELECT id FROM t WHERE id = 1");
    ASSERT_TRUE(after.ok()) << "iteration " << iter << ": "
                            << after.status();
  }
  EXPECT_EQ(db_->stats()->statements_cancelled, cancelled_seen);
}

// --------------------------------------------------------- memory budgets

TEST_F(GovernanceSqlTest, StatementBudgetRejectsBigSortAndLeavesNoResidue) {
  DatabaseOptions opts;
  // Below one BudgetCharger batch (32 KiB), so the first charge of the
  // sort's ~44 KiB materialization must be rejected.
  opts.statement_memory_budget_bytes = 16 * 1024;
  // A small bounded pool doubles as the pinned-page leak detector: if a
  // rejected statement leaked pins, repeated rejections would exhaust the
  // pool and the final scan would fail.
  opts.buffer_capacity = 64;
  Open(opts);

  for (int iter = 0; iter < 20; ++iter) {
    auto r = db_->Query("SELECT * FROM t ORDER BY payload");
    ASSERT_FALSE(r.ok()) << "iteration " << iter;
    EXPECT_TRUE(r.status().IsResourceExhausted())
        << "iteration " << iter << ": " << r.status();
  }
  EXPECT_EQ(db_->stats()->mem_budget_rejections, 20u);
  // The failed statements released every reservation.
  EXPECT_EQ(db_->global_memory_budget()->used.load(), 0u);

  // Statements under the budget still run: an unsorted scan streams rows
  // without materializing, and a checkpoint works.
  auto scan = db_->Query("SELECT id FROM t WHERE grp = 3");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_GT(scan->rows.size(), 0u);
  EXPECT_TRUE(db_->Checkpoint().ok());
  auto ins = db_->Execute("INSERT INTO t VALUES (9000, 1, 'after')");
  EXPECT_TRUE(ins.ok()) << ins.status();
}

TEST_F(GovernanceSqlTest, GlobalBudgetCapsConcurrentStatements) {
  DatabaseOptions opts;
  opts.total_memory_budget_bytes = 16 * 1024;
  Open(opts);
  auto r = db_->Query("SELECT * FROM t ORDER BY payload");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  EXPECT_EQ(db_->stats()->mem_budget_rejections, 1u);
  EXPECT_EQ(db_->global_memory_budget()->used.load(), 0u);
  auto ok = db_->Query("SELECT id FROM t WHERE id = 5");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// ------------------------------------------------------------- disk full

TEST_F(GovernanceSqlTest, EnospcThenSpaceReturnsKeepsDatabaseWritable) {
  std::string path = ::testing::TempDir() + "/governance_enospc_" +
                     std::to_string(::getpid()) + ".db";
  auto plan = std::make_shared<FaultPlan>();
  plan->Arm(0, FaultPlan::Mode::kNone);
  DatabaseOptions opts;
  opts.file_path = path;
  opts.fault_plan = plan;
  {
    auto dbr = Database::Open(opts);
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto& db = *dbr;
    ASSERT_TRUE(db->Execute("CREATE TABLE kv (k INT, v TEXT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO kv VALUES (1, 'one')").ok());

    // The disk fills: every write-class I/O fails until space returns.
    plan->Arm(1, FaultPlan::Mode::kEnospc);
    auto ins = db->Execute("INSERT INTO kv VALUES (2, 'two')");
    ASSERT_FALSE(ins.ok());
    EXPECT_NE(ins.status().ToString().find("No space left on device"),
              std::string::npos)
        << ins.status();
    // Reads keep working on a full disk.
    auto sel = db->Query("SELECT v FROM kv WHERE k = 1");
    ASSERT_TRUE(sel.ok()) << sel.status();
    ASSERT_EQ(sel->rows.size(), 1u);

    // Space returns: the database is writable again, nothing lost.
    plan->Arm(0, FaultPlan::Mode::kNone);
    EXPECT_TRUE(db->Execute("INSERT INTO kv VALUES (3, 'three')").ok());
    ASSERT_TRUE(db->Close().ok());
  }
  DatabaseOptions reopen;
  reopen.file_path = path;
  reopen.open_existing = true;
  auto dbr = Database::Open(reopen);
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  auto rows = (*dbr)->Query("SELECT k FROM kv");
  ASSERT_TRUE(rows.ok()) << rows.status();
  // The ENOSPC-failed insert rolled back; 1 and 3 survived.
  EXPECT_EQ(rows->rows.size(), 2u);
}

}  // namespace
}  // namespace oxml
