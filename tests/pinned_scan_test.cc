// The pin and tally discipline of the copy-free read path: an index scan
// decodes each row straight from its pinned heap page and unpins it before
// Next() returns. Whatever ends a statement, the pool must hold no pinned
// frame afterwards, and ExecStats::rows_scanned must equal the rows the
// scans produced.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/relational/database.h"
#include "src/relational/executor.h"
#include "src/relational/key_codec.h"
#include "src/relational/query_control.h"

namespace oxml {
namespace {

constexpr int kRows = 400;

class PinnedScanTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(DatabaseOptions{}); }

  void Open(DatabaseOptions opts) {
    db_.reset();
    auto dbr = Database::Open(opts);
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
    Must("CREATE TABLE t (a INT, b TEXT)");
    Must("CREATE INDEX t_a ON t (a)");
    // a = 7i mod 400 scatters key order over the ~6 heap pages, so an
    // index scan switches pages as well as reusing its pin.
    std::string filler(100, 'x');
    for (int i = 0; i < kRows; ++i) {
      Must("INSERT INTO t VALUES (" + std::to_string(i * 7 % kRows) + ", '" +
           filler + std::to_string(i) + "')");
    }
  }

  void Must(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  size_t Pinned() const { return db_->buffer_pool()->pinned_frame_count(); }
  uint64_t Scanned() const { return db_->stats()->rows_scanned; }

  std::unique_ptr<Database> db_;
};

TEST_F(PinnedScanTest, FullRangeScanReleasesAndTallies) {
  uint64_t before = Scanned();
  auto rs = db_->Query("SELECT a, b FROM t WHERE a >= 100 AND a < 200");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 100u);
  for (size_t i = 0; i < rs->rows.size(); ++i) {
    EXPECT_EQ(rs->rows[i][0].AsInt(), 100 + static_cast<int64_t>(i));
  }
  EXPECT_EQ(Scanned() - before, 100u);
  EXPECT_EQ(Pinned(), 0u);
}

TEST_F(PinnedScanTest, LimitStoppedScanReleasesItsPin) {
  const std::string sql =
      "SELECT b FROM t WHERE a >= ? ORDER BY a LIMIT ?";
  auto plan = db_->Explain(
      "SELECT b FROM t WHERE a >= 10 ORDER BY a LIMIT 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("Sort"), std::string::npos) << *plan;
  for (int64_t k : {1, 5, 37}) {
    uint64_t before = Scanned();
    auto rs = db_->QueryP(sql, {Value::Int(10), Value::Int(k)});
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(rs->rows.size(), static_cast<size_t>(k));
    EXPECT_EQ(Scanned() - before, static_cast<uint64_t>(k));
    EXPECT_EQ(Pinned(), 0u) << "LIMIT " << k;
  }
}

TEST_F(PinnedScanTest, ExpiredDeadlineLeavesNoPin) {
  QueryControl ctl;
  ctl.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  StatementContext ctx;
  ctx.control = &ctl;
  uint64_t before = Scanned();
  {
    ScopedStatementContext scope(ctx);
    auto rs = db_->Query("SELECT b FROM t WHERE a >= 0");
    ASSERT_FALSE(rs.ok());
    EXPECT_TRUE(rs.status().IsDeadlineExceeded()) << rs.status();
  }
  EXPECT_EQ(Scanned() - before, 0u);  // cut at the first check point
  EXPECT_EQ(Pinned(), 0u);
}

TEST_F(PinnedScanTest, FailedStatementReleasesItsPin) {
  // The filter fails on the first row the scan produces (negating TEXT),
  // once while streaming and once inside a sort's drain in Open().
  for (const char* sql :
       {"SELECT a FROM t WHERE a >= 10 AND -b = 1",
        "SELECT a FROM t WHERE a >= 10 AND -b = 1 ORDER BY b"}) {
    uint64_t before = Scanned();
    auto rs = db_->Query(sql);
    ASSERT_FALSE(rs.ok()) << sql;
    EXPECT_TRUE(rs.status().IsInvalidArgument()) << rs.status();
    EXPECT_EQ(Scanned() - before, 1u) << sql;
    EXPECT_EQ(Pinned(), 0u) << sql;
  }
  // The cached instances still serve a good statement.
  auto ok = db_->Query("SELECT a FROM t WHERE a >= 10 AND a < 12");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 2u);
}

TEST_F(PinnedScanTest, ExplainPinsNothing) {
  auto plan = db_->Explain("SELECT b FROM t WHERE a = 5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Pinned(), 0u);
}

TEST_F(PinnedScanTest, IndexNestedLoopInnerScansReleaseAndTally) {
  Must("CREATE TABLE o (k INT)");
  for (int k : {3, 3, 50, 399, 1000}) {
    Must("INSERT INTO o VALUES (" + std::to_string(k) + ")");
  }
  const std::string sql = "SELECT o.k, t.b FROM o, t WHERE o.k = t.a";
  auto plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("IndexNestedLoopJoin"), std::string::npos) << *plan;
  uint64_t before = Scanned();
  auto rs = db_->Query(sql);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 4u);  // 1000 has no partner
  // 5 outer rows from the sequential scan plus 4 inner rows.
  EXPECT_EQ(Scanned() - before, 9u);
  EXPECT_EQ(Pinned(), 0u);

  // A LIMIT cuts the join in the middle of an inner scan.
  before = Scanned();
  auto one = db_->Query(sql + " LIMIT 1");
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(Scanned() - before, 2u);
  EXPECT_EQ(Pinned(), 0u);
}

// Mid-scan cuts, driven at the operator level so the cut lands after a
// known number of rows: no pin is held between Next() calls, and the rows
// produced before Cancel or the deadline struck are tallied.
TEST_F(PinnedScanTest, CancelAndDeadlineMidScanLeaveNoPin) {
  TableInfo* table = db_->GetTable("t");
  ASSERT_NE(table, nullptr);
  TableIndex* index = table->indexes().front().get();
  ExecStats stats;
  IndexScanOp scan(table, index, table->schema(),
                   EncodeKey({Value::Int(0)}), std::nullopt, 0, &stats);
  for (bool cancel : {true, false}) {
    stats.rows_scanned = 0;
    ASSERT_TRUE(scan.Open().ok());
    Row row;
    for (int i = 0; i < 5; ++i) {
      auto has = scan.Next(&row);
      ASSERT_TRUE(has.ok() && *has);
      EXPECT_EQ(row[0].AsInt(), i);
    }
    EXPECT_EQ(Pinned(), 0u);
    EXPECT_EQ(stats.rows_scanned, 5u);
    QueryControl ctl;
    if (cancel) {
      ctl.Cancel();
    } else {
      ctl.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::seconds(1));
    }
    StatementContext ctx;
    ctx.control = &ctl;
    {
      ScopedStatementContext scope(ctx);
      auto has = scan.Next(&row);
      ASSERT_FALSE(has.ok());
      EXPECT_TRUE(cancel ? has.status().IsCancelled()
                         : has.status().IsDeadlineExceeded())
          << has.status();
    }
    scan.Close();
    EXPECT_EQ(Pinned(), 0u);
    EXPECT_EQ(stats.rows_scanned, 5u);
  }
}

TEST_F(PinnedScanTest, EngineLevelCancelLeavesNoPin) {
  QueryControl ctl;
  ctl.Cancel();
  StatementContext ctx;
  ctx.control = &ctl;
  {
    ScopedStatementContext scope(ctx);
    auto rs = db_->Query("SELECT a, b FROM t WHERE a >= 0");
    ASSERT_FALSE(rs.ok());
    EXPECT_TRUE(rs.status().IsCancelled()) << rs.status();
  }
  EXPECT_EQ(Pinned(), 0u);
}

TEST_F(PinnedScanTest, ConcurrentReadersOnAFourFramePool) {
  DatabaseOptions opts;
  opts.file_path = ::testing::TempDir() + "/pinned_scan_4frames.db";
  opts.buffer_capacity = 4;
  Open(opts);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 40; ++i) {
        int lo = (r * 97 + i * 31) % (kRows - 50);
        auto rs = db_->QueryP("SELECT a, b FROM t WHERE a >= ? AND a < ?",
                              {Value::Int(lo), Value::Int(lo + 50)});
        if (!rs.ok() || rs->rows.size() != 50u) {
          failures.fetch_add(1);
          ADD_FAILURE() << (rs.ok() ? "wrong row count"
                                    : rs.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db_->buffer_pool()->miss_count(), 0u);  // it did evict
  EXPECT_EQ(Pinned(), 0u);
}

// Index nested-loop joins read an outer row and then inner rows; neither
// side keeps a pin between Next() calls, so three joins at once still fit
// a 4-frame pool. The outer rows are padded over several pages and each
// reader keeps to its own third of the keys, so the three outer scans sit
// on different pages: joins that each held a pin on both sides would need
// up to six frames.
TEST_F(PinnedScanTest, ConcurrentIndexNestedLoopJoinsOnAFourFramePool) {
  DatabaseOptions opts;
  opts.file_path = ::testing::TempDir() + "/pinned_scan_inlj_4frames.db";
  opts.buffer_capacity = 4;
  Open(opts);
  Must("CREATE TABLE o (k INT, pad TEXT)");
  Must("CREATE INDEX o_k ON o (k)");
  std::string pad(300, 'p');
  for (int k = 0; k < kRows; k += 3) {
    Must("INSERT INTO o VALUES (" + std::to_string(k) + ", '" + pad + "')");
  }
  const std::string sql =
      "SELECT o.k, t.b FROM o, t WHERE o.k >= ? AND o.k < ? AND o.k = t.a";
  auto plan = db_->Explain(
      "SELECT o.k, t.b FROM o, t WHERE o.k >= 0 AND o.k < 90 AND o.k = t.a");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->find("IndexNestedLoopJoin"), std::string::npos) << *plan;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 60; ++i) {
        int lo = 3 * (r * 45 + i * 7 % 15);
        auto rs = db_->QueryP(sql, {Value::Int(lo), Value::Int(lo + 90)});
        if (!rs.ok() || rs->rows.size() != 30u) {
          failures.fetch_add(1);
          ADD_FAILURE() << (rs.ok() ? "wrong row count"
                                    : rs.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db_->buffer_pool()->miss_count(), 0u);  // it did evict
  EXPECT_EQ(Pinned(), 0u);
}

// Cached plan instances outlive their statements; destroying the database
// with a full plan cache (including an instance whose scan a LIMIT cut)
// must release nothing twice and touch no freed frame.
TEST_F(PinnedScanTest, DestroyingDatabaseWithCachedPlansIsClean) {
  ASSERT_TRUE(db_->Query("SELECT b FROM t WHERE a >= 3 LIMIT 2").ok());
  ASSERT_TRUE(db_->QueryP("SELECT a FROM t WHERE a = ?", {Value::Int(4)}).ok());
  auto prepared = db_->Prepare("SELECT b FROM t WHERE a >= ? LIMIT 1");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(prepared->Bind(0, Value::Int(7)).ok());
  ASSERT_TRUE(prepared->Query().ok());
  EXPECT_GT(db_->plan_cache_size(), 0u);
  EXPECT_EQ(Pinned(), 0u);
  db_.reset();
}

}  // namespace
}  // namespace oxml
