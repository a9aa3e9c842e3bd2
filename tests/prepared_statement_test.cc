// Tests for prepared statements, the LRU plan cache, batched execution,
// and the differential guarantee that the prepared-statement hot paths in
// the ordered-XML stores return exactly what ad-hoc (uncached) execution
// returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    Must("CREATE TABLE t (id INT, name TEXT, score DOUBLE, key BLOB)");
    Must("CREATE INDEX t_id ON t (id)");
    Must("INSERT INTO t VALUES (1, 'ada', 9.5, x'01')");
    Must("INSERT INTO t VALUES (2, 'bob', 7.25, x'0102')");
    Must("INSERT INTO t VALUES (3, 'carol', 8.0, x'0103')");
  }

  void Must(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PreparedStatementTest, RebindIntParamAcrossExecutions) {
  auto ps = db_->Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  EXPECT_EQ(ps->param_count(), 1u);

  const char* expected[] = {"ada", "bob", "carol"};
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(ps->Bind(0, Value::Int(id)).ok());
    auto rs = ps->Query();
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_EQ(rs->rows.size(), 1u) << "id = " << id;
    EXPECT_EQ(rs->rows[0][0].AsString(), expected[id - 1]);
  }
}

TEST_F(PreparedStatementTest, RebindTextParam) {
  auto ps = db_->Prepare("SELECT id FROM t WHERE name = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Text("bob")).ok());
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);

  ASSERT_TRUE(ps->Bind(0, Value::Text("nobody")).ok());
  rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(rs->rows.empty());
}

TEST_F(PreparedStatementTest, RebindBlobOrderKeyParam) {
  // Order-key bytes: exactly what the Dewey store binds on its hot path.
  auto ps = db_->Prepare("SELECT id FROM t WHERE key = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Blob(std::string("\x01\x02", 2))).ok());
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);

  ASSERT_TRUE(ps->Bind(0, Value::Blob(std::string("\x01\x03", 2))).ok());
  rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3);
}

TEST_F(PreparedStatementTest, BindErrors) {
  auto ps = db_->Prepare("SELECT id FROM t WHERE id = ? AND name = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  EXPECT_EQ(ps->param_count(), 2u);
  EXPECT_FALSE(ps->Bind(2, Value::Int(1)).ok());       // out of range
  EXPECT_FALSE(ps->BindAll({Value::Int(1)}).ok());     // size mismatch
  EXPECT_TRUE(ps->BindAll({Value::Int(1), Value::Text("ada")}).ok());
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST_F(PreparedStatementTest, AdHocRejectsParameterMarkers) {
  auto r = db_->Query("SELECT id FROM t WHERE id = ?");
  EXPECT_FALSE(r.ok());
  auto e = db_->Execute("DELETE FROM t WHERE id = ?");
  EXPECT_FALSE(e.ok());
}

TEST_F(PreparedStatementTest, PreparedDmlRebind) {
  auto ps = db_->Prepare("UPDATE t SET score = ? WHERE id = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->BindAll({Value::Double(1.0), Value::Int(1)}).ok());
  auto n = ps->Execute();
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1);
  ASSERT_TRUE(ps->BindAll({Value::Double(2.0), Value::Int(99)}).ok());
  n = ps->Execute();
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0);
}

TEST_F(PreparedStatementTest, PlanCacheCountersObservable) {
  db_->stats()->Reset();
  auto ps = db_->Prepare("SELECT id FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(db_->stats()->plan_cache_misses, 1u);
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ps->Bind(0, Value::Int(i)).ok());
    ASSERT_TRUE(ps->Query().ok());
  }
  // Re-preparing the same text is a hit.
  auto again = db_->Prepare("SELECT id FROM t WHERE id = ?");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(db_->stats()->plan_cache_hits, 1u);
  EXPECT_EQ(db_->stats()->plan_cache_misses, 1u);
  EXPECT_GT(db_->stats()->PlanCacheHitRate(), 0.0);
  EXPECT_GT(db_->stats()->parse_plan_ns, 0u);
}

TEST_F(PreparedStatementTest, AdHocQueriesShareTheCache) {
  db_->stats()->Reset();
  ASSERT_TRUE(db_->Query("SELECT id FROM t WHERE id = 1").ok());
  ASSERT_TRUE(db_->Query("SELECT id FROM t WHERE id = 1").ok());
  EXPECT_EQ(db_->stats()->plan_cache_misses, 1u);
  EXPECT_EQ(db_->stats()->plan_cache_hits, 1u);
}

// LIMIT ? keeps one SQL text, and so one cached plan, for every k; the
// limit is read when the plan opens, and over an index-ordered scan it
// stops the scan after k rows.
TEST(LimitParamTest, OnePlanServesEveryLimit) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE u (id INT, v TEXT)").ok());
  ASSERT_TRUE(db->Execute("CREATE INDEX u_id ON u (id)").ok());
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO u VALUES (?, 'r')",
                             {Value::Int(i)})
                    .ok());
  }
  const std::string sql = "SELECT id FROM u WHERE id > ? ORDER BY id LIMIT ?";
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("Limit(?2)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("IndexScan(u.u_id"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("Sort("), std::string::npos) << *plan;

  const size_t cached_before = db->plan_cache_size();
  auto ps = db->Prepare(sql);
  ASSERT_TRUE(ps.ok()) << ps.status();
  for (int64_t k : {0, 1, 5, 100}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const uint64_t scanned = db->stats()->rows_scanned;
    ASSERT_TRUE(ps->BindAll({Value::Int(0), Value::Int(k)}).ok());
    auto rs = ps->Query();
    ASSERT_TRUE(rs.ok()) << rs.status();
    const size_t want = static_cast<size_t>(std::min<int64_t>(k, 40));
    ASSERT_EQ(rs->rows.size(), want);
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(rs->rows[i][0].AsInt(), static_cast<int64_t>(i + 1));
    }
    EXPECT_LE(db->stats()->rows_scanned - scanned, static_cast<uint64_t>(k));
    // The one-shot path shares the prepared statement's plan.
    auto again = db->QueryP(sql, {Value::Int(10), Value::Int(k)});
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->rows.size(),
              static_cast<size_t>(std::min<int64_t>(k, 30)));
  }
  EXPECT_EQ(db->plan_cache_size(), cached_before + 1);
}

TEST_F(PreparedStatementTest, LimitRejectsNullNegativeAndNonIntegerBindings) {
  auto ps = db_->Prepare("SELECT id FROM t ORDER BY id LIMIT ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  for (const Value& k : {Value::Null(), Value::Int(-1), Value::Text("x"),
                         Value::Double(2.0)}) {
    SCOPED_TRACE(k.ToString());
    ASSERT_TRUE(ps->Bind(0, k).ok());
    auto rs = ps->Query();
    ASSERT_FALSE(rs.ok());
    EXPECT_TRUE(rs.status().IsInvalidArgument()) << rs.status();
  }
  // A good binding still runs on the same statement afterwards.
  ASSERT_TRUE(ps->Bind(0, Value::Int(2)).ok());
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  DatabaseOptions opts;
  opts.plan_cache_capacity = 2;
  auto dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  db->stats()->Reset();

  ASSERT_TRUE(db->Query("SELECT id FROM t WHERE id = 1").ok());   // miss
  ASSERT_TRUE(db->Query("SELECT id FROM t WHERE id = 2").ok());   // miss
  EXPECT_EQ(db->plan_cache_size(), 2u);
  ASSERT_TRUE(db->Query("SELECT id FROM t WHERE id = 3").ok());   // miss;
  EXPECT_EQ(db->plan_cache_size(), 2u);  // evicted "id = 1"
  // "id = 1" was evicted: re-running it is a miss again.
  ASSERT_TRUE(db->Query("SELECT id FROM t WHERE id = 1").ok());
  EXPECT_EQ(db->stats()->plan_cache_misses, 4u);
  EXPECT_EQ(db->stats()->plan_cache_hits, 0u);
  // "id = 3" is still resident.
  ASSERT_TRUE(db->Query("SELECT id FROM t WHERE id = 3").ok());
  EXPECT_EQ(db->stats()->plan_cache_hits, 1u);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  DatabaseOptions opts;
  opts.plan_cache_capacity = 0;
  auto dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT)").ok());
  db->stats()->Reset();
  ASSERT_TRUE(db->Query("SELECT id FROM t").ok());
  ASSERT_TRUE(db->Query("SELECT id FROM t").ok());
  EXPECT_EQ(db->plan_cache_size(), 0u);
  EXPECT_EQ(db->stats()->plan_cache_hits, 0u);
  EXPECT_EQ(db->stats()->plan_cache_misses, 2u);
}

TEST_F(PreparedStatementTest, ExecuteBatchZeroOneAndManyRows) {
  auto ps = db_->Prepare("INSERT INTO t VALUES (?, ?, ?, ?)");
  ASSERT_TRUE(ps.ok()) << ps.status();

  auto n = ps->ExecuteBatch({});
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0);

  n = ps->ExecuteBatch({{Value::Int(10), Value::Text("ten"),
                         Value::Double(1.0), Value::Blob("\x0a")}});
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1);

  std::vector<Row> rows;
  for (int64_t i = 100; i < 140; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Text("row" + std::to_string(i)),
                       Value::Double(0.5), Value::Null()});
  }
  n = ps->ExecuteBatch(rows);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 40);

  auto rs = db_->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3 + 1 + 40);
}

TEST_F(PreparedStatementTest, SurvivesDropAndRecreateOfTable) {
  // Regression: DDL between Prepare and Execute must not leave the handle
  // pointing at stale TableInfo/plan state — it re-prepares from its SQL.
  auto ps = db_->Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Int(1)).ok());
  {
    auto rs = ps->Query();
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs->rows.size(), 1u);
    EXPECT_EQ(rs->rows[0][0].AsString(), "ada");
  }

  Must("DROP TABLE t");
  Must("CREATE TABLE t (id INT, name TEXT, score DOUBLE, key BLOB)");
  Must("INSERT INTO t VALUES (1, 'zed', 0.0, x'ff')");

  // Bindings survive the transparent re-prepare.
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "zed");
}

TEST_F(PreparedStatementTest, DroppedTableWithoutRecreateFailsCleanly) {
  auto ps = db_->Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Int(1)).ok());
  Must("DROP TABLE t");
  auto rs = ps->Query();
  EXPECT_FALSE(rs.ok());  // not a crash: re-prepare reports the missing table
}

TEST_F(PreparedStatementTest, CreateIndexInvalidatesCachedPlans) {
  auto ps = db_->Prepare("SELECT name FROM t WHERE score = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Double(7.25)).ok());
  auto before = ps->Query();
  ASSERT_TRUE(before.ok());
  uint64_t gen = db_->catalog_generation();
  Must("CREATE INDEX t_score ON t (score)");
  EXPECT_GT(db_->catalog_generation(), gen);
  EXPECT_EQ(db_->plan_cache_size(), 0u);
  auto after = ps->Query();  // re-prepared against the new catalog
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->rows.size(), before->rows.size());
  EXPECT_EQ(after->rows[0][0].AsString(), before->rows[0][0].AsString());
}

TEST_F(PreparedStatementTest, NullBindingDegradesIndexScanNotCorrectness) {
  // A NULL binding on an indexed column: the dynamic bounds become
  // unusable and the retained residual filter returns no rows (engine
  // equality never matches NULL) — no error, no stale bound.
  auto ps = db_->Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  ASSERT_TRUE(ps->Bind(0, Value::Null()).ok());
  auto rs = ps->Query();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(rs->rows.empty());
}

// ---------------------------------------------------------------------------
// Differential: the ordered-XML query workload (QR1..QR8 from the benchmark
// suite) must return identical results through the prepared/cached path and
// through a cache-disabled database where every statement is parsed fresh.

constexpr const char* kXPaths[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's10']/following-sibling::section", // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 50]/title",        // QR7
};

std::unique_ptr<XmlDocument> TestNewsDoc() {
  NewsGeneratorOptions opts;
  opts.sections = 60;
  opts.paragraphs_per_section = 6;
  opts.seed = 42;
  return GenerateNewsXml(opts);
}

std::string NodeFingerprint(const OrderedXmlStore& store,
                            const StoredNode& n) {
  return store.KeyCondition(n) + "|" + std::to_string(static_cast<int>(n.kind)) +
         "|" + n.tag + "|" + n.value;
}

class PreparedDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(PreparedDifferentialTest, QueriesMatchUncachedExecution) {
  auto doc = TestNewsDoc();

  auto cached_db = Database::Open();
  ASSERT_TRUE(cached_db.ok());
  auto cached_store =
      OrderedXmlStore::Create(cached_db->get(), GetParam(), {});
  ASSERT_TRUE(cached_store.ok());
  ASSERT_TRUE((*cached_store)->LoadDocument(*doc).ok());

  DatabaseOptions nocache;
  nocache.plan_cache_capacity = 0;
  auto plain_db = Database::Open(nocache);
  ASSERT_TRUE(plain_db.ok());
  auto plain_store = OrderedXmlStore::Create(plain_db->get(), GetParam(), {});
  ASSERT_TRUE(plain_store.ok());
  ASSERT_TRUE((*plain_store)->LoadDocument(*doc).ok());

  for (const char* xpath : kXPaths) {
    // Evaluate twice on the cached side so the second run exercises plan
    // reuse with rebound parameters.
    ASSERT_TRUE(EvaluateXPath(cached_store->get(), xpath).ok()) << xpath;
    auto cached = EvaluateXPath(cached_store->get(), xpath);
    ASSERT_TRUE(cached.ok()) << xpath << " -> " << cached.status();
    auto plain = EvaluateXPath(plain_store->get(), xpath);
    ASSERT_TRUE(plain.ok()) << xpath << " -> " << plain.status();
    ASSERT_EQ(cached->size(), plain->size()) << xpath;
    for (size_t i = 0; i < cached->size(); ++i) {
      EXPECT_EQ(NodeFingerprint(**cached_store, (*cached)[i]),
                NodeFingerprint(**plain_store, (*plain)[i]))
          << xpath << " row " << i;
    }
  }
  EXPECT_GT((*cached_db)->stats()->plan_cache_hits, 0u);

  // QR8: subtree reconstruction round-trips identically.
  auto cached_sec = EvaluateXPath(cached_store->get(), "/nitf/body/section[30]");
  auto plain_sec = EvaluateXPath(plain_store->get(), "/nitf/body/section[30]");
  ASSERT_TRUE(cached_sec.ok() && cached_sec->size() == 1);
  ASSERT_TRUE(plain_sec.ok() && plain_sec->size() == 1);
  auto cached_sub = (*cached_store)->ReconstructSubtree((*cached_sec)[0]);
  auto plain_sub = (*plain_store)->ReconstructSubtree((*plain_sec)[0]);
  ASSERT_TRUE(cached_sub.ok()) << cached_sub.status();
  ASSERT_TRUE(plain_sub.ok()) << plain_sub.status();
  EXPECT_EQ(WriteXml(**cached_sub), WriteXml(**plain_sub));
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, PreparedDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
