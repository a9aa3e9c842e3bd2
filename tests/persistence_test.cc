// Persistence tests: a file-backed database is written, checkpointed,
// closed and reopened; the catalog, heap contents and rebuilt indexes
// must survive — including a full ordered-XML store.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/collection.h"
#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid()) + ".db";
}

// Options for a file-backed database at `path` (every other option at its
// default).
DatabaseOptions FileOptions(const std::string& path,
                            bool open_existing = false,
                            size_t buffer_capacity = 0) {
  DatabaseOptions opts;
  opts.file_path = path;
  opts.open_existing = open_existing;
  opts.buffer_capacity = buffer_capacity;
  return opts;
}

TEST(PersistenceTest, TablesSurviveReopen) {
  std::string path = TempPath("reopen_tables");
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, name TEXT)").ok());
    ASSERT_TRUE(db->Execute("CREATE UNIQUE INDEX t_id ON t (id)").ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(db
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", 'name" + std::to_string(i) + "')")
                      .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }  // destructor checkpoints + flushes

  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();

  auto rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 500);

  // The rebuilt index answers point queries and enforces uniqueness.
  auto plan = db->Explain("SELECT name FROM t WHERE id = 123");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  rs = db->Query("SELECT name FROM t WHERE id = 123");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "name123");
  EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (123, 'dup')").ok());

  // And the reopened database accepts further writes.
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1000, 'late')").ok());
  rs = db->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 501);
}

TEST(PersistenceTest, OverflowRowsSurviveReopen) {
  std::string path = TempPath("reopen_overflow");
  std::string big(50000, 'k');
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, body TEXT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, '" + big + "')").ok());
  }
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  auto rs = (*dbr)->Query("SELECT body FROM t WHERE id = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsString(), big);
}

TEST(PersistenceTest, OpenExistingOnFreshPathCreatesDatabase) {
  std::string path = TempPath("fresh_via_open_existing");
  ::unlink(path.c_str());
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  EXPECT_TRUE((*dbr)->Execute("CREATE TABLE t (a INT)").ok());
}

TEST(PersistenceTest, RejectsGarbageFiles) {
  std::string path = TempPath("garbage");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::string junk(kPageSize, 'j');
    fwrite(junk.data(), 1, junk.size(), f);
    fclose(f);
  }
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  EXPECT_FALSE(dbr.ok());
  EXPECT_TRUE(dbr.status().IsIOError()) << dbr.status();
}

class StorePersistenceTest : public ::testing::TestWithParam<OrderEncoding> {
};

TEST_P(StorePersistenceTest, OrderedStoreSurvivesReopen) {
  std::string path = TempPath(std::string("store_") +
                              OrderEncodingToString(GetParam()));
  NewsGeneratorOptions gen;
  gen.seed = 77;
  gen.sections = 6;
  gen.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(gen);
  std::string original_xml;

  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok());
    std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
    ASSERT_TRUE(store->LoadDocument(*doc).ok());
    auto rebuilt = store->ReconstructDocument();
    ASSERT_TRUE(rebuilt.ok());
    original_xml = WriteXml(**rebuilt);
  }

  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Attach(db.get(), GetParam(), {.gap = 8});
  ASSERT_TRUE(sr.ok()) << sr.status();
  std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();

  // Full fidelity after reopen.
  ASSERT_TRUE(store->Validate().ok()) << store->Validate();
  auto rebuilt = store->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(WriteXml(**rebuilt), original_xml);

  // Queries and further ordered updates work.
  auto sections = EvaluateXPath(store.get(), "/nitf/body/section");
  ASSERT_TRUE(sections.ok());
  EXPECT_EQ(sections->size(), 6u);
  auto frag = ParseXml("<section id=\"after-reopen\"><para>x</para></section>");
  ASSERT_TRUE(frag.ok());
  auto stats = store->InsertSubtree((*sections)[2], InsertPosition::kBefore,
                                    *(*frag)->root_element());
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(store->Validate().ok()) << store->Validate();
  EXPECT_EQ(EvaluateXPath(store.get(), "/nitf/body/section")->size(), 7u);
}

TEST_P(StorePersistenceTest, SurvivesReopenUnderTinyBufferPool) {
  // A 6-frame pool cannot hold the working set: loading and updating force
  // evictions (write-backs mid-transaction are forbidden by the no-steal
  // policy, so the pool must grow for txn-dirty pages and shrink back), and
  // reopening with the same tiny pool re-reads everything from disk.
  std::string path = TempPath(std::string("tinypool_") +
                              OrderEncodingToString(GetParam()));
  NewsGeneratorOptions gen;
  gen.seed = 31;
  gen.sections = 8;
  gen.paragraphs_per_section = 5;
  auto doc = GenerateNewsXml(gen);
  std::string expected_xml;

  {
    auto dbr = Database::Open(FileOptions(path, /*open_existing=*/false, 6));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db.get(), GetParam(), {.gap = 4});
    ASSERT_TRUE(sr.ok());
    std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
    ASSERT_TRUE(store->LoadDocument(*doc).ok());
    auto sections = EvaluateXPath(store.get(), "/nitf/body/section");
    ASSERT_TRUE(sections.ok());
    auto frag = ParseXml("<section id=\"evict\"><para>tiny pool</para>"
                         "</section>");
    ASSERT_TRUE(frag.ok());
    ASSERT_TRUE(store
                    ->InsertSubtree((*sections)[3], InsertPosition::kBefore,
                                    *(*frag)->root_element())
                    .ok());
    ASSERT_TRUE(store->Validate().ok());
    auto rebuilt = store->ReconstructDocument();
    ASSERT_TRUE(rebuilt.ok());
    expected_xml = WriteXml(**rebuilt);
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Close().ok());
  }

  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true, 6));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Attach(db.get(), GetParam(), {.gap = 4});
  ASSERT_TRUE(sr.ok()) << sr.status();
  std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
  ASSERT_TRUE(store->Validate().ok()) << store->Validate();
  auto rebuilt = store->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(WriteXml(**rebuilt), expected_xml);
}

TEST_P(StorePersistenceTest, AttachRejectsWrongEncoding) {
  std::string path = TempPath(std::string("wrongenc_") +
                              OrderEncodingToString(GetParam()));
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    auto sr = OrderedXmlStore::Create(dbr->get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok());
    auto doc = ParseXml("<r><a/></r>");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE((*sr)->LoadDocument(**doc).ok());
  }
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok());
  OrderEncoding other = GetParam() == OrderEncoding::kDewey
                            ? OrderEncoding::kGlobal
                            : OrderEncoding::kDewey;
  auto attach = OrderedXmlStore::Attach(dbr->get(), other, {.gap = 8});
  EXPECT_FALSE(attach.ok());
  EXPECT_TRUE(attach.status().IsInvalidArgument()) << attach.status();
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, StorePersistenceTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml

namespace oxml {
namespace {

TEST(PersistenceTest, CollectionSurvivesReopen) {
  std::string path = TempPath("reopen_collection");
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    auto cr = DocumentCollection::Create(db.get(), OrderEncoding::kDewey,
                                         {.gap = 8}, "arch");
    ASSERT_TRUE(cr.ok());
    std::unique_ptr<DocumentCollection> coll = std::move(cr).value();
    for (int d = 0; d < 3; ++d) {
      NewsGeneratorOptions gen;
      gen.seed = 500 + d;
      gen.sections = 2 + d;
      gen.paragraphs_per_section = 2;
      auto doc = GenerateNewsXml(gen);
      ASSERT_TRUE(coll->AddDocument("doc" + std::to_string(d), *doc).ok());
    }
  }

  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto cr = DocumentCollection::Attach(db.get(), OrderEncoding::kDewey,
                                       {.gap = 8}, "arch");
  ASSERT_TRUE(cr.ok()) << cr.status();
  std::unique_ptr<DocumentCollection> coll = std::move(cr).value();
  EXPECT_EQ(coll->size(), 3u);
  EXPECT_EQ(coll->DocumentNames(),
            (std::vector<std::string>{"doc0", "doc1", "doc2"}));

  auto matches = coll->QueryAll("/nitf/body/section");
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->size(), 2u + 3u + 4u);

  // New documents get fresh ids (no table-name collisions after reopen).
  auto extra = GenerateNewsXml({.seed = 999, .sections = 1,
                                .paragraphs_per_section = 1});
  ASSERT_TRUE(coll->AddDocument("late", *extra).ok());
  EXPECT_EQ(coll->size(), 4u);
  auto late = coll->GetDocument("late");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)->table_name(), "arch_4");
}

TEST(PersistenceTest, CloseReportsStatusAndIsIdempotent) {
  std::string path = TempPath("close_status");
  auto dbr = Database::Open(FileOptions(path));
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_TRUE(db->Close().ok());
  EXPECT_TRUE(db->Close().ok());  // idempotent
  // A closed database refuses further work instead of corrupting anything.
  EXPECT_FALSE(db->Execute("INSERT INTO t VALUES (2)").ok());
  EXPECT_FALSE(db->Checkpoint().ok());
  EXPECT_FALSE(db->Begin().ok());
}

TEST(PersistenceTest, CommitsSurviveACrashWithoutCheckpoint) {
  // Nothing here ever checkpoints: the data file still holds the initial
  // empty catalog when the process "dies", and every row must come back
  // from WAL replay alone.
  std::string path = TempPath("crash_no_checkpoint");
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, name TEXT)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", 'row" + std::to_string(i) + "')")
                      .ok());
    }
    db->SimulateCrashForTesting();
  }
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  auto rs = (*dbr)->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 100);
  rs = (*dbr)->Query("SELECT name FROM t WHERE id = 57");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "row57");
}

TEST(PersistenceTest, RolledBackTransactionLeavesNoTrace) {
  std::string path = TempPath("rollback_trace");
  {
    auto dbr = Database::Open(FileOptions(path));
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db->Begin().ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (2)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (3)").ok());
    ASSERT_TRUE(db->Rollback().ok());
    auto rs = db->Query("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows[0][0].AsInt(), 1);  // rolled back in-process
  }
  auto dbr = Database::Open(FileOptions(path, /*open_existing=*/true));
  ASSERT_TRUE(dbr.ok());
  auto rs = (*dbr)->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);  // and on disk
}

TEST(PersistenceTest, AttachMissingCollectionFails) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  auto cr = DocumentCollection::Attach(dbr->get(), OrderEncoding::kDewey,
                                       {.gap = 8}, "nope");
  EXPECT_FALSE(cr.ok());
  EXPECT_TRUE(cr.status().IsNotFound());
}

}  // namespace
}  // namespace oxml
