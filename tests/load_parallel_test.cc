// Parallel bulk loading: parallel-vs-serial differential on all three
// encodings (byte-identical heap contents and QR1-QR8 results at 1/2/4/8
// load threads), bulk-built B+tree invariant checks (leaf fill, key
// order, split-key boundaries via CheckStructure), HeapTable::AppendBatch
// tail-page caching, and reader liveness while a parallel load's shred
// phase runs (LoadConcurrencyTest doubles as TSan workload — the
// "Concurrency" suite-name substring keeps it in the CI TSan regex).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/parallel_shred.h"
#include "src/core/xpath_eval.h"
#include "src/relational/btree.h"
#include "src/relational/database.h"
#include "src/relational/thread_pool.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

// ------------------------------------------------------------- fixtures

struct LoadedStore {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> store;
};

std::unique_ptr<XmlDocument> NewsDoc() {
  NewsGeneratorOptions gen;
  gen.sections = 25;
  gen.paragraphs_per_section = 12;
  gen.seed = 42;
  return GenerateNewsXml(gen);
}

LoadedStore LoadNews(OrderEncoding enc, bool parallel_load,
                     size_t load_threads = 4,
                     size_t run_bytes = 1u << 20) {
  DatabaseOptions opts;
  opts.enable_parallel_load = parallel_load;
  opts.num_load_threads = load_threads;
  opts.load_run_bytes = run_bytes;
  LoadedStore out;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  auto store = OrderedXmlStore::Create(out.db.get(), enc, StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status();
  out.store = std::move(store).value();
  auto doc = NewsDoc();
  EXPECT_TRUE(out.store->LoadDocument(*doc).ok());
  return out;
}

/// Every live heap row of `table` in page-chain (= insertion) order,
/// encoded to its exact storage bytes. Comparing these streams proves the
/// parallel load produced the same rows in the same physical order as the
/// serial load — strictly stronger than comparing query results.
std::vector<std::string> HeapRowBytes(Database* db,
                                      const std::string& table) {
  std::vector<std::string> out;
  TableInfo* t = db->GetTable(table);
  EXPECT_NE(t, nullptr);
  if (t == nullptr) return out;
  HeapTable::Iterator it = t->heap()->Scan();
  Rid rid;
  Row row;
  while (true) {
    auto has = it.Next(&rid, &row);
    EXPECT_TRUE(has.ok()) << has.status();
    if (!has.ok() || !*has) break;
    out.push_back(EncodeRow(t->schema(), row));
  }
  return out;
}

std::vector<std::string> Identities(OrderEncoding enc,
                                    const std::vector<StoredNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const StoredNode& n : nodes) out.push_back(NodeIdentity(enc, n));
  return out;
}

const char* const kQueries[] = {
    "//para",                                            // QR1
    "/nitf/body/section[5]/title",                       // QR2
    "/nitf/body/section[last()]/para[last()]",           // QR3
    "//section[@id = 's3']/following-sibling::section",  // QR4
    "/nitf/body//para",                                  // QR5
    "//para[@class = 'lead']",                           // QR6
    "/nitf/body/section[position() >= 5]/title",         // QR7
};

// --------------------------------------- parallel-vs-serial differential

class ParallelLoadDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

// The acceptance bar of the pipeline: at every thread count the parallel
// load must leave the heap byte-identical (same rows, same physical
// order) to the serial load, because order keys are pre-assigned from the
// partition pass and the k-way merge restores serial document order.
TEST_P(ParallelLoadDifferentialTest, ByteIdenticalAtEveryThreadCount) {
  OrderEncoding enc = GetParam();
  LoadedStore serial = LoadNews(enc, /*parallel_load=*/false);
  std::vector<std::string> want = HeapRowBytes(serial.db.get(), "nodes");
  ASSERT_FALSE(want.empty());

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LoadedStore par = LoadNews(enc, /*parallel_load=*/true, threads);
    EXPECT_EQ(HeapRowBytes(par.db.get(), "nodes"), want)
        << "threads=" << threads;
    const ExecStats* stats = par.db->stats();
    EXPECT_EQ(stats->rows_shredded.value(), want.size())
        << "threads=" << threads;
    EXPECT_GE(stats->runs_merged.value(), 1u);
    EXPECT_GE(stats->load_threads_used.value(), 1u);
    EXPECT_LE(stats->load_threads_used.value(), threads + 1);
  }
}

// Tiny run budget => every worker seals many runs => the k-way merge is
// actually exercised (a single run would bypass it).
TEST_P(ParallelLoadDifferentialTest, ManySmallRunsMergeBackToSerialOrder) {
  OrderEncoding enc = GetParam();
  LoadedStore serial = LoadNews(enc, /*parallel_load=*/false);
  LoadedStore par =
      LoadNews(enc, /*parallel_load=*/true, 4, /*run_bytes=*/1024);
  EXPECT_GT(par.db->stats()->runs_merged.value(), 1u);
  EXPECT_EQ(HeapRowBytes(par.db.get(), "nodes"),
            HeapRowBytes(serial.db.get(), "nodes"));
}

TEST_P(ParallelLoadDifferentialTest, QueriesMatchSerialLoad) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, /*parallel_load=*/true);
  LoadedStore ser = LoadNews(enc, /*parallel_load=*/false);

  for (const char* xpath : kQueries) {
    auto a = EvaluateXPath(par.store.get(), xpath);
    auto b = EvaluateXPath(ser.store.get(), xpath);
    ASSERT_TRUE(a.ok()) << xpath << " -> " << a.status();
    ASSERT_TRUE(b.ok()) << xpath << " -> " << b.status();
    EXPECT_FALSE(b->empty()) << xpath;
    EXPECT_EQ(Identities(enc, *a), Identities(enc, *b)) << xpath;
  }

  // QR8: subtree reconstruction of one section.
  auto sa = EvaluateXPath(par.store.get(), "/nitf/body/section[3]");
  auto sb = EvaluateXPath(ser.store.get(), "/nitf/body/section[3]");
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->size(), 1u);
  ASSERT_EQ(sb->size(), 1u);
  auto ra = par.store->ReconstructSubtree((*sa)[0]);
  auto rb = ser.store->ReconstructSubtree((*sb)[0]);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(WriteXml(**ra), WriteXml(**rb));
}

// The store's own invariant checker plus full-document reconstruction
// against the original DOM, after a parallel load.
TEST_P(ParallelLoadDifferentialTest, ValidatesAndReconstructs) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, /*parallel_load=*/true);
  EXPECT_TRUE(par.store->Validate().ok());
  auto doc = NewsDoc();
  auto rebuilt = par.store->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(WriteXml(**rebuilt), WriteXml(*doc));
}

// A parallel load must not disturb subsequent incremental updates: the
// Local id allocator and the Global/Dewey gap numbering have to continue
// exactly where a serial load would have left them.
TEST_P(ParallelLoadDifferentialTest, UpdatesAfterParallelLoadStayCorrect) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, /*parallel_load=*/true);
  LoadedStore ser = LoadNews(enc, /*parallel_load=*/false);

  for (LoadedStore* ls : {&par, &ser}) {
    auto target = EvaluateXPath(ls->store.get(), "/nitf/body/section[3]");
    ASSERT_TRUE(target.ok()) << target.status();
    ASSERT_EQ(target->size(), 1u);
    auto sub = ParseXml("<aside kind=\"pullquote\"><para>new</para></aside>");
    ASSERT_TRUE(sub.ok()) << sub.status();
    auto ins = ls->store->InsertSubtree((*target)[0], InsertPosition::kAfter,
                                        *(*sub)->root()->children()[0]);
    ASSERT_TRUE(ins.ok()) << ins.status();
    EXPECT_TRUE(ls->store->Validate().ok());
  }
  auto ra = par.store->ReconstructDocument();
  auto rb = ser.store->ReconstructDocument();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(WriteXml(**ra), WriteXml(**rb));
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ParallelLoadDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

// ------------------------------------------------------- repeated loads

// A store holds one document: a second LoadDocument into a non-empty store
// is rejected on both load paths, before it writes anything, because no
// encoding has a unique index that would catch the duplicate rows.
class SecondLoadTest : public ::testing::TestWithParam<
                           std::tuple<OrderEncoding, bool>> {};

TEST_P(SecondLoadTest, IsRejectedAndLeavesTheStoreIntact) {
  auto [enc, parallel_load] = GetParam();
  DatabaseOptions opts;
  opts.enable_parallel_load = parallel_load;
  opts.num_load_threads = 2;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto store = OrderedXmlStore::Create(db->get(), enc, StoreOptions{});
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = ParseXml("<a x=\"1\"><b>t</b><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();

  ASSERT_TRUE((*store)->LoadDocument(**doc).ok());
  auto before = (*store)->NodeCount();
  ASSERT_TRUE(before.ok()) << before.status();

  Status again = (*store)->LoadDocument(**doc);
  EXPECT_TRUE(again.IsInvalidArgument()) << again;
  auto after = (*store)->NodeCount();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, *before);
  Status valid = (*store)->Validate();
  EXPECT_TRUE(valid.ok()) << valid;
  auto rebuilt = (*store)->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(WriteXml(**rebuilt), WriteXml(**doc));
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, SecondLoadTest,
    ::testing::Combine(::testing::Values(OrderEncoding::kGlobal,
                                         OrderEncoding::kLocal,
                                         OrderEncoding::kDewey),
                       ::testing::Bool()));

// ------------------------------------------------------ partition algebra

TEST(PartitionDocumentTest, UnitsTileTheDocumentExactly) {
  auto doc = NewsDoc();
  for (size_t target : {1u, 4u, 16u, 64u}) {
    std::vector<ShredUnit> units = PartitionDocument(*doc, 32, target);
    ASSERT_FALSE(units.empty());
    // Units are in document order, each covering a contiguous row range:
    // whole-subtree units advance by subtree_rows, header units by
    // 1 + attribute count (their children follow as separate units).
    uint64_t expect_off = 0;
    for (const ShredUnit& u : units) {
      EXPECT_EQ(u.row_offset, expect_off);
      expect_off += u.whole_subtree
                        ? u.subtree_rows
                        : 1 + u.node->attributes().size();
    }
    EXPECT_EQ(expect_off, static_cast<uint64_t>(doc->root()->SubtreeSize() - 1));
  }
}

// ------------------------------------------------------- bulk-built trees

Rid MakeRid(uint32_t page, uint16_t slot) { return Rid{page, slot}; }

std::vector<BPlusTree::Entry> SequentialEntries(size_t n) {
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char key[24];  // "k" + up to 20 digits + NUL
    std::snprintf(key, sizeof(key), "k%08zu", i);
    entries.emplace_back(std::string(key),
                         MakeRid(static_cast<uint32_t>(i / 100),
                                 static_cast<uint16_t>(i % 100)));
  }
  return entries;
}

TEST(BulkBuildTest, PacksLeavesWithinFillBounds) {
  BPlusTree tree;
  constexpr size_t kN = 10000;
  ASSERT_TRUE(tree.BulkBuild(SequentialEntries(kN)).ok());
  EXPECT_EQ(tree.size(), kN);

  auto info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_GT(info->leaves, 1u);
  // Leaf-packing at ~3/4 fill with an even spread: every leaf at least
  // half full, none over capacity, all at one depth (checked inside
  // CheckStructure alongside key order and separator bounds).
  EXPECT_GE(info->min_leaf_entries, BPlusTree::kNodeCapacity / 2);
  EXPECT_LE(info->max_leaf_entries, BPlusTree::kNodeCapacity);
  EXPECT_EQ(info->depth, tree.height());

  // The full entry stream comes back in order.
  auto entries = SequentialEntries(kN);
  size_t i = 0;
  for (auto it = tree.Begin(); it.valid(); it.Next(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(it.key(), entries[i].first);
    EXPECT_EQ(it.rid(), entries[i].second);
  }
  EXPECT_EQ(i, kN);

  // Split keys cut at leaf boundaries: LowerBound(sep) lands exactly on
  // the separator with nothing equal to it on the left.
  std::vector<std::string> seps = tree.SplitKeys(8);
  EXPECT_FALSE(seps.empty());
  for (const std::string& sep : seps) {
    auto it = tree.LowerBound(sep);
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), sep);
  }
}

TEST(BulkBuildTest, EmptyAndSingleLeafInputs) {
  BPlusTree empty;
  ASSERT_TRUE(empty.BulkBuild({}).ok());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.CheckStructure().ok());

  BPlusTree small;
  ASSERT_TRUE(small.BulkBuild(SequentialEntries(10)).ok());
  EXPECT_EQ(small.size(), 10u);
  EXPECT_EQ(small.height(), 1u);
  auto info = small.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->leaves, 1u);
}

TEST(BulkBuildTest, RejectsUnsortedDuplicateAndNonEmpty) {
  BPlusTree tree;
  std::vector<BPlusTree::Entry> unsorted = SequentialEntries(10);
  std::swap(unsorted[3], unsorted[7]);
  EXPECT_FALSE(tree.BulkBuild(std::move(unsorted)).ok());
  EXPECT_EQ(tree.size(), 0u);  // failed build leaves the tree empty+usable

  std::vector<BPlusTree::Entry> dup = SequentialEntries(10);
  dup[5] = dup[4];  // exact (key, rid) duplicate
  EXPECT_FALSE(tree.BulkBuild(std::move(dup)).ok());

  // Same key under distinct rids is a legal multiset entry pair.
  std::vector<BPlusTree::Entry> multi;
  multi.emplace_back("k", MakeRid(1, 1));
  multi.emplace_back("k", MakeRid(1, 2));
  ASSERT_TRUE(tree.BulkBuild(std::move(multi)).ok());
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.CheckStructure().ok());

  // Non-empty trees reject a second bulk build.
  EXPECT_FALSE(tree.BulkBuild(SequentialEntries(5)).ok());
  BPlusTree inserted;
  inserted.Insert("x", MakeRid(0, 0));
  EXPECT_FALSE(inserted.BulkBuild(SequentialEntries(5)).ok());
}

TEST(BulkBuildTest, SupportsInsertAndEraseAfterBuild) {
  BPlusTree tree;
  constexpr size_t kN = 5000;
  ASSERT_TRUE(tree.BulkBuild(SequentialEntries(kN)).ok());
  // The ~3/4 fill leaves headroom: post-build inserts and erases must
  // keep every structural invariant.
  for (size_t i = 0; i < 1000; ++i) {
    tree.Insert("zz" + std::to_string(i), MakeRid(9, 9));
  }
  auto entries = SequentialEntries(kN);
  for (size_t i = 0; i < kN; i += 3) {
    EXPECT_TRUE(tree.Erase(entries[i].first, entries[i].second));
  }
  EXPECT_EQ(tree.size(), kN + 1000 - (kN + 2) / 3);
  EXPECT_TRUE(tree.CheckStructure().ok());
  EXPECT_TRUE(tree.Contains("zz42"));
  EXPECT_FALSE(tree.Contains(entries[0].first));
  EXPECT_TRUE(tree.Contains(entries[1].first));
}

// CheckStructure itself is validated against the classic insert path: an
// Insert-built tree must pass the same audit the bulk builder is held to.
TEST(BulkBuildTest, InsertBuiltTreePassesCheckStructure) {
  BPlusTree tree;
  auto entries = SequentialEntries(3000);
  // Insert in a scrambled but deterministic order.
  for (size_t stride = 0; stride < 7; ++stride) {
    for (size_t i = stride; i < entries.size(); i += 7) {
      tree.Insert(entries[i].first, entries[i].second);
    }
  }
  EXPECT_EQ(tree.size(), entries.size());
  auto info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->depth, tree.height());
}

// ------------------------------------------------ heap batch append fix

TEST(AppendBatchTest, CachesTailPageAcrossBatch) {
  BufferPool pool(std::make_unique<MemoryBackend>());
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kText}});
  auto heap = HeapTable::Create(&pool, schema);
  ASSERT_TRUE(heap.ok()) << heap.status();

  constexpr size_t kRows = 500;
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::Text("row-" + std::to_string(i))});
  }
  uint64_t saved_before = pool.saved_fetch_count();
  std::vector<Rid> rids;
  ASSERT_TRUE((*heap)->AppendBatch(rows, &rids).ok());
  ASSERT_EQ(rids.size(), kRows);
  EXPECT_EQ((*heap)->row_count(), kRows);
  // Per-row Insert would have fetched the tail once per row; the batch
  // fetched it once, so exactly kRows - 1 fetches were avoided.
  EXPECT_EQ(pool.saved_fetch_count() - saved_before, kRows - 1);
  EXPECT_GT((*heap)->page_chain_length(), 1u);  // the batch spans pages

  // Contents and rid order match the per-row path exactly.
  BufferPool pool2(std::make_unique<MemoryBackend>());
  auto heap2 = HeapTable::Create(&pool2, schema);
  ASSERT_TRUE(heap2.ok()) << heap2.status();
  for (size_t i = 0; i < kRows; ++i) {
    auto rid = (*heap2)->Insert(rows[i]);
    ASSERT_TRUE(rid.ok()) << rid.status();
    EXPECT_EQ(*rid, rids[i]) << i;
  }
  for (size_t i = 0; i < kRows; ++i) {
    auto got = (*heap)->Get(rids[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(EncodeRow(schema, *got), EncodeRow(schema, rows[i]));
  }
}

TEST(AppendBatchTest, BulkLoadFallsBackOnNonEmptyTable) {
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok()) << db.status();
  Schema schema({{"a", TypeId::kInt}});
  ASSERT_TRUE((*db)->CreateTable("t", schema).ok());
  ASSERT_TRUE((*db)->CreateIndex("t_a", "t", {"a"}, /*unique=*/true).ok());
  ASSERT_TRUE((*db)->Insert("t", Row{Value::Int(0)}).ok());

  std::vector<Row> more;
  for (int64_t i = 1; i <= 5; ++i) more.push_back(Row{Value::Int(i)});
  auto n = (*db)->BulkLoadRows("t", more);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 5);
  auto rs = (*db)->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 6);

  // Unique violation through the bulk path aborts and rolls back.
  auto db2 = Database::Open({});
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)->CreateTable("t", schema).ok());
  ASSERT_TRUE((*db2)->CreateIndex("t_a", "t", {"a"}, /*unique=*/true).ok());
  std::vector<Row> dup{Row{Value::Int(1)}, Row{Value::Int(1)}};
  EXPECT_FALSE((*db2)->BulkLoadRows("t", dup).ok());
  auto rs2 = (*db2)->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows[0][0].AsInt(), 0);
}

// -------------------------------------------------- load/read concurrency

// The shred phase of a parallel load runs outside the exclusive statement
// latch, so readers of an already-loaded table must keep making progress
// while another document is being shredded into a second table. Under
// TSan this also audits the pool/latch interaction of the load path.
TEST(LoadConcurrencyTest, ReadersOverlapParallelLoad) {
  DatabaseOptions opts;
  opts.enable_parallel_load = true;
  opts.num_load_threads = 2;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status();

  StoreOptions first;
  auto store1 = OrderedXmlStore::Create(db->get(), OrderEncoding::kGlobal,
                                        first);
  ASSERT_TRUE(store1.ok()) << store1.status();
  auto doc = NewsDoc();
  ASSERT_TRUE((*store1)->LoadDocument(*doc).ok());
  auto baseline = EvaluateXPath(store1->get(), "//para");
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t expect = baseline->size();

  StoreOptions second;
  second.table_name = "nodes2";
  auto store2 = OrderedXmlStore::Create(db->get(), OrderEncoding::kDewey,
                                        second);
  ASSERT_TRUE(store2.ok()) << store2.status();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = EvaluateXPath(store1->get(), "//para");
        if (!r.ok() || r->size() != expect) ++failures;
      }
    });
  }
  Status load = (*store2)->LoadDocument(*doc);
  stop.store(true);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(load.ok()) << load;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE((*store2)->Validate().ok());
  EXPECT_GT((*db)->stats()->rows_shredded.value(), 0u);
}

}  // namespace
}  // namespace oxml
