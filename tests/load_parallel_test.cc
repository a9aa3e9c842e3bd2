// Document loading: inline-vs-pool differential on all three encodings
// (byte-identical heap contents at 1/2/4/8 execution-pool threads and with
// many small runs, QR1-QR7 against the DOM oracle), an install
// differential against per-row INSERTs, bulk-built B+tree invariant checks
// (leaf fill, key order, split-key boundaries via CheckStructure),
// HeapTable::AppendBatch tail-page caching, and reader liveness while a
// load's shred phase runs (LoadConcurrencyTest doubles as TSan workload —
// the "Concurrency" suite-name substring keeps it in the CI TSan regex).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/parallel_shred.h"
#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/relational/btree.h"
#include "src/relational/database.h"
#include "src/relational/thread_pool.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"
#include "tests/fuzz/dom_oracle.h"

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

/// A database whose LoadDocument runs on an execution pool of
/// `pool_threads` workers, or inline on the caller for 0.
DatabaseOptions LoadOptions(size_t pool_threads,
                            size_t run_bytes = 1u << 20) {
  DatabaseOptions opts;
  opts.enable_parallel_execution = pool_threads > 0;
  opts.num_threads = pool_threads;
  opts.load_run_bytes = run_bytes;
  return opts;
}

LoadedStore OpenStore(OrderEncoding enc, const DatabaseOptions& opts) {
  LoadedStore out;
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  out.db = std::move(db).value();
  auto store = OrderedXmlStore::Create(out.db.get(), enc, StoreOptions{});
  EXPECT_TRUE(store.ok()) << store.status();
  out.store = std::move(store).value();
  return out;
}

LoadedStore LoadNews(OrderEncoding enc, size_t pool_threads,
                     size_t run_bytes = 1u << 20) {
  LoadedStore out = OpenStore(enc, LoadOptions(pool_threads, run_bytes));
  auto doc = NewsDoc();
  Status st = out.store->LoadDocument(*doc);
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

/// Every live heap row of `table` in page-chain (= insertion) order,
/// encoded to its exact storage bytes. Comparing these streams proves two
/// loads produced the same rows in the same physical order — strictly
/// stronger than comparing query results.
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

/// Every index of `table` by name, as its (key, rid) entries in tree
/// order.
std::map<std::string, std::vector<BPlusTree::Entry>> IndexEntries(
    Database* db, const std::string& table) {
  std::map<std::string, std::vector<BPlusTree::Entry>> out;
  TableInfo* t = db->GetTable(table);
  EXPECT_NE(t, nullptr);
  if (t == nullptr) return out;
  for (const auto& idx : t->indexes()) {
    std::vector<BPlusTree::Entry>& entries = out[idx->name];
    for (auto it = idx->tree.Begin(); it.valid(); it.Next()) {
      entries.emplace_back(it.key(), it.rid());
    }
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

/// The DOM oracle's signature format: a serialized subtree, or
/// @name=value for an attribute.
std::vector<std::string> Signatures(OrderedXmlStore* store,
                                    const std::vector<StoredNode>& nodes) {
  std::vector<std::string> out;
  for (const StoredNode& n : nodes) {
    if (n.kind == XmlNodeKind::kAttribute) {
      out.push_back("@" + n.tag + "=" + n.value);
      continue;
    }
    auto subtree = store->ReconstructSubtree(n);
    EXPECT_TRUE(subtree.ok()) << subtree.status();
    out.push_back(subtree.ok() ? WriteXml(**subtree) : "");
  }
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

// ---------------------------------------------- inline-vs-pool differential

class ParallelLoadDifferentialTest
    : public ::testing::TestWithParam<OrderEncoding> {};

// The acceptance bar of the pipeline: at every pool size the load must
// leave the heap byte-identical (same rows, same physical order) to an
// inline load, because order keys are pre-assigned from the partition
// pass and the k-way merge restores document order.
TEST_P(ParallelLoadDifferentialTest, ByteIdenticalAtEveryThreadCount) {
  OrderEncoding enc = GetParam();
  LoadedStore inline_load = LoadNews(enc, 0);
  std::vector<std::string> want = HeapRowBytes(inline_load.db.get(), "nodes");
  ASSERT_FALSE(want.empty());
  const ExecStats* inline_stats = inline_load.db->stats();
  EXPECT_EQ(inline_stats->rows_shredded.value(), want.size());
  EXPECT_EQ(inline_stats->load_threads_used.value(), 1u);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LoadedStore par = LoadNews(enc, threads);
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
// actually exercised (a single run would bypass it), inline and on a pool.
TEST_P(ParallelLoadDifferentialTest, ManySmallRunsMergeBackToSerialOrder) {
  OrderEncoding enc = GetParam();
  std::vector<std::string> want = HeapRowBytes(LoadNews(enc, 0).db.get(),
                                               "nodes");
  for (size_t threads : {0u, 4u}) {
    LoadedStore small = LoadNews(enc, threads, /*run_bytes=*/1024);
    EXPECT_GT(small.db->stats()->runs_merged.value(), 1u)
        << "threads=" << threads;
    EXPECT_EQ(HeapRowBytes(small.db.get(), "nodes"), want)
        << "threads=" << threads;
  }
}

// QR1-QR7 on a pool load and an inline load agree node for node, and both
// match the DOM oracle's answers over the source document; QR8
// reconstructs one section identically.
TEST_P(ParallelLoadDifferentialTest, QueriesMatchSerialLoad) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, 4);
  LoadedStore ser = LoadNews(enc, 0);
  auto doc = NewsDoc();
  fuzz::DomOracle oracle(*doc);

  for (const char* xpath : kQueries) {
    auto parsed = ParseXPath(xpath);
    ASSERT_TRUE(parsed.ok()) << xpath << " -> " << parsed.status();
    std::vector<std::string> want;
    for (const fuzz::OracleNode& n : oracle.Evaluate(*parsed)) {
      want.push_back(oracle.Signature(n));
    }
    EXPECT_FALSE(want.empty()) << xpath;
    auto a = EvaluateXPath(par.store.get(), xpath);
    auto b = EvaluateXPath(ser.store.get(), xpath);
    ASSERT_TRUE(a.ok()) << xpath << " -> " << a.status();
    ASSERT_TRUE(b.ok()) << xpath << " -> " << b.status();
    EXPECT_EQ(Identities(enc, *a), Identities(enc, *b)) << xpath;
    EXPECT_EQ(Signatures(par.store.get(), *a), want) << xpath;
    EXPECT_EQ(Signatures(ser.store.get(), *b), want) << xpath;
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
// against the original DOM, after a pool load and after an inline load.
TEST_P(ParallelLoadDifferentialTest, ValidatesAndReconstructs) {
  OrderEncoding enc = GetParam();
  auto doc = NewsDoc();
  for (size_t threads : {0u, 4u}) {
    LoadedStore ls = LoadNews(enc, threads);
    EXPECT_TRUE(ls.store->Validate().ok()) << "threads=" << threads;
    auto rebuilt = ls.store->ReconstructDocument();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(WriteXml(**rebuilt), WriteXml(*doc)) << "threads=" << threads;
  }
}

// A load must not disturb subsequent incremental updates: the Local id
// allocator and the Global/Dewey gap numbering have to continue exactly
// where the loaded rows left them, on a pool and inline alike.
TEST_P(ParallelLoadDifferentialTest, UpdatesAfterParallelLoadStayCorrect) {
  OrderEncoding enc = GetParam();
  LoadedStore par = LoadNews(enc, 4);
  LoadedStore ser = LoadNews(enc, 0);

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

// The bulk install (AppendBatch + bottom-up index builds) against the
// per-row path it replaced: the loaded table's rows, re-inserted one by
// one through a prepared INSERT ... ExecuteBatch into an empty table of
// the same schema, leave identical heap bytes and identical (key, rid)
// entries in every index.
TEST_P(ParallelLoadDifferentialTest, BulkInstallMatchesRowByRowInserts) {
  OrderEncoding enc = GetParam();
  LoadedStore bulk = LoadNews(enc, 0);
  LoadedStore rowwise = OpenStore(enc, LoadOptions(0));

  TableInfo* t = bulk.db->GetTable("nodes");
  ASSERT_NE(t, nullptr);
  std::vector<Row> rows;
  HeapTable::Iterator it = t->heap()->Scan();
  Rid rid;
  Row row;
  while (true) {
    auto has = it.Next(&rid, &row);
    ASSERT_TRUE(has.ok()) << has.status();
    if (!*has) break;
    rows.push_back(row);
  }
  ASSERT_FALSE(rows.empty());
  std::string sql = "INSERT INTO nodes (" +
                    std::string(bulk.store->NodeColumns()) + ") VALUES (?";
  for (size_t i = 1; i < rows[0].size(); ++i) sql += ", ?";
  sql += ")";
  auto ins = rowwise.db->Prepare(sql);
  ASSERT_TRUE(ins.ok()) << ins.status();
  auto n = ins->ExecuteBatch(rows);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, static_cast<int64_t>(rows.size()));

  EXPECT_EQ(HeapRowBytes(rowwise.db.get(), "nodes"),
            HeapRowBytes(bulk.db.get(), "nodes"));
  auto want = IndexEntries(rowwise.db.get(), "nodes");
  auto got = IndexEntries(bulk.db.get(), "nodes");
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, entries] : want) {
    EXPECT_EQ(got[name].size(), rows.size()) << name;
    EXPECT_TRUE(got[name] == entries) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, ParallelLoadDifferentialTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

// ------------------------------------------------------- repeated loads

// A store holds one document: a second LoadDocument into a non-empty store
// is rejected, inline and on a pool, before it writes anything, because
// no encoding has a unique index that would catch the duplicate rows.
// The bool parameter selects a 2-thread execution pool.
class SecondLoadTest : public ::testing::TestWithParam<
                           std::tuple<OrderEncoding, bool>> {};

TEST_P(SecondLoadTest, IsRejectedAndLeavesTheStoreIntact) {
  auto [enc, with_pool] = GetParam();
  auto db = Database::Open(LoadOptions(with_pool ? 2 : 0));
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

// ------------------------------------------------------- nesting limit

// The deepest document the parser admits goes through everything that
// recurses per level: the partitioner and the shredders, reconstruction,
// WriteXml and DOM teardown, on every encoding.
class DeepDocumentTest : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(DeepDocumentTest, LoadsAndReconstructsAtTheNestingLimit) {
  std::string xml;
  for (size_t i = 0; i < kMaxXmlDepth; ++i) xml += "<a>";
  xml += "x";
  for (size_t i = 0; i < kMaxXmlDepth; ++i) xml += "</a>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();

  LoadedStore ls = OpenStore(GetParam(), LoadOptions(0));
  Status load = ls.store->LoadDocument(**doc);
  ASSERT_TRUE(load.ok()) << load;
  auto count = ls.store->NodeCount();
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, static_cast<int64_t>(kMaxXmlDepth + 1));
  auto rebuilt = ls.store->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(WriteXml(**rebuilt), xml);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, DeepDocumentTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

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

// The shred phase of a load runs outside the exclusive statement latch, so readers of an already-loaded table must keep making progress
// while another document is being shredded into a second table. Under
// TSan this also audits the pool/latch interaction of the load path.
TEST(LoadConcurrencyTest, ReadersOverlapParallelLoad) {
  auto db = Database::Open(LoadOptions(2));
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
