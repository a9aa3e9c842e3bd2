// Storage layer tests: slotted pages, buffer pool (both backends, eviction),
// heap tables, row codec and the order-preserving key codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/relational/buffer_pool.h"
#include "src/relational/heap_table.h"
#include "src/relational/key_codec.h"
#include "src/relational/page.h"
#include "src/relational/database.h"
#include "src/relational/schema.h"

namespace oxml {
namespace {

// ------------------------------------------------------------ slotted page

class SlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SlottedPage::Initialize(buf_);
  }
  char buf_[kPageSize];
};

TEST_F(SlottedPageTest, InsertGetDelete) {
  SlottedPage page(buf_);
  auto s1 = page.Insert("hello");
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*page.Get(*s1), "hello");
  EXPECT_EQ(*page.Get(*s2), "world!");
  EXPECT_EQ(page.LiveCount(), 2u);

  ASSERT_TRUE(page.Delete(*s1).ok());
  EXPECT_FALSE(page.Get(*s1).ok());
  EXPECT_EQ(page.LiveCount(), 1u);
  // Slot ids remain stable after deletes.
  EXPECT_EQ(*page.Get(*s2), "world!");
}

TEST_F(SlottedPageTest, SlotReuseAfterDelete) {
  SlottedPage page(buf_);
  auto s1 = page.Insert("aaa");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(page.Delete(*s1).ok());
  auto s2 = page.Insert("bbb");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1);  // directory entry reused
}

TEST_F(SlottedPageTest, FillsUntilFullThenCompacts) {
  SlottedPage page(buf_);
  std::string cell(100, 'x');
  std::vector<uint16_t> slots;
  while (true) {
    auto s = page.Insert(cell);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsOutOfRange());
      break;
    }
    slots.push_back(*s);
  }
  EXPECT_GT(slots.size(), 70u);
  // Free half the cells; space must become reusable via compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page.Delete(slots[i]).ok());
  }
  int inserted = 0;
  while (page.Insert(cell).ok()) ++inserted;
  EXPECT_GE(inserted, static_cast<int>(slots.size() / 2) - 1);
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  SlottedPage page(buf_);
  auto s = page.Insert("0123456789");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(page.Update(*s, "short").ok());
  EXPECT_EQ(*page.Get(*s), "short");
  ASSERT_TRUE(page.Update(*s, "a considerably longer cell body").ok());
  EXPECT_EQ(*page.Get(*s), "a considerably longer cell body");
}

TEST_F(SlottedPageTest, RejectsOversizedCell) {
  SlottedPage page(buf_);
  std::string huge(kPageSize, 'x');
  EXPECT_FALSE(page.Insert(huge).ok());
}

TEST_F(SlottedPageTest, NextPageChain) {
  SlottedPage page(buf_);
  EXPECT_EQ(page.next_page(), kInvalidPageId);
  page.set_next_page(42);
  EXPECT_EQ(page.next_page(), 42u);
}

// ------------------------------------------------------------- buffer pool

TEST(BufferPoolTest, MemoryBackendBasics) {
  BufferPool pool(std::make_unique<MemoryBackend>(), 0);
  auto p1 = pool.NewPage();
  ASSERT_TRUE(p1.ok());
  p1->data()[0] = 'A';
  p1->MarkDirty();
  uint32_t id = p1->page_id();
  // Handle released; refetch sees the write.
  *p1 = PageHandle();
  auto p2 = pool.FetchPage(id);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->data()[0], 'A');
}

TEST(BufferPoolTest, FileBackendEvictionPersistsDirtyPages) {
  std::string path = ::testing::TempDir() + "/pool_test.db";
  auto backend = FileBackend::Open(path);
  ASSERT_TRUE(backend.ok());
  BufferPool pool(std::move(backend).value(), 2);  // tiny pool

  std::vector<uint32_t> ids;
  for (int i = 0; i < 10; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok()) << p.status();
    p->data()[0] = static_cast<char>('a' + i);
    p->MarkDirty();
    ids.push_back(p->page_id());
  }
  // All pages must read back correctly despite evictions.
  for (int i = 0; i < 10; ++i) {
    auto p = pool.FetchPage(ids[i]);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[0], static_cast<char>('a' + i));
  }
  EXPECT_GT(pool.miss_count(), 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  auto backend = FileBackend::Open(::testing::TempDir() + "/pool_pin.db");
  ASSERT_TRUE(backend.ok());
  BufferPool pool(std::move(backend).value(), 2);
  auto p1 = pool.NewPage();
  auto p2 = pool.NewPage();
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Both frames pinned; a third page cannot find a victim.
  auto p3 = pool.NewPage();
  EXPECT_FALSE(p3.ok());
  EXPECT_TRUE(p3.status().IsInternal());
}

// ---------------------------------------- buffer pool: loads and CLOCK

// A MemoryBackend that counts ReadPage calls and can hold the next read at
// a gate until Release(), and fail it. The pool owns it; tests keep a raw
// pointer.
class GatedBackend : public StorageBackend {
 public:
  Result<uint32_t> AllocatePage() override { return inner_.AllocatePage(); }
  Status WritePage(uint32_t id, const char* buf) override {
    return inner_.WritePage(id, buf);
  }
  uint32_t page_count() const override { return inner_.page_count(); }

  Status ReadPage(uint32_t id, char* buf) override {
    reads_.fetch_add(1);
    bool fail = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (hold_next_) {
        hold_next_ = false;
        fail = fail_held_;
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    if (fail) return Status::IOError("injected read failure");
    return inner_.ReadPage(id, buf);
  }

  /// The next ReadPage blocks until Release(), then fails if `fail`.
  void HoldNextRead(bool fail = false) {
    std::lock_guard<std::mutex> lock(mu_);
    hold_next_ = true;
    fail_held_ = fail;
    released_ = false;
  }
  /// Waits until a read is parked at the gate.
  bool WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return held_ > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    held_ = 0;
    cv_.notify_all();
  }
  int reads() const { return reads_.load(); }

 private:
  MemoryBackend inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_next_ = false;
  bool fail_held_ = false;
  bool released_ = false;
  int held_ = 0;
  std::atomic<int> reads_{0};
};

// Writes `n` pages straight into `backend`, page i filled with byte 'a'+i,
// so a pool over it starts with nothing resident.
void FillPages(StorageBackend* backend, int n) {
  for (int i = 0; i < n; ++i) {
    auto id = backend->AllocatePage();
    ASSERT_TRUE(id.ok()) << id.status();
    std::vector<char> page(kPageSize, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(backend->WritePage(*id, page.data()).ok());
  }
}

bool PageHolds(const PageHandle& p, int i) {
  const char want = static_cast<char>('a' + i % 26);
  for (size_t b = 0; b < kPageSize; ++b) {
    if (p.data()[b] != want) return false;
  }
  return true;
}

// Polls `done` for up to 10 s: true once it holds.
template <typename Pred>
bool Eventually(Pred done) {
  for (int i = 0; i < 10000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(BufferPoolLoadTest, SamePageFaultedByFourThreadsIsReadOnce) {
  auto owned = std::make_unique<GatedBackend>();
  GatedBackend* backend = owned.get();
  FillPages(backend, 4);
  BufferPool pool(std::move(owned), 8);
  backend->HoldNextRead();
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto p = pool.FetchPage(2);
      if (p.ok() && PageHolds(*p, 2)) ++correct;
    });
  }
  ASSERT_TRUE(backend->WaitHeld());
  // The three fetchers behind the first pin its loading frame (counted as
  // hits) and wait on it rather than on the table latch.
  bool all_waiting = Eventually([&] { return pool.hit_count() == 3; });
  backend->Release();
  for (auto& th : threads) th.join();
  EXPECT_TRUE(all_waiting) << "hits before the load finished: "
                           << pool.hit_count();
  EXPECT_EQ(correct.load(), 4);
  EXPECT_EQ(backend->reads(), 1);
  EXPECT_EQ(pool.miss_count(), 1u);
  EXPECT_EQ(pool.pinned_frame_count(), 0u);
}

TEST(BufferPoolLoadTest, HitsAndOtherMissesProceedWhileAReadIsInFlight) {
  auto owned = std::make_unique<GatedBackend>();
  GatedBackend* backend = owned.get();
  FillPages(backend, 4);
  BufferPool pool(std::move(owned), 8);
  ASSERT_TRUE(pool.FetchPage(0).ok());  // resident, unpinned
  backend->HoldNextRead();
  std::thread slow([&] {
    auto p = pool.FetchPage(1);
    EXPECT_TRUE(p.ok() && PageHolds(*p, 1));
  });
  ASSERT_TRUE(backend->WaitHeld());
  // With page 1's read parked, a hit on page 0 and a miss on page 3 both
  // complete: neither waits behind the in-flight read.
  auto others = std::async(std::launch::async, [&] {
    auto hit = pool.FetchPage(0);
    auto miss = pool.FetchPage(3);
    return hit.ok() && PageHolds(*hit, 0) && miss.ok() && PageHolds(*miss, 3);
  });
  bool finished =
      others.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  backend->Release();
  slow.join();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(others.get());
  EXPECT_EQ(pool.pinned_frame_count(), 0u);
}

TEST(BufferPoolLoadTest, ThreadsFaultingDistinctPagesReadCorrectBytes) {
  auto backend = FileBackend::Open(::testing::TempDir() + "/pool_load.db");
  ASSERT_TRUE(backend.ok()) << backend.status();
  constexpr int kPages = 32;
  FillPages(backend->get(), kPages);
  BufferPool pool(std::move(backend).value(), 4);  // 4 frames, 32 pages
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      // Each thread holds one pin at a time, so a miss always finds an
      // unpinned frame among the four.
      for (int i = 0; i < 400; ++i) {
        int page = static_cast<int>(rng.Uniform(0, kPages - 1));
        auto p = pool.FetchPage(static_cast<uint32_t>(page));
        if (!p.ok() || !PageHolds(*p, page)) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(pool.miss_count(), 0u);
  EXPECT_EQ(pool.pinned_frame_count(), 0u);
}

TEST(BufferPoolLoadTest, FailedReadReachesEveryWaiterAndTheNextFetchRetries) {
  auto owned = std::make_unique<GatedBackend>();
  GatedBackend* backend = owned.get();
  FillPages(backend, 4);
  BufferPool pool(std::move(owned), 8);
  backend->HoldNextRead(/*fail=*/true);
  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto p = pool.FetchPage(1);
      if (!p.ok() && p.status().IsIOError()) ++io_errors;
    });
  }
  ASSERT_TRUE(backend->WaitHeld());
  bool all_waiting = Eventually([&] { return pool.hit_count() == 3; });
  backend->Release();
  for (auto& th : threads) th.join();
  EXPECT_TRUE(all_waiting);
  EXPECT_EQ(io_errors.load(), 4);
  EXPECT_EQ(backend->reads(), 1);
  EXPECT_EQ(pool.pinned_frame_count(), 0u);
  // The failed frame was unmapped: the next fetch reads the page again.
  auto p = pool.FetchPage(1);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(PageHolds(*p, 1));
  EXPECT_EQ(backend->reads(), 2);
}

TEST(BufferPoolClockTest, ReferencedFrameSurvivesOneSweep) {
  auto owned = std::make_unique<GatedBackend>();
  FillPages(owned.get(), 6);
  BufferPool pool(std::move(owned), 3);
  for (uint32_t id : {0u, 1u, 2u}) ASSERT_TRUE(pool.FetchPage(id).ok());
  // Every frame is referenced: the sweep clears all three bits and takes
  // the frame the hand started at (page 0).
  ASSERT_TRUE(pool.FetchPage(3).ok());
  ASSERT_TRUE(pool.FetchPage(1).ok());  // hit: page 1 is referenced again
  const uint64_t misses = pool.miss_count();
  // The hand now passes page 1 (clearing its bit) and evicts page 2.
  ASSERT_TRUE(pool.FetchPage(4).ok());
  ASSERT_TRUE(pool.FetchPage(1).ok());
  EXPECT_EQ(pool.miss_count(), misses + 1) << "page 1 was evicted";
  ASSERT_TRUE(pool.FetchPage(2).ok());
  EXPECT_EQ(pool.miss_count(), misses + 2) << "page 2 stayed resident";
}

TEST(BufferPoolClockTest, LoadingAndPinnedFramesAreNeverVictims) {
  auto owned = std::make_unique<GatedBackend>();
  GatedBackend* backend = owned.get();
  FillPages(backend, 4);
  BufferPool pool(std::move(owned), 2);
  backend->HoldNextRead();
  std::thread loader([&] {
    auto p = pool.FetchPage(0);
    EXPECT_TRUE(p.ok() && PageHolds(*p, 0));
  });
  ASSERT_TRUE(backend->WaitHeld());
  // Off this thread, so a pool that blocked here could not hang the test.
  auto during = std::async(std::launch::async, [&]() -> std::string {
    auto pinned = pool.FetchPage(1);
    if (!pinned.ok()) return pinned.status().ToString();
    if (!PageHolds(*pinned, 1)) return "page 1 read wrong bytes";
    // One frame is loading, the other pinned: nothing to evict.
    auto third = pool.FetchPage(2);
    if (third.ok()) return "page 2 evicted a loading or pinned frame";
    if (!third.status().IsInternal()) return third.status().ToString();
    return "";
  });
  bool finished =
      during.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  backend->Release();
  loader.join();
  ASSERT_TRUE(finished) << "fetches waited behind the in-flight read";
  EXPECT_EQ(during.get(), "");
  {
    // Both frames ready and pinned: still nothing to evict.
    auto a = pool.FetchPage(0);
    auto b = pool.FetchPage(1);
    ASSERT_TRUE(a.ok() && b.ok());
    auto third = pool.FetchPage(2);
    EXPECT_FALSE(third.ok());
    EXPECT_TRUE(third.status().IsInternal()) << third.status();
  }
  auto p = pool.FetchPage(2);  // unpinned again: a victim exists
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(PageHolds(*p, 2));
}

// Every statement releases every pin it took: reads, writes, joins, sorts,
// failed statements and concurrent readers, on a file-backed database
// whose 8-frame pool forces evictions.
TEST(BufferPoolStatementTest, NoPinSurvivesAStatement) {
  const std::string path = ::testing::TempDir() + "/pool_stmt.db";
  std::remove(path.c_str());
  std::remove((path + "-wal").c_str());
  DatabaseOptions opts;
  opts.file_path = path;
  opts.buffer_capacity = 8;
  auto dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  BufferPool* pool = db->buffer_pool();
  auto run = [&](const std::string& sql, bool expect_ok = true) {
    auto r = db->Execute(sql);
    EXPECT_EQ(r.ok(), expect_ok) << sql << " -> " << r.status();
    EXPECT_EQ(pool->pinned_frame_count(), 0u) << "after " << sql;
  };
  run("CREATE TABLE t (a INT, b TEXT)");
  run("CREATE INDEX t_a ON t (a)");
  run("CREATE TABLE u (a INT, c INT)");
  std::string filler(200, 'y');
  for (int i = 0; i < 300; ++i) {
    run("INSERT INTO t VALUES (" + std::to_string(i * 7 % 300) + ", '" +
        filler + "')");
    if (i % 10 == 0) {
      run("INSERT INTO u VALUES (" + std::to_string(i) + ", 1)");
    }
  }
  run("UPDATE t SET b = 'z' WHERE a < 20");
  run("DELETE FROM t WHERE a >= 290");
  run("INSERT INTO nope VALUES (1)", /*expect_ok=*/false);
  const char* queries[] = {
      "SELECT a, b FROM t",
      "SELECT a FROM t WHERE a >= 100 AND a < 140",
      "SELECT a FROM t WHERE a = 77",
      "SELECT t.a, u.c FROM t, u WHERE t.a = u.a",
      "SELECT a FROM t ORDER BY b, a LIMIT 5",
      "SELECT COUNT(*) FROM t",
  };
  for (const char* q : queries) {
    auto rs = db->Query(q);
    EXPECT_TRUE(rs.ok()) << q << " -> " << rs.status();
    EXPECT_EQ(pool->pinned_frame_count(), 0u) << "after " << q;
  }
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        if (!db->Query(queries[(t + i) % 6]).ok()) ++failures;
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool->pinned_frame_count(), 0u);
  EXPECT_GT(pool->miss_count(), 0u);
}

// -------------------------------------------------------------- row codec

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema schema({{"i", TypeId::kInt},
                 {"d", TypeId::kDouble},
                 {"t", TypeId::kText},
                 {"b", TypeId::kBlob}});
  Row row{Value::Int(-42), Value::Double(3.25), Value::Text("hi there"),
          Value::Blob(std::string("\x00\x01\xFF", 3))};
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, EncodeRow(schema, row), &decoded).ok());
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded[0].AsInt(), -42);
  EXPECT_DOUBLE_EQ(decoded[1].AsDouble(), 3.25);
  EXPECT_EQ(decoded[2].AsString(), "hi there");
  EXPECT_EQ(decoded[3].AsString(), std::string("\x00\x01\xFF", 3));
}

TEST(RowCodecTest, NullBitmap) {
  Schema schema({{"a", TypeId::kInt},
                 {"b", TypeId::kText},
                 {"c", TypeId::kDouble}});
  Row row{Value::Null(), Value::Text(""), Value::Null()};
  Row decoded;
  ASSERT_TRUE(DecodeRow(schema, EncodeRow(schema, row), &decoded).ok());
  EXPECT_TRUE(decoded[0].is_null());
  EXPECT_FALSE(decoded[1].is_null());
  EXPECT_TRUE(decoded[2].is_null());
}

// Scans decode every row into one reused Row: nothing of the previous row
// (type, string, a longer arity) may survive the next decode.
TEST(RowCodecTest, DecodeOverwritesAReusedRow) {
  Schema schema({{"a", TypeId::kInt},
                 {"b", TypeId::kText},
                 {"c", TypeId::kBlob}});
  Row row{Value::Text("a string long enough to live on the heap"),
          Value::Int(9), Value::Null(), Value::Int(4)};
  ASSERT_TRUE(DecodeRow(schema,
                        EncodeRow(schema, Row{Value::Int(1), Value::Null(),
                                              Value::Blob("xy")}),
                        &row)
                  .ok());
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].type(), TypeId::kInt);
  EXPECT_EQ(row[0].AsInt(), 1);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2].type(), TypeId::kBlob);
  EXPECT_EQ(row[2].AsString(), "xy");
  ASSERT_TRUE(DecodeRow(schema,
                        EncodeRow(schema, Row{Value::Null(), Value::Text("t"),
                                              Value::Null()}),
                        &row)
                  .ok());
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1].type(), TypeId::kText);
  EXPECT_EQ(row[1].AsString(), "t");
  EXPECT_TRUE(row[2].is_null());
  EXPECT_EQ(row[2].AsString(), "");
}

TEST(RowCodecTest, RejectsTruncatedBytes) {
  Schema schema({{"t", TypeId::kText}});
  std::string bytes = EncodeRow(schema, Row{Value::Text("hello")});
  Row decoded;
  EXPECT_FALSE(
      DecodeRow(schema, std::string_view(bytes).substr(0, 3), &decoded).ok());
}

// -------------------------------------------------------------- heap table

TEST(HeapTableTest, InsertScanDeleteUpdate) {
  BufferPool pool(std::make_unique<MemoryBackend>(), 0);
  Schema schema({{"id", TypeId::kInt}, {"s", TypeId::kText}});
  auto table = HeapTable::Create(&pool, schema);
  ASSERT_TRUE(table.ok());
  HeapTable* heap = table->get();

  std::vector<Rid> rids;
  for (int i = 0; i < 5000; ++i) {
    auto rid = heap->Insert(
        Row{Value::Int(i), Value::Text("row " + std::to_string(i))});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ(heap->row_count(), 5000u);
  EXPECT_GT(heap->page_chain_length(), 1u);

  auto row = heap->Get(rids[1234]);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt(), 1234);

  // Delete every third row.
  for (size_t i = 0; i < rids.size(); i += 3) {
    ASSERT_TRUE(heap->Delete(rids[i]).ok());
  }
  EXPECT_FALSE(heap->Get(rids[0]).ok());

  // Scan sees exactly the survivors.
  size_t count = 0;
  auto it = heap->Scan();
  Rid rid;
  Row r;
  while (true) {
    auto has = it.Next(&rid, &r);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    ++count;
  }
  EXPECT_EQ(count, heap->row_count());

  // Update with growth (forces relocation for some rows).
  std::string big(500, 'y');
  auto new_rid = heap->Update(rids[1234], Row{Value::Int(1234),
                                              Value::Text(big)});
  ASSERT_TRUE(new_rid.ok());
  auto updated = heap->Get(*new_rid);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ((*updated)[1].AsString(), big);
}

// --------------------------------------------------------------- key codec

TEST(KeyCodecTest, IntOrderPreserved) {
  std::vector<int64_t> vals = {INT64_MIN, -100000, -1, 0, 1, 7, 100000,
                               INT64_MAX};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    EXPECT_LT(EncodeKey(Value::Int(vals[i])),
              EncodeKey(Value::Int(vals[i + 1])))
        << vals[i] << " vs " << vals[i + 1];
  }
}

TEST(KeyCodecTest, DoubleOrderPreserved) {
  std::vector<double> vals = {-1e300, -2.5, -0.0, 0.0, 1e-10, 3.25, 1e300};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    EXPECT_LE(EncodeKey(Value::Double(vals[i])),
              EncodeKey(Value::Double(vals[i + 1])));
  }
}

TEST(KeyCodecTest, TextOrderPreservedWithEmbeddedNuls) {
  std::vector<std::string> vals = {"", std::string("\x00", 1),
                                   std::string("\x00q", 2), "a",
                                   std::string("a\x00", 2), "ab", "b"};
  for (size_t i = 0; i + 1 < vals.size(); ++i) {
    EXPECT_LT(EncodeKey(Value::Text(vals[i])),
              EncodeKey(Value::Text(vals[i + 1])))
        << i;
  }
}

TEST(KeyCodecTest, NullSortsFirst) {
  EXPECT_LT(EncodeKey(Value::Null()), EncodeKey(Value::Int(INT64_MIN)));
  EXPECT_LT(EncodeKey(Value::Null()), EncodeKey(Value::Text("")));
}

TEST(KeyCodecTest, CompositeKeysCompareLexicographically) {
  std::string a = EncodeKey({Value::Text("alpha"), Value::Int(2)});
  std::string b = EncodeKey({Value::Text("alpha"), Value::Int(10)});
  std::string c = EncodeKey({Value::Text("beta"), Value::Int(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(KeyCodecTest, PrefixBoundsCoverExtensions) {
  // KeySuccessor of an equality prefix must sit above every composite key
  // extending that prefix.
  std::string prefix = EncodeKey(Value::Text("tag7"));
  std::string upper = KeySuccessor(prefix);
  Random rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string full =
        EncodeKey({Value::Text("tag7"), Value::Int(rng.Uniform(-1000, 1000))});
    EXPECT_GT(full, prefix);
    EXPECT_LT(full, upper);
  }
  EXPECT_GT(EncodeKey(Value::Text("tag8")), upper);
}

TEST(KeyCodecTest, RandomizedOrderProperty) {
  // memcmp order of encodings equals Value::Compare order for same-typed
  // random values.
  Random rng(31337);
  for (int i = 0; i < 2000; ++i) {
    Value a, b;
    switch (rng.Uniform(0, 2)) {
      case 0:
        a = Value::Int(rng.Uniform(-1'000'000, 1'000'000));
        b = Value::Int(rng.Uniform(-1'000'000, 1'000'000));
        break;
      case 1:
        a = Value::Double(rng.NextDouble() * 2000 - 1000);
        b = Value::Double(rng.NextDouble() * 2000 - 1000);
        break;
      default:
        a = Value::Text(rng.Word(0, 8));
        b = Value::Text(rng.Word(0, 8));
    }
    int logical = a.Compare(b);
    int physical = EncodeKey(a).compare(EncodeKey(b));
    int norm = physical < 0 ? -1 : (physical > 0 ? 1 : 0);
    ASSERT_EQ(logical, norm) << a.ToString() << " vs " << b.ToString();
  }
}

}  // namespace
}  // namespace oxml

namespace oxml {
namespace {

TEST(HeapTableOverflowTest, RowsLargerThanPageRoundTrip) {
  BufferPool pool(std::make_unique<MemoryBackend>(), 0);
  Schema schema({{"id", TypeId::kInt}, {"payload", TypeId::kText}});
  auto table = HeapTable::Create(&pool, schema);
  ASSERT_TRUE(table.ok());
  HeapTable* heap = table->get();

  // A 100 KiB text value spans many overflow pages.
  std::string big(100 * 1024, 'q');
  for (size_t i = 0; i < big.size(); i += 997) big[i] = 'Z';
  auto rid = heap->Insert(Row{Value::Int(1), Value::Text(big)});
  ASSERT_TRUE(rid.ok()) << rid.status();
  auto row = heap->Get(*rid);
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ((*row)[1].AsString(), big);
  EXPECT_GE(heap->data_bytes(), big.size());

  // Mixed small and large rows scan correctly.
  auto small = heap->Insert(Row{Value::Int(2), Value::Text("tiny")});
  ASSERT_TRUE(small.ok());
  auto rid3 = heap->Insert(Row{Value::Int(3), Value::Text(big + "tail")});
  ASSERT_TRUE(rid3.ok());

  size_t count = 0;
  size_t big_seen = 0;
  auto it = heap->Scan();
  Rid r;
  Row out;
  while (true) {
    auto has = it.Next(&r, &out);
    ASSERT_TRUE(has.ok()) << has.status();
    if (!*has) break;
    ++count;
    if (out[1].AsString().size() > 1000) ++big_seen;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(big_seen, 2u);

  // Update large -> small and small -> large.
  auto new_rid = heap->Update(*rid, Row{Value::Int(1), Value::Text("now small")});
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ((*heap->Get(*new_rid))[1].AsString(), "now small");
  auto grown = heap->Update(*small, Row{Value::Int(2), Value::Text(big)});
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*heap->Get(*grown))[1].AsString(), big);

  // Delete a big row; the heap stays consistent.
  ASSERT_TRUE(heap->Delete(*rid3).ok());
  EXPECT_EQ(heap->row_count(), 2u);
}

TEST(HeapTableOverflowTest, WorksThroughSqlLayer) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, body TEXT)").ok());
  std::string big(40000, 'x');
  auto r = db->Execute("INSERT INTO t VALUES (1, '" + big + "')");
  ASSERT_TRUE(r.ok()) << r.status();
  auto rs = db->Query("SELECT LENGTH(body) FROM t WHERE id = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 40000);
}

}  // namespace
}  // namespace oxml
