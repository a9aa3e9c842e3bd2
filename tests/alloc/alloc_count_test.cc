// Allocation-count guard for the read path.
//
// This executable replaces the global operator new with a counting one, so
// it is built on its own (linking it into oxml_tests would count every
// other suite's allocations too). It loads the 150 x 20 news document of
// bench_e2e's qr_read workload into a Global store and counts the heap
// allocations of one warm page view: the paper's QR1-QR8 XPaths, each
// result node reconstructed and serialized, as the kXPath frame does. The
// count is exact and repeats on any host, unlike latency, so a change that
// puts per-row copies back on the read path fails here. It includes the
// standard library's own allocations (string and hash-table growth), so it
// holds for one toolchain: the ceilings were set with GCC 12.2 and its
// libstdc++, and a new compiler or standard library may move the count.
//
// The ceilings sit about 10% above the counts measured when they were set;
// lower them when a change removes more allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/database.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_writer.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so that GCC does not pair a free() inlined into a test body
// with the operator new it sees there (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace oxml {
namespace {

// Measured at the commit that set them: 194,773 and 18 allocations.
constexpr uint64_t kPageViewCeiling = 214000;
constexpr uint64_t kTitleReconstructCeiling = 20;
// Rows the page view scans; a change of plan shows up here first.
constexpr uint64_t kPageViewRowsScanned = 35642;

const char* const kQrRead[] = {
    "//para",
    "/nitf/body/section[5]/title",
    "/nitf/body/section[last()]/para[last()]",
    "//section[@id = 's10']/following-sibling::section",
    "/nitf/body//para",
    "//para[@class = 'lead']",
    "/nitf/body/section[position() >= 50]/title",
    "/nitf/body/section[75]",
};

class AllocationGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto store = OrderedXmlStore::Create(db_.get(), OrderEncoding::kGlobal);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
    NewsGeneratorOptions gen;
    gen.seed = 1;
    gen.sections = 150;
    gen.paragraphs_per_section = 20;
    ASSERT_TRUE(store_->LoadDocument(*GenerateNewsXml(gen)).ok());
  }

  /// One page view; returns the bytes of the serialized answers.
  size_t PageView() {
    size_t bytes = 0;
    for (const char* q : kQrRead) {
      auto nodes = EvaluateXPath(store_.get(), q);
      EXPECT_TRUE(nodes.ok()) << q << ": " << nodes.status().ToString();
      if (!nodes.ok()) continue;
      for (const StoredNode& n : *nodes) {
        if (n.kind == XmlNodeKind::kAttribute) {
          bytes += n.tag.size() + n.value.size();
          continue;
        }
        auto subtree = store_->ReconstructSubtree(n);
        EXPECT_TRUE(subtree.ok()) << subtree.status().ToString();
        if (subtree.ok()) bytes += WriteXml(**subtree).size();
      }
    }
    return bytes;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
};

TEST_F(AllocationGuardTest, QrReadPageViewStaysUnderCeiling) {
  const size_t warm_bytes = PageView();  // compiles and caches every plan
  const uint64_t rows_before = db_->stats()->rows_scanned;
  const uint64_t before = g_allocations.load();
  const size_t bytes = PageView();
  const uint64_t allocations = g_allocations.load() - before;
  const uint64_t rows = db_->stats()->rows_scanned - rows_before;
  EXPECT_EQ(bytes, warm_bytes);
  EXPECT_EQ(rows, kPageViewRowsScanned);
  std::printf("qr_read page view (Global): %llu allocations, %llu rows\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(rows));
  EXPECT_LE(allocations, kPageViewCeiling);
}

TEST_F(AllocationGuardTest, TwoRowReconstructStaysUnderCeiling) {
  auto nodes = EvaluateXPath(store_.get(), "/nitf/body/section[5]/title");
  ASSERT_TRUE(nodes.ok());
  ASSERT_EQ(nodes->size(), 1u);
  const StoredNode& title = nodes->front();
  ASSERT_TRUE(store_->ReconstructSubtree(title).ok());  // warm the plan
  const uint64_t before = g_allocations.load();
  auto subtree = store_->ReconstructSubtree(title);
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(subtree.ok());
  // Two rows: the element and its text.
  ASSERT_EQ((*subtree)->child_count(), 1u);
  EXPECT_TRUE((*subtree)->child(0)->is_text());
  EXPECT_TRUE((*subtree)->attributes().empty());
  std::printf("2-row ReconstructSubtree (Global): %llu allocations\n",
              static_cast<unsigned long long>(allocations));
  EXPECT_LE(allocations, kTitleReconstructCeiling);
}

}  // namespace
}  // namespace oxml
