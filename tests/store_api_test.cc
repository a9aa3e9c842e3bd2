// Tests for the extended store APIs: MoveSubtree, value updates,
// IsDescendantOf, DocumentCollection, and ordered stores over a
// file-backed, eviction-pressured database.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/collection.h"
#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

constexpr const char* kDoc = R"(
<doc>
  <head><title>t0</title></head>
  <body>
    <section id="s1"><title>alpha</title><para>p1</para><para>p2</para></section>
    <section id="s2"><title>beta</title><para>p3</para></section>
  </body>
</doc>)";

class StoreApiTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  void SetUp() override {
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok());
    db_ = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db_.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok());
    store_ = std::move(sr).value();
    auto doc = ParseXml(kDoc);
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    ASSERT_TRUE(store_->LoadDocument(*doc_).ok());
  }

  StoredNode Node(const std::string& xpath) {
    auto r = EvaluateXPath(store_.get(), xpath);
    EXPECT_TRUE(r.ok() && r->size() == 1) << xpath;
    return (*r)[0];
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
  std::unique_ptr<XmlDocument> doc_;
};

// Reconstruction cost in statements: Global and Dewey read a subtree with
// one range statement; Local issues one `pid = ?` probe per element, which
// returns the element's attributes and then its children.
TEST_P(StoreApiTest, ReconstructionStatementsPerElement) {
  struct Case {
    const char* xpath;
    const char* xml;
    uint64_t elements;
  };
  const Case cases[] = {
      {"//section[@id = 's1']/title", "<title>alpha</title>", 1},
      {"//section[@id = 's1']",
       "<section id=\"s1\"><title>alpha</title><para>p1</para>"
       "<para>p2</para></section>",
       4},
      {"/doc/body",
       "<body><section id=\"s1\"><title>alpha</title><para>p1</para>"
       "<para>p2</para></section><section id=\"s2\"><title>beta</title>"
       "<para>p3</para></section></body>",
       8},
  };
  for (const Case& c : cases) {
    StoredNode node = Node(c.xpath);
    uint64_t before = db_->stats()->statements;
    auto subtree = store_->ReconstructSubtree(node);
    uint64_t statements = db_->stats()->statements - before;
    ASSERT_TRUE(subtree.ok()) << subtree.status();
    EXPECT_EQ(WriteXml(**subtree), c.xml);
    EXPECT_EQ(statements,
              GetParam() == OrderEncoding::kLocal ? c.elements : 1u)
        << c.xpath;
  }
}

TEST_P(StoreApiTest, MoveSubtreeReordersSections) {
  StoredNode s2 = Node("//section[@id = 's2']");
  StoredNode s1 = Node("//section[@id = 's1']");
  auto stats = store_->MoveSubtree(s2, s1, InsertPosition::kBefore);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto ids = EvaluateXPathStrings(store_.get(), "//section/@id");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<std::string>{"s2", "s1"}));
  ASSERT_TRUE(store_->Validate().ok()) << store_->Validate();
}

TEST_P(StoreApiTest, MoveSubtreeIntoAnotherElement) {
  StoredNode s1 = Node("//section[@id = 's1']");
  StoredNode head = Node("/doc/head");
  auto stats = store_->MoveSubtree(s1, head, InsertPosition::kLastChild);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(EvaluateXPath(store_.get(), "/doc/head/section")->size(), 1u);
  EXPECT_EQ(EvaluateXPath(store_.get(), "/doc/body/section")->size(), 1u);
  ASSERT_TRUE(store_->Validate().ok());
}

TEST_P(StoreApiTest, MoveIntoOwnSubtreeRejected) {
  StoredNode body = Node("/doc/body");
  StoredNode s1 = Node("//section[@id = 's1']");
  auto stats = store_->MoveSubtree(body, s1, InsertPosition::kFirstChild);
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument()) << stats.status();
  // Nothing must have changed.
  EXPECT_EQ(EvaluateXPath(store_.get(), "//section")->size(), 2u);
}

TEST_P(StoreApiTest, IsDescendantOf) {
  StoredNode root = Node("/doc");
  StoredNode body = Node("/doc/body");
  StoredNode para = Node("//section[@id = 's1']/para[1]");
  EXPECT_TRUE(*store_->IsDescendantOf(para, body));
  EXPECT_TRUE(*store_->IsDescendantOf(para, root));
  EXPECT_FALSE(*store_->IsDescendantOf(body, para));
  EXPECT_FALSE(*store_->IsDescendantOf(body, body));
}

TEST_P(StoreApiTest, UpdateTextValueIsSingleRowUpdate) {
  StoredNode text = Node("//section[@id = 's2']/para[1]/text()");
  auto stats = store_->UpdateNodeValue(text, "revised body");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_renumbered, 0);
  EXPECT_EQ(stats->statements, 1);
  auto v = EvaluateXPathStrings(store_.get(), "//section[@id = 's2']/para[1]");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)[0], "revised body");
  ASSERT_TRUE(store_->Validate().ok());
}

TEST_P(StoreApiTest, UpdateElementValueRejected) {
  StoredNode section = Node("//section[@id = 's1']");
  auto stats = store_->UpdateNodeValue(section, "nope");
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

TEST_P(StoreApiTest, UpdateAttributeValue) {
  StoredNode s1 = Node("//section[@id = 's1']");
  auto stats = store_->UpdateAttributeValue(s1, "id", "s1-renamed");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(EvaluateXPath(store_.get(), "//section[@id = 's1-renamed']")
                ->size(),
            1u);
  EXPECT_EQ(EvaluateXPath(store_.get(), "//section[@id = 's1']")->size(), 0u);

  auto missing = store_->UpdateAttributeValue(s1, "zzz", "x");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_P(StoreApiTest, ValidateDetectsCorruption) {
  ASSERT_TRUE(store_->Validate().ok());
  // Corrupt the table directly underneath the store.
  std::string corrupt;
  switch (GetParam()) {
    case OrderEncoding::kGlobal:
      corrupt = "UPDATE nodes SET pord = 999999 WHERE depth = 3";
      break;
    case OrderEncoding::kLocal:
      corrupt = "UPDATE nodes SET pid = 999999 WHERE depth = 3";
      break;
    case OrderEncoding::kDewey:
      corrupt = "UPDATE nodes SET depth = 99 WHERE depth = 3";
      break;
  }
  ASSERT_TRUE(db_->Execute(corrupt).ok());
  EXPECT_FALSE(store_->Validate().ok());
}

TEST_P(StoreApiTest, FileBackedStoreSurvivesEvictionPressure) {
  DatabaseOptions opts;
  opts.file_path = ::testing::TempDir() + "/store_" +
                   OrderEncodingToString(GetParam()) + ".db";
  opts.buffer_capacity = 8;  // tiny pool: constant eviction
  auto dbr = Database::Open(opts);
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Create(db.get(), GetParam(), {.gap = 8});
  ASSERT_TRUE(sr.ok());
  std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();

  XmlGeneratorOptions gen;
  gen.target_nodes = 3000;
  gen.seed = 5;
  auto doc = GenerateXml(gen);
  ASSERT_TRUE(store->LoadDocument(*doc).ok());

  auto rebuilt = store->ReconstructDocument();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE((*rebuilt)->StructurallyEqual(*doc));
  ASSERT_TRUE(store->Validate().ok());
  // The full-document scan cannot fit in an 8-frame pool: page faults must
  // have occurred and been served from the file.
  EXPECT_GT(db->buffer_pool()->miss_count(), 0u);
}

// ------------------------------------------------------ DocumentCollection

class CollectionTest : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(CollectionTest, AddQueryRemove) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto cr = DocumentCollection::Create(db.get(), GetParam(), {.gap = 8});
  ASSERT_TRUE(cr.ok()) << cr.status();
  std::unique_ptr<DocumentCollection> coll = std::move(cr).value();

  for (int d = 0; d < 3; ++d) {
    NewsGeneratorOptions opts;
    opts.seed = 100 + d;
    opts.sections = 3 + d;
    opts.paragraphs_per_section = 2;
    auto doc = GenerateNewsXml(opts);
    auto added = coll->AddDocument("news" + std::to_string(d), *doc);
    ASSERT_TRUE(added.ok()) << added.status();
  }
  EXPECT_EQ(coll->size(), 3u);
  EXPECT_EQ(coll->DocumentNames(),
            (std::vector<std::string>{"news0", "news1", "news2"}));

  // Duplicate names rejected.
  auto doc = GenerateNewsXml({});
  EXPECT_TRUE(coll->AddDocument("news0", *doc).status().IsAlreadyExists());

  // Collection-wide query: 3 + 4 + 5 sections.
  auto matches = coll->QueryAll("/nitf/body/section");
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->size(), 12u);
  EXPECT_EQ((*matches)[0].document, "news0");
  EXPECT_EQ(matches->back().document, "news2");

  // Per-document access.
  auto news1 = coll->GetDocument("news1");
  ASSERT_TRUE(news1.ok());
  auto sections = EvaluateXPath(*news1, "/nitf/body/section");
  ASSERT_TRUE(sections.ok());
  EXPECT_EQ(sections->size(), 4u);

  // Removal drops the table and the catalog row.
  ASSERT_TRUE(coll->RemoveDocument("news1").ok());
  EXPECT_EQ(coll->size(), 2u);
  EXPECT_TRUE(coll->GetDocument("news1").status().IsNotFound());
  EXPECT_TRUE(coll->RemoveDocument("news1").IsNotFound());
  auto catalog = db->Query("SELECT COUNT(*) FROM coll_catalog");
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->rows[0][0].AsInt(), 2);
}

TEST_P(CollectionTest, DocumentsAreIndependentlyUpdatable) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto cr = DocumentCollection::Create(db.get(), GetParam(), {.gap = 4});
  ASSERT_TRUE(cr.ok());
  std::unique_ptr<DocumentCollection> coll = std::move(cr).value();

  auto a = ParseXml("<d><x>1</x></d>");
  auto b = ParseXml("<d><x>2</x></d>");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(coll->AddDocument("a", **a).ok());
  ASSERT_TRUE(coll->AddDocument("b", **b).ok());

  auto store_a = coll->GetDocument("a");
  ASSERT_TRUE(store_a.ok());
  auto target = EvaluateXPath(*store_a, "/d/x");
  ASSERT_TRUE(target.ok());
  auto frag = ParseXml("<y>new</y>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE((*store_a)
                  ->InsertSubtree((*target)[0], InsertPosition::kAfter,
                                  *(*frag)->root_element())
                  .ok());

  // Document b is untouched.
  auto store_b = coll->GetDocument("b");
  ASSERT_TRUE(store_b.ok());
  auto rebuilt_b = (*store_b)->ReconstructDocument();
  ASSERT_TRUE(rebuilt_b.ok());
  EXPECT_TRUE((*rebuilt_b)->StructurallyEqual(**b));
  auto rebuilt_a = (*store_a)->ReconstructDocument();
  ASSERT_TRUE(rebuilt_a.ok());
  EXPECT_EQ(WriteXml(**rebuilt_a), "<d><x>1</x><y>new</y></d>");
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, StoreApiTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(AllEncodings, CollectionTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
