// Axis steps are index probes, not scans. Each store axis method may read
// at most the rows of the one level it answers from: Root() the top-level
// nodes, a child or attribute step the rows one level below its context
// node, a sibling step the rows one level below the parent. A step that
// falls back to a table or subtree scan reads far more and fails here.
//
// Name tests use the names the context's own children and attributes
// carry. The news document nests no tag inside itself, so a probe on a
// (tag, order) index reads no more than the level either.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/xml/xml_generator.h"

namespace oxml {
namespace {

/// Rows one level below `node`: its children and its attributes.
size_t RowsBelow(const XmlNode& node) {
  return node.child_count() + node.attributes().size();
}

class AxisScanBoundTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  void SetUp() override {
    NewsGeneratorOptions opts;
    opts.seed = 24;
    opts.sections = 12;
    opts.paragraphs_per_section = 5;
    doc_ = GenerateNewsXml(opts);
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    db_ = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db_.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok()) << sr.status();
    store_ = std::move(sr).value();
    ASSERT_TRUE(store_->LoadDocument(*doc_).ok());
  }

  /// Rows scanned while `step` runs; the step must succeed.
  uint64_t Scanned(
      const std::function<Result<std::vector<StoredNode>>()>& step) {
    uint64_t before = db_->stats()->rows_scanned;
    auto r = step();
    EXPECT_TRUE(r.ok()) << r.status();
    return db_->stats()->rows_scanned - before;
  }

  const XmlNode* DomAt(const std::vector<size_t>& path) const {
    const XmlNode* n = doc_->root_element();
    for (size_t i : path) n = n->child(i);
    return n;
  }

  /// Name tests for a child step under `dom`: the wildcards plus every
  /// element tag among its children.
  static std::vector<NodeTest> ChildTests(const XmlNode& dom) {
    std::vector<NodeTest> tests{NodeTest::AnyNode(), NodeTest::AnyElement(),
                                NodeTest::Text()};
    std::set<std::string> tags;
    for (const auto& c : dom.children()) {
      if (c->is_element() && tags.insert(c->name()).second) {
        tests.push_back(NodeTest::Tag(c->name()));
      }
    }
    return tests;
  }

  std::unique_ptr<XmlDocument> doc_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
};

// Context nodes: the root element, head, body, a section, a paragraph,
// a text node and a head field, as child-index paths from the root.
const std::vector<std::vector<size_t>> kContexts = {
    {}, {0}, {1}, {1, 2}, {1, 2, 1}, {1, 2, 1, 0}, {0, 1}};

TEST_P(AxisScanBoundTest, RootReadsOnlyTopLevelNodes) {
  const size_t top_level = doc_->root()->child_count();
  uint64_t scanned = Scanned([&]() -> Result<std::vector<StoredNode>> {
    OXML_ASSIGN_OR_RETURN(StoredNode root, store_->Root());
    return std::vector<StoredNode>{root};
  });
  EXPECT_LE(scanned, top_level);
}

TEST_P(AxisScanBoundTest, ChildAndAttributeStepsReadOneLevel) {
  for (const auto& path : kContexts) {
    SCOPED_TRACE(::testing::PrintToString(path));
    const XmlNode* dom = DomAt(path);
    auto node = store_->NodeAtPath(path);
    ASSERT_TRUE(node.ok()) << node.status();
    const size_t bound = RowsBelow(*dom);

    for (const NodeTest& test : ChildTests(*dom)) {
      SCOPED_TRACE("child test '" + test.tag + "' kind " +
                   std::to_string(static_cast<int>(test.kind)));
      EXPECT_LE(Scanned([&] { return store_->Children(*node, test); }),
                bound);
    }
    EXPECT_LE(Scanned([&] { return store_->Attributes(*node, ""); }), bound);
    for (const XmlAttribute& attr : dom->attributes()) {
      SCOPED_TRACE("attribute '" + attr.name + "'");
      EXPECT_LE(
          Scanned([&] { return store_->Attributes(*node, attr.name); }),
          bound);
    }
  }
}

TEST_P(AxisScanBoundTest, SiblingStepsReadOneLevelBelowTheParent) {
  for (const auto& path : kContexts) {
    SCOPED_TRACE(::testing::PrintToString(path));
    const XmlNode* dom = DomAt(path);
    auto node = store_->NodeAtPath(path);
    ASSERT_TRUE(node.ok()) << node.status();
    // The root element's parent is the document node: its level is the
    // top-level nodes.
    const size_t bound = RowsBelow(*dom->parent());

    for (const NodeTest& test : ChildTests(*dom->parent())) {
      SCOPED_TRACE("sibling test '" + test.tag + "' kind " +
                   std::to_string(static_cast<int>(test.kind)));
      EXPECT_LE(
          Scanned([&] { return store_->FollowingSiblings(*node, test); }),
          bound);
      EXPECT_LE(
          Scanned([&] { return store_->PrecedingSiblings(*node, test); }),
          bound);
    }
  }
}

// Dewey's level steps without a name test plan as an equality probe on
// depth plus a path range over the (depth, path) index: rows arrive in
// path order, so ORDER BY path needs no Sort. Steps with a name test tie
// with (tag, path), which was created first and keeps them.
TEST(DeweyLevelIndexPlanTest, LevelStepsProbeTheDepthIndexWithoutSort) {
  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok()) << dbr.status();
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Create(db.get(), OrderEncoding::kDewey);
  ASSERT_TRUE(sr.ok()) << sr.status();

  const std::string elem =
      std::to_string(static_cast<int>(XmlNodeKind::kElement));
  const std::string attr =
      std::to_string(static_cast<int>(XmlNodeKind::kAttribute));
  const std::string below = "path > ? AND path < ? AND depth = ? AND ";
  const struct {
    const char* step;
    std::string where;
    const char* index;
  } cases[] = {
      {"Root()", "depth = 1 AND kind = " + elem, "nodes_depth"},
      {"Children(n, node())", below + "kind <> " + attr, "nodes_depth"},
      {"Attributes(n)", below + "kind = " + attr, "nodes_depth"},
      {"FollowingSiblings(n, node())",
       "path >= ? AND depth = ? AND kind <> " + attr + " AND path < ?",
       "nodes_depth"},
      {"PrecedingSiblings(n, node())",
       "path < ? AND depth = ? AND kind <> " + attr + " AND path > ?",
       "nodes_depth"},
      {"Children(n, section)", below + "kind = " + elem + " AND tag = ?",
       "nodes_tag"},
      {"Attributes(n, id)", below + "kind = " + attr + " AND tag = ?",
       "nodes_tag"},
  };
  for (const auto& c : cases) {
    std::string sql = "SELECT path, depth, kind, tag, val FROM nodes WHERE " +
                      c.where + " ORDER BY path";
    auto plan = db->Explain(sql);
    ASSERT_TRUE(plan.ok()) << c.step << ": " << plan.status();
    EXPECT_NE(plan->find(std::string("IndexScan(nodes.") + c.index),
              std::string::npos)
        << c.step << "\n" << *plan;
    EXPECT_EQ(plan->find("Sort("), std::string::npos)
        << c.step << "\n" << *plan;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, AxisScanBoundTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

}  // namespace
}  // namespace oxml
