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
#include <utility>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
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

// A step's predicates run inside its probe. An attribute predicate is one
// statement over all of the step's candidates, however many there are, and
// a positional prefix ([k], position() <= k) stops the axis scan after k
// rows. Both are checked on the same document at two sizes: a per-candidate
// probe or a full axis read grows with the number of sections.
class PredicateProbeBoundTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  struct Sized {
    std::unique_ptr<Database> db;
    std::unique_ptr<OrderedXmlStore> store;
  };

  static Sized Load(OrderEncoding encoding, int sections) {
    NewsGeneratorOptions opts;
    opts.seed = 25;
    opts.sections = sections;
    opts.paragraphs_per_section = 4;
    auto doc = GenerateNewsXml(opts);
    Sized out;
    auto dbr = Database::Open();
    EXPECT_TRUE(dbr.ok()) << dbr.status();
    out.db = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(out.db.get(), encoding, {.gap = 8});
    EXPECT_TRUE(sr.ok()) << sr.status();
    out.store = std::move(sr).value();
    EXPECT_TRUE(out.store->LoadDocument(*doc).ok());
    return out;
  }

  /// Statements run and rows scanned by one evaluation of `xpath`, which
  /// must return `want` nodes.
  static std::pair<uint64_t, uint64_t> Cost(const Sized& s,
                                            const std::string& xpath,
                                            size_t want) {
    const uint64_t statements = s.db->stats()->statements;
    const uint64_t rows = s.db->stats()->rows_scanned;
    auto r = EvaluateXPath(s.store.get(), xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    if (r.ok()) {
      EXPECT_EQ(r->size(), want) << xpath;
    }
    return {s.db->stats()->statements - statements,
            s.db->stats()->rows_scanned - rows};
  }

  void SetUp() override {
    small_ = Load(GetParam(), 40);
    large_ = Load(GetParam(), 160);
  }

  Sized small_;
  Sized large_;
};

// Rows a step reads besides the ones it returns: the context's attribute
// rows on the way to the first child, and the rows of the steps above.
constexpr uint64_t kSlack = 6;

TEST_P(PredicateProbeBoundTest, AttributePredicateIsOneProbePerStep) {
  const std::string q = "//section[@id = 's7']";
  EXPECT_EQ(Cost(small_, q, 1).first, Cost(large_, q, 1).first);
  // Every predicate over an attribute takes the same single probe. (Not on
  // //para: Local's descendant step looks up each section to sort.)
  for (const char* p :
       {"//section[@id]", "//section[@id != 's7']", "//section[@id][2]",
        "/nitf/body/section[@id > 's3']"}) {
    SCOPED_TRACE(p);
    auto small = EvaluateXPath(small_.store.get(), p);
    ASSERT_TRUE(small.ok()) << small.status();
    auto large = EvaluateXPath(large_.store.get(), p);
    ASSERT_TRUE(large.ok()) << large.status();
    EXPECT_EQ(Cost(small_, p, small->size()).first,
              Cost(large_, p, large->size()).first);
  }
}

TEST_P(PredicateProbeBoundTest, PositionalPrefixStopsTheChildScan) {
  for (const Sized* s : {&small_, &large_}) {
    for (int k : {1, 5, 30}) {
      const std::string n = std::to_string(k);
      const struct {
        std::string pred;
        size_t want;
      } cases[] = {{"[" + n + "]", 1},
                   {"[position() = " + n + "]", 1},
                   {"[position() <= " + n + "]", static_cast<size_t>(k)},
                   {"[position() < " + std::to_string(k + 1) + "]",
                    static_cast<size_t>(k)}};
      for (const auto& c : cases) {
        const std::string q = "/nitf/body/section" + c.pred;
        SCOPED_TRACE(q);
        const uint64_t above = Cost(*s, "/nitf/body", 1).second;
        const uint64_t rows = Cost(*s, q, c.want).second;
        EXPECT_LE(rows - above, static_cast<uint64_t>(k) + kSlack);
      }
    }
  }
}

TEST_P(PredicateProbeBoundTest, FollowingSiblingPrefixReadsOneRowPerContext) {
  for (const Sized* s : {&small_, &large_}) {
    // One context, then three: the step reads about one row for each.
    const struct {
      std::string contexts;
      uint64_t count;
    } cases[] = {{"//section[@id = 's7']", 1},
                 {"/nitf/body/section[position() <= 3]", 3}};
    for (const auto& c : cases) {
      const std::string q = c.contexts + "/following-sibling::section[1]";
      SCOPED_TRACE(q);
      const uint64_t above = Cost(*s, c.contexts, c.count).second;
      const uint64_t rows = Cost(*s, q, c.count).second;
      EXPECT_LE(rows - above, c.count * (1 + kSlack));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, PredicateProbeBoundTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey));

// The set-valued attribute probe is one range probe on each encoding's
// tag index, and a bounded named child step is a LIMIT over an
// index-ordered scan with no Sort between them, so the scan stops early.
TEST(PredicateProbePlanTest, ProbesTheTagIndexAndLimitsAnOrderedScan) {
  const std::string elem =
      std::to_string(static_cast<int>(XmlNodeKind::kElement));
  const std::string attr =
      std::to_string(static_cast<int>(XmlNodeKind::kAttribute));
  const struct {
    OrderEncoding encoding;
    std::string probe;
    const char* probe_index;
    std::string child_step;
    const char* child_index;
  } cases[] = {
      {OrderEncoding::kGlobal,
       "SELECT pord, val FROM nodes WHERE tag = ? AND ord > ? AND ord <= ? "
       "AND kind = " + attr,
       "nodes_tag",
       "SELECT ord FROM nodes WHERE pord = ? AND kind = " + elem +
           " AND tag = ? ORDER BY ord LIMIT ?",
       "nodes_pord"},
      {OrderEncoding::kLocal,
       "SELECT pid, val FROM nodes WHERE tag = ? AND kind = " + attr,
       "nodes_tag",
       "SELECT id FROM nodes WHERE pid = ? AND kind = " + elem +
           " AND tag = ? ORDER BY sord LIMIT ?",
       "nodes_pid"},
      {OrderEncoding::kDewey,
       "SELECT path, val FROM nodes WHERE tag = ? AND path > ? AND path < ? "
       "AND kind = " + attr,
       "nodes_tag",
       "SELECT path FROM nodes WHERE path > ? AND path < ? AND depth = ? "
       "AND kind = " + elem + " AND tag = ? ORDER BY path LIMIT ?",
       "nodes_tag"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(OrderEncodingToString(c.encoding));
    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    std::unique_ptr<Database> db = std::move(dbr).value();
    ASSERT_TRUE(OrderedXmlStore::Create(db.get(), c.encoding).ok());

    auto probe = db->Explain(c.probe);
    ASSERT_TRUE(probe.ok()) << probe.status();
    EXPECT_NE(probe->find(std::string("IndexScan(nodes.") + c.probe_index),
              std::string::npos)
        << *probe;

    auto child = db->Explain(c.child_step);
    ASSERT_TRUE(child.ok()) << child.status();
    EXPECT_EQ(child->rfind("Limit(?", 0), 0u) << *child;
    EXPECT_NE(child->find(std::string("IndexScan(nodes.") + c.child_index),
              std::string::npos)
        << *child;
    EXPECT_EQ(child->find("Sort("), std::string::npos) << *child;
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
