// Differential XPath testing: an independent DOM-based reference evaluator
// (the oracle) is run against the same queries as the relational stores.
// Result sequences — including document order — must match exactly, for
// every encoding, on both structured and randomly generated documents.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

/// A DOM node or attribute reference produced by the oracle.
struct OracleNode {
  const XmlNode* node = nullptr;
  int attr_index = -1;  // >= 0: the attr_index-th attribute of `node`

  bool is_attribute() const { return attr_index >= 0; }
  bool operator<(const OracleNode& o) const {
    if (node != o.node) return node < o.node;
    return attr_index < o.attr_index;
  }
};

/// Reference evaluator over the DOM, mirroring the library's XPath subset
/// semantics but implemented entirely independently (tree walking).
class OracleEvaluator {
 public:
  explicit OracleEvaluator(const XmlDocument& doc) : doc_(doc) {
    int counter = 0;
    Number(doc_.root(), &counter);
  }

  std::vector<OracleNode> Evaluate(const XPathQuery& q) {
    std::vector<OracleNode> context;
    // First step from the document node.
    const XPathStep& first = q.steps[0];
    std::vector<OracleNode> candidates;
    for (const auto& top : doc_.root()->children()) {
      if (first.axis == XPathStep::Axis::kChild) {
        if (Matches(first.test, top.get())) candidates.push_back({top.get()});
      } else {
        CollectDescendantsOrSelf(top.get(), first.test, &candidates);
      }
    }
    context = ApplyPredicates(first.predicates, candidates);

    for (size_t s = 1; s < q.steps.size(); ++s) {
      const XPathStep& step = q.steps[s];
      std::vector<OracleNode> next;
      std::set<OracleNode> seen;
      for (const OracleNode& ctx : context) {
        if (ctx.is_attribute()) continue;
        std::vector<OracleNode> cands = Expand(ctx.node, step);
        cands = ApplyPredicates(step.predicates, cands);
        for (const OracleNode& c : cands) {
          if (seen.insert(c).second) next.push_back(c);
        }
      }
      SortDocOrder(&next);
      context = std::move(next);
    }
    return context;
  }

  /// Comparable signature of a result node (tag + serialized content).
  std::string Signature(const OracleNode& n) const {
    if (n.is_attribute()) {
      const XmlAttribute& a = n.node->attributes()[n.attr_index];
      return "@" + a.name + "=" + a.value;
    }
    return WriteXml(*n.node);
  }

 private:
  void Number(const XmlNode* node, int* counter) {
    order_[node] = (*counter)++;
    for (const auto& c : node->children()) Number(c.get(), counter);
  }

  static bool Matches(const NodeTest& test, const XmlNode* n) {
    return test.Matches(n->kind(), n->name());
  }

  void CollectDescendantsOrSelf(const XmlNode* node, const NodeTest& test,
                                std::vector<OracleNode>* out) {
    if (Matches(test, node)) out->push_back({node});
    for (const auto& c : node->children()) {
      CollectDescendantsOrSelf(c.get(), test, out);
    }
  }

  std::vector<OracleNode> Expand(const XmlNode* node, const XPathStep& step) {
    std::vector<OracleNode> out;
    switch (step.axis) {
      case XPathStep::Axis::kChild:
        for (const auto& c : node->children()) {
          if (Matches(step.test, c.get())) out.push_back({c.get()});
        }
        break;
      case XPathStep::Axis::kDescendant:
        for (const auto& c : node->children()) {
          CollectDescendantsOrSelf(c.get(), step.test, &out);
        }
        break;
      case XPathStep::Axis::kFollowingSibling: {
        const XmlNode* parent = node->parent();
        if (parent == nullptr) break;
        size_t idx = node->IndexInParent();
        for (size_t i = idx + 1; i < parent->child_count(); ++i) {
          if (Matches(step.test, parent->child(i))) {
            out.push_back({parent->child(i)});
          }
        }
        break;
      }
      case XPathStep::Axis::kPrecedingSibling: {
        const XmlNode* parent = node->parent();
        if (parent == nullptr) break;
        size_t idx = node->IndexInParent();
        for (size_t i = 0; i < idx; ++i) {
          if (Matches(step.test, parent->child(i))) {
            out.push_back({parent->child(i)});
          }
        }
        break;
      }
      case XPathStep::Axis::kAttribute:
        for (size_t i = 0; i < node->attributes().size(); ++i) {
          if (step.attribute_name.empty() ||
              node->attributes()[i].name == step.attribute_name) {
            out.push_back({node, static_cast<int>(i)});
          }
        }
        break;
      case XPathStep::Axis::kParent: {
        const XmlNode* p = node->parent();
        if (p != nullptr && p->kind() != XmlNodeKind::kDocument &&
            Matches(step.test, p)) {
          out.push_back({p});
        }
        break;
      }
      case XPathStep::Axis::kAncestor: {
        const XmlNode* p = node->parent();
        while (p != nullptr && p->kind() != XmlNodeKind::kDocument) {
          if (Matches(step.test, p)) out.push_back({p});
          p = p->parent();
        }
        std::reverse(out.begin(), out.end());
        break;
      }
    }
    return out;
  }

  static bool Cmp(XPathCmp op, int c) {
    switch (op) {
      case XPathCmp::kEq:
        return c == 0;
      case XPathCmp::kNe:
        return c != 0;
      case XPathCmp::kLt:
        return c < 0;
      case XPathCmp::kLe:
        return c <= 0;
      case XPathCmp::kGt:
        return c > 0;
      case XPathCmp::kGe:
        return c >= 0;
    }
    return false;
  }

  static int CompareValues(const std::string& a, const std::string& b) {
    char* ea = nullptr;
    char* eb = nullptr;
    double da = std::strtod(a.c_str(), &ea);
    double db = std::strtod(b.c_str(), &eb);
    if (!a.empty() && !b.empty() && *ea == '\0' && *eb == '\0') {
      return da < db ? -1 : (da > db ? 1 : 0);
    }
    return a.compare(b);
  }

  std::vector<OracleNode> ApplyPredicates(
      const std::vector<XPathPredicate>& preds,
      std::vector<OracleNode> candidates) {
    for (const XPathPredicate& pred : preds) {
      std::vector<OracleNode> kept;
      int64_t size = static_cast<int64_t>(candidates.size());
      for (int64_t i = 0; i < size; ++i) {
        const OracleNode& cand = candidates[i];
        bool keep = false;
        switch (pred.kind) {
          case XPathPredicate::Kind::kPosition:
            keep = Cmp(pred.op, i + 1 < pred.position
                                    ? -1
                                    : (i + 1 > pred.position ? 1 : 0));
            break;
          case XPathPredicate::Kind::kLast:
            keep = (i + 1 == size);
            break;
          case XPathPredicate::Kind::kAttribute: {
            const std::string* v = cand.node->attribute(pred.name);
            keep = v != nullptr && Cmp(pred.op, CompareValues(*v,
                                                              pred.literal));
            break;
          }
          case XPathPredicate::Kind::kHasAttribute:
            keep = cand.node->attribute(pred.name) != nullptr;
            break;
          case XPathPredicate::Kind::kChildValue:
            for (const auto& c : cand.node->children()) {
              if (c->is_element() && c->name() == pred.name &&
                  Cmp(pred.op, CompareValues(c->InnerText(), pred.literal))) {
                keep = true;
                break;
              }
            }
            break;
          case XPathPredicate::Kind::kSelfValue:
            keep = Cmp(pred.op,
                       CompareValues(cand.node->InnerText(), pred.literal));
            break;
        }
        if (keep) kept.push_back(cand);
      }
      candidates = std::move(kept);
    }
    return candidates;
  }

  void SortDocOrder(std::vector<OracleNode>* nodes) {
    std::stable_sort(nodes->begin(), nodes->end(),
                     [this](const OracleNode& a, const OracleNode& b) {
                       int oa = order_.at(a.node);
                       int ob = order_.at(b.node);
                       if (oa != ob) return oa < ob;
                       return a.attr_index < b.attr_index;
                     });
  }

  const XmlDocument& doc_;
  std::map<const XmlNode*, int> order_;
};

/// Comparable signature of a store result.
Result<std::string> StoreSignature(OrderedXmlStore* store,
                                   const StoredNode& n) {
  if (n.kind == XmlNodeKind::kAttribute) {
    return "@" + n.tag + "=" + n.value;
  }
  OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> subtree,
                        store->ReconstructSubtree(n));
  return WriteXml(*subtree);
}

const char* const kQueries[] = {
    "/nitf",
    "/nitf/body/section",
    "/nitf/*",
    "//para",
    "//title",
    "/nitf//para",
    "//body//para",
    "//section[3]",
    "//section[last()]",
    "//section[position() >= 4]",
    "//section[position() <= 2]/para[2]",
    "//para[@class = 'lead']",
    "//para[@class]",
    "//section[@id]/title",
    "//section[@id = 's3']/para",
    "//section[title != '']/title",
    "//section[2]/following-sibling::section",
    "//section[4]/preceding-sibling::section/title",
    "//section/@id",
    "//para/text()",
    "//para[@class = 'lead']/..",
    "//para/parent::section/title",
    "//para[2]/ancestor::section/@id",
    "//title/ancestor::*",
    "//section[@id = 's2']/para[. != '']",
    "/nitf/body/section[5]/para[last()]/text()",
};

class XPathOracleTest : public ::testing::TestWithParam<OrderEncoding> {};

TEST_P(XPathOracleTest, AgreesWithDomOracleOnNewsDoc) {
  NewsGeneratorOptions opts;
  opts.seed = 2002;
  opts.sections = 7;
  opts.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(opts);
  OracleEvaluator oracle(*doc);

  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Create(db.get(), GetParam(), {.gap = 8});
  ASSERT_TRUE(sr.ok());
  std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
  ASSERT_TRUE(store->LoadDocument(*doc).ok());

  for (const char* q : kQueries) {
    auto parsed = ParseXPath(q);
    ASSERT_TRUE(parsed.ok()) << q;
    std::vector<OracleNode> expected = oracle.Evaluate(*parsed);
    auto actual = EvaluateXPath(store.get(), *parsed);
    ASSERT_TRUE(actual.ok()) << q << ": " << actual.status();
    ASSERT_EQ(actual->size(), expected.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      auto sig = StoreSignature(store.get(), (*actual)[i]);
      ASSERT_TRUE(sig.ok()) << q;
      EXPECT_EQ(*sig, oracle.Signature(expected[i]))
          << q << " result " << i;
    }
  }
}

TEST_P(XPathOracleTest, AgreesWithDomOracleOnRandomDocs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    XmlGeneratorOptions gopts;
    gopts.seed = seed;
    gopts.target_nodes = 400;
    gopts.tag_vocabulary = 6;
    gopts.max_depth = 5;
    auto doc = GenerateXml(gopts);
    OracleEvaluator oracle(*doc);

    auto dbr = Database::Open();
    ASSERT_TRUE(dbr.ok());
    std::unique_ptr<Database> db = std::move(dbr).value();
    auto sr = OrderedXmlStore::Create(db.get(), GetParam(), {.gap = 8});
    ASSERT_TRUE(sr.ok());
    std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
    ASSERT_TRUE(store->LoadDocument(*doc).ok());

    const char* const queries[] = {
        "//tag1",
        "//tag2",
        "/root/*",
        "//tag3[1]",
        "//tag0[last()]",
        "//tag1/tag2",
        "//tag4/text()",
        "//tag2/@id",
        "//tag0/following-sibling::tag1",
        "//tag3[position() <= 2]",
    };
    for (const char* q : queries) {
      auto parsed = ParseXPath(q);
      ASSERT_TRUE(parsed.ok()) << q;
      std::vector<OracleNode> expected = oracle.Evaluate(*parsed);
      auto actual = EvaluateXPath(store.get(), *parsed);
      ASSERT_TRUE(actual.ok()) << q << ": " << actual.status();
      ASSERT_EQ(actual->size(), expected.size())
          << "seed " << seed << " query " << q;
      for (size_t i = 0; i < expected.size(); ++i) {
        auto sig = StoreSignature(store.get(), (*actual)[i]);
        ASSERT_TRUE(sig.ok());
        EXPECT_EQ(*sig, oracle.Signature(expected[i]))
            << "seed " << seed << " query " << q << " result " << i;
      }
    }
  }
}

// A Dewey table written before the (depth, path) level index existed
// carries only (path) and (tag, path). Attach gives it the third index,
// and the attached store still answers as the oracle does.
TEST(DeweyAttachTest, AddsLevelIndexToTableWithoutIt) {
  NewsGeneratorOptions opts;
  opts.seed = 2002;
  opts.sections = 7;
  opts.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(opts);
  OracleEvaluator oracle(*doc);

  auto dbr = Database::Open();
  ASSERT_TRUE(dbr.ok());
  std::unique_ptr<Database> db = std::move(dbr).value();
  // Shred into a current store, then copy its rows into a table that has
  // the old layout.
  auto src = OrderedXmlStore::Create(db.get(), OrderEncoding::kDewey,
                                     {.gap = 8, .table_name = "src"});
  ASSERT_TRUE(src.ok()) << src.status();
  ASSERT_TRUE((*src)->LoadDocument(*doc).ok());
  for (const char* ddl :
       {"CREATE TABLE nodes (path BLOB, depth INT, kind INT, tag TEXT,"
        " val TEXT)",
        "CREATE INDEX nodes_path ON nodes (path)",
        "CREATE INDEX nodes_tag ON nodes (tag, path)"}) {
    ASSERT_TRUE(db->Execute(ddl).ok()) << ddl;
  }
  auto rows = db->Query("SELECT path, depth, kind, tag, val FROM src");
  ASSERT_TRUE(rows.ok()) << rows.status();
  auto ins = db->Prepare(
      "INSERT INTO nodes (path, depth, kind, tag, val) VALUES (?, ?, ?, ?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status();
  ASSERT_TRUE(ins->ExecuteBatch(rows->rows).ok());
  TableInfo* table = db->GetTable("nodes");
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->indexes().size(), 2u);

  auto sr = OrderedXmlStore::Attach(db.get(), OrderEncoding::kDewey,
                                    {.gap = 8});
  ASSERT_TRUE(sr.ok()) << sr.status();
  std::unique_ptr<OrderedXmlStore> store = std::move(sr).value();
  EXPECT_EQ(table->indexes().size(), 3u);
  TableIndex* depth = table->FindIndex("nodes_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->tree.size(), rows->rows.size());
  auto plan = db->Explain(
      "SELECT path FROM nodes WHERE depth = 1 AND kind = 1 ORDER BY path");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("nodes_depth"), std::string::npos) << *plan;
  EXPECT_TRUE(store->Validate().ok());

  // A second attach finds the index and adds nothing.
  ASSERT_TRUE(
      OrderedXmlStore::Attach(db.get(), OrderEncoding::kDewey, {.gap = 8})
          .ok());
  EXPECT_EQ(table->indexes().size(), 3u);

  for (const char* q : kQueries) {
    auto parsed = ParseXPath(q);
    ASSERT_TRUE(parsed.ok()) << q;
    std::vector<OracleNode> expected = oracle.Evaluate(*parsed);
    auto actual = EvaluateXPath(store.get(), *parsed);
    ASSERT_TRUE(actual.ok()) << q << ": " << actual.status();
    ASSERT_EQ(actual->size(), expected.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      auto sig = StoreSignature(store.get(), (*actual)[i]);
      ASSERT_TRUE(sig.ok()) << q;
      EXPECT_EQ(*sig, oracle.Signature(expected[i]))
          << q << " result " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, XPathOracleTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
