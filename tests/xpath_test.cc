// XPath parser unit tests plus parameterized evaluation tests across the
// three order encodings (each query class from the paper's workload).

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/xml/xml_parser.h"

namespace oxml {
namespace {

// ------------------------------------------------------------ parser tests

TEST(XPathParserTest, SimplePath) {
  auto q = ParseXPath("/doc/section/para");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->steps.size(), 3u);
  EXPECT_EQ(q->steps[0].test.tag, "doc");
  EXPECT_EQ(q->steps[2].test.tag, "para");
  EXPECT_EQ(q->ToString(), "/doc/section/para");
}

TEST(XPathParserTest, DescendantAxis) {
  auto q = ParseXPath("//para");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].axis, XPathStep::Axis::kDescendant);

  q = ParseXPath("/doc//para");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].axis, XPathStep::Axis::kDescendant);
}

TEST(XPathParserTest, PositionPredicates) {
  auto q = ParseXPath("/doc/section[3]");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps[1].predicates.size(), 1u);
  EXPECT_EQ(q->steps[1].predicates[0].kind, XPathPredicate::Kind::kPosition);
  EXPECT_EQ(q->steps[1].predicates[0].position, 3);

  q = ParseXPath("/doc/section[last()]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].predicates[0].kind, XPathPredicate::Kind::kLast);

  q = ParseXPath("/doc/section[position() >= 2]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].predicates[0].op, XPathCmp::kGe);
  EXPECT_EQ(q->steps[1].predicates[0].position, 2);
}

TEST(XPathParserTest, ValuePredicates) {
  auto q = ParseXPath("//section[@id = 's2']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].predicates[0].kind, XPathPredicate::Kind::kAttribute);
  EXPECT_EQ(q->steps[0].predicates[0].name, "id");
  EXPECT_EQ(q->steps[0].predicates[0].literal, "s2");

  q = ParseXPath("//section[title = 'beta']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].predicates[0].kind,
            XPathPredicate::Kind::kChildValue);

  q = ParseXPath("//para[. != 'p1']");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].predicates[0].kind, XPathPredicate::Kind::kSelfValue);
  EXPECT_EQ(q->steps[0].predicates[0].op, XPathCmp::kNe);
}

TEST(XPathParserTest, ParentAndAncestorAxes) {
  auto q = ParseXPath("/a/b/..");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[2].axis, XPathStep::Axis::kParent);
  EXPECT_EQ(q->steps[2].test.kind, NodeTest::Kind::kAnyNode);

  q = ParseXPath("/a/b/parent::a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[2].axis, XPathStep::Axis::kParent);
  EXPECT_EQ(q->steps[2].test.tag, "a");

  q = ParseXPath("//c/ancestor::b[1]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].axis, XPathStep::Axis::kAncestor);
  EXPECT_EQ(q->steps[1].predicates.size(), 1u);
}

TEST(XPathParserTest, SiblingAxesAndAttributes) {
  auto q = ParseXPath("/doc/section/following-sibling::section");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[2].axis, XPathStep::Axis::kFollowingSibling);

  q = ParseXPath("//section/@id");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].axis, XPathStep::Axis::kAttribute);
  EXPECT_EQ(q->steps[1].attribute_name, "id");

  q = ParseXPath("/doc/section/text()");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[2].test.kind, NodeTest::Kind::kText);
}

TEST(XPathParserTest, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("doc/section").ok());
  EXPECT_FALSE(ParseXPath("/doc[").ok());
  EXPECT_FALSE(ParseXPath("/doc[@a ~ 'x']").ok());
  EXPECT_FALSE(ParseXPath("/doc[position() = ]").ok());
}

TEST(XPathParserTest, IntegerLiteralsStopAtInt64Range) {
  auto q = ParseXPath("/doc/section[9223372036854775807]");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->steps[1].predicates[0].position,
            std::numeric_limits<int64_t>::max());
  q = ParseXPath("/doc/section[position() > -9223372036854775807]");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->steps[1].predicates[0].position,
            -std::numeric_limits<int64_t>::max());
  for (const char* past : {"/doc/section[9223372036854775808]",
                           "/doc/section[99999999999999999999]",
                           "/doc/section[position() >= 9223372036854775808]",
                           "/doc/section[position() = -9223372036854775808]"}) {
    auto r = ParseXPath(past);
    ASSERT_FALSE(r.ok()) << past;
    EXPECT_TRUE(r.status().IsParseError()) << r.status();
  }
}

// A path's nesting is its step count (one more join per step in the SQL
// translation); the longest accepted path parses, one step more is a
// ParseError.
TEST(XPathParserTest, StepsAtTheLimitParseAndOnePastIsAnError) {
  std::string path;
  for (size_t i = 0; i < kMaxXPathSteps; ++i) path += i % 2 ? "//a" : "/a";
  auto q = ParseXPath(path);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->steps.size(), kMaxXPathSteps);
  auto past = ParseXPath(path + "/a");
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsParseError()) << past.status();
}

// -------------------------------------------------------- evaluation tests

constexpr const char* kDoc = R"(
<doc>
  <head><title>t0</title></head>
  <body>
    <section id="s1"><title>alpha</title><para>p1</para><para>p2</para></section>
    <section id="s2"><title>beta</title><para>p3</para></section>
    <section id="s3"><title>gamma</title><para>p4</para><para>p5</para><para>p6</para></section>
  </body>
</doc>)";

class XPathEvalTest : public ::testing::TestWithParam<OrderEncoding> {
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
    ASSERT_TRUE(store_->LoadDocument(**doc).ok());
  }

  std::vector<std::string> Strings(const std::string& xpath) {
    auto r = EvaluateXPathStrings(store_.get(), xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return r.ok() ? std::move(r).value() : std::vector<std::string>{};
  }

  size_t Count(const std::string& xpath) {
    auto r = EvaluateXPath(store_.get(), xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return r.ok() ? r->size() : 0;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<OrderedXmlStore> store_;
};

TEST_P(XPathEvalTest, ChildSteps) {
  EXPECT_EQ(Count("/doc"), 1u);
  EXPECT_EQ(Count("/doc/body/section"), 3u);
  EXPECT_EQ(Count("/nope"), 0u);
  EXPECT_EQ(Count("/doc/body/section/para"), 6u);
}

TEST_P(XPathEvalTest, ResultsInDocumentOrder) {
  EXPECT_EQ(Strings("/doc/body/section/para"),
            (std::vector<std::string>{"p1", "p2", "p3", "p4", "p5", "p6"}));
}

TEST_P(XPathEvalTest, DescendantSteps) {
  EXPECT_EQ(Count("//para"), 6u);
  EXPECT_EQ(Count("//section"), 3u);
  EXPECT_EQ(Count("/doc//title"), 4u);
  EXPECT_EQ(Count("//doc"), 1u);  // root itself via descendant-or-self
}

TEST_P(XPathEvalTest, PositionPredicates) {
  EXPECT_EQ(Strings("/doc/body/section[2]/title"),
            (std::vector<std::string>{"beta"}));
  EXPECT_EQ(Strings("/doc/body/section[last()]/para[last()]"),
            (std::vector<std::string>{"p6"}));
  EXPECT_EQ(Strings("/doc/body/section[3]/para[position() >= 2]"),
            (std::vector<std::string>{"p5", "p6"}));
  EXPECT_EQ(Count("/doc/body/section[9]"), 0u);
}

TEST_P(XPathEvalTest, RangePredicate) {
  EXPECT_EQ(
      Strings("/doc/body/section[position() >= 2]/title"),
      (std::vector<std::string>{"beta", "gamma"}));
}

TEST_P(XPathEvalTest, AttributePredicateAndAxis) {
  EXPECT_EQ(Strings("//section[@id = 's2']/title"),
            (std::vector<std::string>{"beta"}));
  auto ids = Strings("//section/@id");
  EXPECT_EQ(ids, (std::vector<std::string>{"s1", "s2", "s3"}));
}

TEST_P(XPathEvalTest, ChildValuePredicate) {
  EXPECT_EQ(Strings("//section[title = 'gamma']/para[1]"),
            (std::vector<std::string>{"p4"}));
}

TEST_P(XPathEvalTest, SelfValuePredicate) {
  EXPECT_EQ(Strings("//para[. = 'p3']"), (std::vector<std::string>{"p3"}));
  EXPECT_EQ(Count("//para[. != 'p3']"), 5u);
}

TEST_P(XPathEvalTest, FollowingSiblings) {
  EXPECT_EQ(Strings("//section[@id = 's1']/following-sibling::section/title"),
            (std::vector<std::string>{"beta", "gamma"}));
  EXPECT_EQ(Count("//section[@id = 's3']/following-sibling::section"), 0u);
}

TEST_P(XPathEvalTest, PrecedingSiblings) {
  EXPECT_EQ(Strings("//section[@id = 's3']/preceding-sibling::section/title"),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST_P(XPathEvalTest, ParentAxis) {
  EXPECT_EQ(Strings("//para[. = 'p3']/../title"),
            (std::vector<std::string>{"beta"}));
  EXPECT_EQ(Strings("//title[. = 'gamma']/parent::section/@id"),
            (std::vector<std::string>{"s3"}));
  // Parent with a non-matching test yields nothing.
  EXPECT_EQ(Count("//para/parent::title"), 0u);
  // Parent of the root element is the document: no stored node.
  EXPECT_EQ(Count("/doc/.."), 0u);
}

TEST_P(XPathEvalTest, AncestorAxis) {
  EXPECT_EQ(Count("//para[. = 'p1']/ancestor::*"), 3u);  // section,body,doc
  EXPECT_EQ(Strings("//para[. = 'p5']/ancestor::section/title"),
            (std::vector<std::string>{"gamma"}));
  EXPECT_EQ(Count("//para/ancestor::body"), 1u);  // deduplicated
}

TEST_P(XPathEvalTest, TextNodes) {
  EXPECT_EQ(Strings("/doc/body/section[1]/para[1]/text()"),
            (std::vector<std::string>{"p1"}));
}

TEST_P(XPathEvalTest, NestedDescendantsDeduplicate) {
  // //body//para must not duplicate nodes even though contexts overlap.
  EXPECT_EQ(Count("//body//para"), 6u);
}

TEST_P(XPathEvalTest, WildcardStep) {
  EXPECT_EQ(Count("/doc/*"), 2u);
  EXPECT_EQ(Count("/doc/body/*"), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, XPathEvalTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

}  // namespace
}  // namespace oxml
