// XML substrate tests: parser, writer, DOM operations, generators.

#include <gtest/gtest.h>

#include "src/xml/xml_generator.h"
#include "src/xml/xml_node.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

TEST(XmlParserTest, SimpleDocument) {
  auto doc = ParseXml("<a><b>hi</b><c x=\"1\"/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  XmlNode* root = (*doc)->root_element();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name(), "a");
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->name(), "b");
  EXPECT_EQ(root->child(0)->InnerText(), "hi");
  ASSERT_NE(root->child(1)->attribute("x"), nullptr);
  EXPECT_EQ(*root->child(1)->attribute("x"), "1");
}

TEST(XmlParserTest, DeclarationAndDoctype) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n<a/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->root_element()->name(), "a");
}

TEST(XmlParserTest, EntitiesAndCharRefs) {
  auto doc = ParseXml("<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->root_element()->InnerText(), "<>&'\"AB");
}

TEST(XmlParserTest, Utf8CharRef) {
  auto doc = ParseXml("<a>&#233;&#x20AC;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root_element()->InnerText(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(XmlParserTest, Cdata) {
  auto doc = ParseXml("<a><![CDATA[<raw> & text]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root_element()->InnerText(), "<raw> & text");
}

TEST(XmlParserTest, CommentsAndPis) {
  auto doc = ParseXml("<a><!--note--><?target data?><b/></a>");
  ASSERT_TRUE(doc.ok());
  XmlNode* root = (*doc)->root_element();
  ASSERT_EQ(root->child_count(), 3u);
  EXPECT_EQ(root->child(0)->kind(), XmlNodeKind::kComment);
  EXPECT_EQ(root->child(0)->value(), "note");
  EXPECT_EQ(root->child(1)->kind(), XmlNodeKind::kProcessingInstruction);
  EXPECT_EQ(root->child(1)->name(), "target");
  EXPECT_EQ(root->child(1)->value(), "data");
}

TEST(XmlParserTest, SkipsInsignificantWhitespaceByDefault) {
  auto doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root_element()->child_count(), 2u);

  XmlParseOptions opts;
  opts.skip_insignificant_whitespace = false;
  doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>", opts);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root_element()->child_count(), 5u);
}

TEST(XmlParserTest, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());
  EXPECT_FALSE(ParseXml("<a x=\"1\" x=\"2\"/>").ok());
  EXPECT_FALSE(ParseXml("<a>&nope;</a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("text only").ok());
  auto r = ParseXml("<a><b></a>");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

std::string NestedXml(size_t levels) {
  std::string xml;
  for (size_t i = 0; i < levels; ++i) xml += "<a>";
  xml += "x";
  for (size_t i = 0; i < levels; ++i) xml += "</a>";
  return xml;
}

// The parser, WriteXml and DOM teardown all recurse once per element; the
// nesting limit keeps them inside the stack, and one level more is a
// ParseError, not a stack overflow.
TEST(XmlParserTest, NestingAtTheLimitParsesAndOnePastIsAnError) {
  std::string deepest = NestedXml(kMaxXmlDepth);
  auto doc = ParseXml(deepest);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(WriteXml(**doc), deepest);
  EXPECT_EQ((*doc)->root_element()->SubtreeSize(), kMaxXmlDepth + 1);
  doc->reset();  // teardown of the deepest tree the parser admits

  auto past = ParseXml(NestedXml(kMaxXmlDepth + 1));
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsParseError()) << past.status();
  // Far past the limit — where the unbounded parser overflowed its stack.
  auto far = ParseXml(NestedXml(100000));
  ASSERT_FALSE(far.ok());
  EXPECT_TRUE(far.status().IsParseError()) << far.status();
}

TEST(XmlWriterTest, RoundTrip) {
  const std::string xml =
      "<a q=\"v\"><b>one</b><c><!--x--><d i=\"2\">two</d></c></a>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(WriteXml(**doc), xml);
}

TEST(XmlWriterTest, EscapesSpecials) {
  auto root = XmlNode::Element("a");
  root->SetAttribute("k", "a\"b<c>");
  root->AppendChild(XmlNode::Text("x < y & z"));
  std::string out = WriteXml(*root);
  EXPECT_EQ(out, "<a k=\"a&quot;b&lt;c&gt;\">x &lt; y &amp; z</a>");
  // And it parses back to the same tree.
  auto doc = ParseXml(out);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE((*doc)->root_element()->StructurallyEqual(*root));
}

TEST(XmlWriterTest, PrettyPrint) {
  auto doc = ParseXml("<a><b>x</b></a>");
  ASSERT_TRUE(doc.ok());
  std::string out = WriteXml(**doc, {.indent = 2});
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
}

TEST(XmlNodeTest, TreeMutations) {
  auto root = XmlNode::Element("r");
  XmlNode* a = root->AppendChild(XmlNode::Element("a"));
  root->AppendChild(XmlNode::Element("c"));
  XmlNode* b = root->InsertChild(1, XmlNode::Element("b"));
  EXPECT_EQ(root->child(0), a);
  EXPECT_EQ(root->child(1), b);
  EXPECT_EQ(b->parent(), root.get());
  EXPECT_EQ(b->IndexInParent(), 1u);

  auto removed = root->RemoveChild(0);
  EXPECT_EQ(removed->name(), "a");
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(root->child_count(), 2u);
}

TEST(XmlNodeTest, CloneIsDeepAndEqual) {
  auto doc = ParseXml("<a x=\"1\"><b>t</b><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  XmlNode* root = (*doc)->root_element();
  auto copy = root->Clone();
  EXPECT_TRUE(copy->StructurallyEqual(*root));
  copy->child(0)->set_name("zzz");
  EXPECT_FALSE(copy->StructurallyEqual(*root));
}

TEST(XmlNodeTest, SubtreeSizeCountsAttributes) {
  auto doc = ParseXml("<a x=\"1\" y=\"2\"><b>t</b></a>");
  ASSERT_TRUE(doc.ok());
  // a + 2 attrs + b + text = 5.
  EXPECT_EQ((*doc)->root_element()->SubtreeSize(), 5u);
}

TEST(XmlNodeTest, DepthAndCounts) {
  auto doc = GenerateDeepXml(10);
  EXPECT_EQ(doc->root_element()->SubtreeDepth(), 11u);  // chain + leaf text
}

TEST(XmlGeneratorTest, DeterministicForSeed) {
  XmlGeneratorOptions opts;
  opts.target_nodes = 500;
  opts.seed = 11;
  auto d1 = GenerateXml(opts);
  auto d2 = GenerateXml(opts);
  EXPECT_TRUE(d1->root()->StructurallyEqual(*d2->root()));
  opts.seed = 12;
  auto d3 = GenerateXml(opts);
  EXPECT_FALSE(d1->root()->StructurallyEqual(*d3->root()));
}

TEST(XmlGeneratorTest, RespectsTargetSize) {
  XmlGeneratorOptions opts;
  opts.target_nodes = 3000;
  auto doc = GenerateXml(opts);
  size_t n = doc->TotalNodes();
  EXPECT_GE(n, 3000u);
  EXPECT_LE(n, 3600u);  // slight overshoot from finishing the last subtree
}

TEST(XmlGeneratorTest, GeneratedXmlParsesBack) {
  XmlGeneratorOptions opts;
  opts.target_nodes = 800;
  auto doc = GenerateXml(opts);
  std::string xml = WriteXml(*doc);
  auto again = ParseXml(xml);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again)->root()->StructurallyEqual(*doc->root()));
}

TEST(XmlGeneratorTest, NewsDocumentShape) {
  NewsGeneratorOptions opts;
  opts.sections = 5;
  opts.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(opts);
  XmlNode* nitf = doc->root_element();
  ASSERT_NE(nitf, nullptr);
  EXPECT_EQ(nitf->name(), "nitf");
  XmlNode* body = nitf->FirstChildElement("body");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->child_count(), 5u);
  // Each section: title + 4 paras.
  EXPECT_EQ(body->child(0)->child_count(), 5u);
}

TEST(XmlGeneratorTest, WideAndDeepShapes) {
  auto wide = GenerateWideXml(100);
  EXPECT_EQ(wide->root_element()->child_count(), 100u);
  auto deep = GenerateDeepXml(50);
  EXPECT_EQ(deep->root_element()->SubtreeDepth(), 51u);
}

}  // namespace
}  // namespace oxml
