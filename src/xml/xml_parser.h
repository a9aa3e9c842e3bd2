#ifndef OXML_XML_XML_PARSER_H_
#define OXML_XML_XML_PARSER_H_

#include <cstddef>
#include <memory>
#include <string_view>

#include "src/common/result.h"
#include "src/xml/xml_node.h"

namespace oxml {

/// Options controlling the recursive-descent XML parser.
struct XmlParseOptions {
  /// Drop text nodes that consist only of whitespace (typical for
  /// pretty-printed documents whose whitespace is not data).
  bool skip_insignificant_whitespace = true;
  /// Keep comment nodes in the tree.
  bool keep_comments = true;
  /// Keep processing-instruction nodes in the tree.
  bool keep_processing_instructions = true;
};

/// Deepest element nesting ParseXml accepts. The parser, the shredders,
/// reconstruction, WriteXml and DOM teardown recurse once per level.
inline constexpr size_t kMaxXmlDepth = 2048;

/// Parses an XML 1.0 subset: prolog, elements, attributes, character data,
/// CDATA sections, comments, processing instructions, the five predefined
/// entities and numeric character references. DTDs are skipped (not
/// validated). Returns a ParseError status with line/column on bad input,
/// and for elements nested deeper than kMaxXmlDepth.
Result<std::unique_ptr<XmlDocument>> ParseXml(
    std::string_view input, const XmlParseOptions& options = {});

/// Reads the file at `path` and parses it.
Result<std::unique_ptr<XmlDocument>> ParseXmlFile(
    const std::string& path, const XmlParseOptions& options = {});

}  // namespace oxml

#endif  // OXML_XML_XML_PARSER_H_
