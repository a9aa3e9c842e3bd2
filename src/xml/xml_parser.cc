#include "src/xml/xml_parser.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/strings.h"

namespace oxml {
namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Hand-written XML scanner/parser. Tracks line/column for error messages.
class Parser {
 public:
  Parser(std::string_view input, const XmlParseOptions& options)
      : input_(input), options_(options) {}

  Result<std::unique_ptr<XmlDocument>> Parse() {
    auto doc = std::make_unique<XmlDocument>();
    OXML_RETURN_NOT_OK(ParseProlog());
    // Misc (comments/PIs) before the root element were handled by prolog.
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    OXML_RETURN_NOT_OK(ParseElement(doc->root(), 1));
    // Trailing misc.
    while (!AtEnd()) {
      SkipWhitespace();
      if (AtEnd()) break;
      if (Match("<!--")) {
        OXML_RETURN_NOT_OK(ParseComment(doc->root()));
      } else if (Match("<?")) {
        OXML_RETURN_NOT_OK(ParsePi(doc->root()));
      } else {
        return Error("unexpected content after root element");
      }
    }
    if (doc->root_element() == nullptr) {
      return Error("document has no root element");
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  /// Consumes `token` if the input starts with it at the current position.
  bool Match(std::string_view token) {
    if (input_.substr(pos_).substr(0, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Advance();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  Status Error(const std::string& msg) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " (line %zu, col %zu)", line_, col_);
    return Status::ParseError(msg + buf);
  }

  Status ParseProlog() {
    SkipWhitespace();
    if (Match("<?xml")) {
      // Skip the XML declaration up to "?>".
      while (!AtEnd() && !Match("?>")) Advance();
    }
    // Misc and doctype before root element.
    while (true) {
      SkipWhitespace();
      if (Match("<!--")) {
        OXML_RETURN_NOT_OK(SkipUntil("-->", "unterminated comment"));
      } else if (Match("<!DOCTYPE")) {
        OXML_RETURN_NOT_OK(SkipDoctype());
      } else if (PeekAt(0) == '<' && PeekAt(1) == '?') {
        Advance();
        Advance();
        OXML_RETURN_NOT_OK(SkipUntil("?>", "unterminated PI"));
      } else {
        break;
      }
    }
    return Status::OK();
  }

  Status SkipUntil(std::string_view token, const std::string& err) {
    while (!AtEnd()) {
      if (Match(token)) return Status::OK();
      Advance();
    }
    return Error(err);
  }

  Status SkipDoctype() {
    // Skip until the matching '>' honoring an optional internal subset.
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) {
        Advance();
        return Status::OK();
      }
      Advance();
    }
    return Error("unterminated DOCTYPE");
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected a name");
    }
    std::string name;
    while (!AtEnd() && IsNameChar(Peek())) {
      name.push_back(Peek());
      Advance();
    }
    return name;
  }

  /// Decodes entity and character references into `out`.
  Status AppendReference(std::string* out) {
    // Called just after consuming '&'.
    size_t start = pos_;
    while (!AtEnd() && Peek() != ';' && pos_ - start < 12) Advance();
    if (AtEnd()) return Error("unterminated entity");
    // The scan is capped at 12 characters (longer than any reference we
    // accept); hitting the cap with more input left is a length problem,
    // not a missing terminator.
    if (Peek() != ';') return Error("entity too long");
    std::string_view ref = input_.substr(start, pos_ - start);
    Advance();  // consume ';'
    if (ref == "lt") {
      out->push_back('<');
    } else if (ref == "gt") {
      out->push_back('>');
    } else if (ref == "amp") {
      out->push_back('&');
    } else if (ref == "apos") {
      out->push_back('\'');
    } else if (ref == "quot") {
      out->push_back('"');
    } else if (!ref.empty() && ref[0] == '#') {
      int base = 10;
      std::string digits(ref.substr(1));
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits.erase(0, 1);
      }
      char* end = nullptr;
      long code = std::strtol(digits.c_str(), &end, base);
      if (digits.empty() || end == nullptr || *end != '\0') {
        return Error("bad character reference &" + std::string(ref) + ";");
      }
      // Unicode range checks: AppendUtf8 would otherwise emit byte
      // sequences no conforming decoder accepts (planes above U+10FFFF,
      // UTF-16 surrogate halves) or a stray NUL.
      if (code <= 0 || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) {
        return Error("character reference out of range &" + std::string(ref) +
                     ";");
      }
      AppendUtf8(static_cast<uint32_t>(code), out);
    } else {
      return Error("unknown entity &" + std::string(ref) + ";");
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        Advance();
        OXML_RETURN_NOT_OK(AppendReference(&value));
      } else if (Peek() == '<') {
        return Error("'<' not allowed in attribute value");
      } else {
        value.push_back(Peek());
        Advance();
      }
    }
    if (AtEnd()) return Error("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  /// Parses one element (the '<' has not been consumed) at nesting level
  /// `depth` (the root element is 1) and appends it to `parent`.
  Status ParseElement(XmlNode* parent, size_t depth) {
    if (depth > kMaxXmlDepth) {
      return Error(StrCat({"elements nested deeper than ",
                           std::to_string(kMaxXmlDepth), " levels"}));
    }
    if (!Match("<")) return Error("expected '<'");
    OXML_ASSIGN_OR_RETURN(std::string tag, ParseName());
    XmlNode* element = parent->AppendChild(XmlNode::Element(std::move(tag)));

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Match("/>")) return Status::OK();  // empty element
      if (Match(">")) break;
      OXML_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      OXML_ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
      if (element->attribute(attr_name) != nullptr) {
        return Error("duplicate attribute '" + attr_name + "'");
      }
      element->SetAttribute(std::move(attr_name), std::move(attr_value));
    }

    // Content.
    OXML_RETURN_NOT_OK(ParseContent(element, depth));

    // End tag: ParseContent stops right after "</".
    OXML_ASSIGN_OR_RETURN(std::string end_tag, ParseName());
    if (end_tag != element->name()) {
      return Error("mismatched end tag </" + end_tag + "> for <" +
                   element->name() + ">");
    }
    SkipWhitespace();
    if (!Match(">")) return Error("expected '>' in end tag");
    return Status::OK();
  }

  Status ParseContent(XmlNode* element, size_t depth) {
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      if (!options_.skip_insignificant_whitespace || !IsWhitespaceOnly(text)) {
        element->AppendChild(XmlNode::Text(std::move(text)));
      }
      text.clear();
    };

    while (true) {
      if (AtEnd()) return Error("unterminated element <" + element->name() +
                                ">");
      if (Peek() == '<') {
        if (Match("</")) {
          flush_text();
          return Status::OK();
        }
        if (Match("<!--")) {
          flush_text();
          OXML_RETURN_NOT_OK(ParseComment(element));
          continue;
        }
        if (Match("<![CDATA[")) {
          size_t start = pos_;
          OXML_RETURN_NOT_OK(SkipUntil("]]>", "unterminated CDATA"));
          text.append(input_.substr(start, pos_ - 3 - start));
          continue;
        }
        if (Match("<?")) {
          flush_text();
          OXML_RETURN_NOT_OK(ParsePi(element));
          continue;
        }
        flush_text();
        OXML_RETURN_NOT_OK(ParseElement(element, depth + 1));
        continue;
      }
      if (Peek() == '&') {
        Advance();
        OXML_RETURN_NOT_OK(AppendReference(&text));
        continue;
      }
      text.push_back(Peek());
      Advance();
    }
  }

  /// Called just after "<!--" was consumed.
  Status ParseComment(XmlNode* parent) {
    size_t start = pos_;
    OXML_RETURN_NOT_OK(SkipUntil("-->", "unterminated comment"));
    if (options_.keep_comments) {
      parent->AppendChild(
          XmlNode::Comment(std::string(input_.substr(start, pos_ - 3 - start))));
    }
    return Status::OK();
  }

  /// Called just after "<?" was consumed.
  Status ParsePi(XmlNode* parent) {
    OXML_ASSIGN_OR_RETURN(std::string target, ParseName());
    SkipWhitespace();
    size_t start = pos_;
    OXML_RETURN_NOT_OK(SkipUntil("?>", "unterminated PI"));
    if (options_.keep_processing_instructions) {
      parent->AppendChild(XmlNode::ProcessingInstruction(
          std::move(target),
          std::string(input_.substr(start, pos_ - 2 - start))));
    }
    return Status::OK();
  }

  std::string_view input_;
  XmlParseOptions options_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
};

}  // namespace

Result<std::unique_ptr<XmlDocument>> ParseXml(std::string_view input,
                                              const XmlParseOptions& options) {
  Parser parser(input, options);
  return parser.Parse();
}

Result<std::unique_ptr<XmlDocument>> ParseXmlFile(
    const std::string& path, const XmlParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string contents = buf.str();
  return ParseXml(contents, options);
}

}  // namespace oxml
