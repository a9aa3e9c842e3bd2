#include "src/core/xpath.h"

#include <cctype>
#include <limits>

#include "src/common/strings.h"

namespace oxml {

const char* XPathCmpToString(XPathCmp op) {
  switch (op) {
    case XPathCmp::kEq:
      return "=";
    case XPathCmp::kNe:
      return "!=";
    case XPathCmp::kLt:
      return "<";
    case XPathCmp::kLe:
      return "<=";
    case XPathCmp::kGt:
      return ">";
    case XPathCmp::kGe:
      return ">=";
  }
  return "?";
}

std::string XPathPredicate::ToString() const {
  switch (kind) {
    case Kind::kPosition:
      if (op == XPathCmp::kEq) {
        return StrCat({"[", std::to_string(position), "]"});
      }
      return std::string("[position() ") + XPathCmpToString(op) + " " +
             std::to_string(position) + "]";
    case Kind::kLast:
      return "[last()]";
    case Kind::kAttribute:
      return "[@" + name + " " + XPathCmpToString(op) + " '" + literal +
             "']";
    case Kind::kHasAttribute:
      return "[@" + name + "]";
    case Kind::kChildValue:
      return "[" + name + " " + XPathCmpToString(op) + " '" + literal + "']";
    case Kind::kSelfValue:
      return std::string("[. ") + XPathCmpToString(op) + " '" + literal +
             "']";
  }
  return "[?]";
}

std::string XPathStep::ToString() const {
  std::string out;
  switch (axis) {
    case Axis::kChild:
      break;
    case Axis::kDescendant:
      break;  // rendered by the query's separator
    case Axis::kFollowingSibling:
      out += "following-sibling::";
      break;
    case Axis::kPrecedingSibling:
      out += "preceding-sibling::";
      break;
    case Axis::kAttribute:
      out += "@" + (attribute_name.empty() ? "*" : attribute_name);
      for (const auto& p : predicates) out += p.ToString();
      return out;
    case Axis::kParent:
      out += "parent::";
      break;
    case Axis::kAncestor:
      out += "ancestor::";
      break;
  }
  switch (test.kind) {
    case NodeTest::Kind::kAnyElement:
      out += "*";
      break;
    case NodeTest::Kind::kTag:
      out += test.tag;
      break;
    case NodeTest::Kind::kText:
      out += "text()";
      break;
    case NodeTest::Kind::kAnyNode:
      out += "node()";
      break;
  }
  for (const auto& p : predicates) out += p.ToString();
  return out;
}

std::string XPathQuery::ToString() const {
  std::string out;
  for (const XPathStep& s : steps) {
    out += s.axis == XPathStep::Axis::kDescendant ? "//" : "/";
    out += s.ToString();
  }
  return out;
}

namespace {

class XPathParser {
 public:
  explicit XPathParser(std::string_view input) : input_(input) {}

  Result<XPathQuery> Parse() {
    XPathQuery query;
    if (input_.empty() || input_[0] != '/') {
      return Error("XPath must be absolute (start with '/')");
    }
    while (!AtEnd()) {
      XPathStep::Axis sep_axis = XPathStep::Axis::kChild;
      if (Match("//")) {
        sep_axis = XPathStep::Axis::kDescendant;
      } else if (Match("/")) {
        sep_axis = XPathStep::Axis::kChild;
      } else {
        return Error("expected '/' between steps");
      }
      if (query.steps.size() == kMaxXPathSteps) {
        return Error(StrCat({"more than ", std::to_string(kMaxXPathSteps),
                             " steps"}));
      }
      OXML_ASSIGN_OR_RETURN(XPathStep step, ParseStep(sep_axis));
      query.steps.push_back(std::move(step));
    }
    if (query.steps.empty()) return Error("empty path");
    return query;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }

  bool Match(std::string_view token) {
    if (input_.substr(pos_).substr(0, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("XPath: " + msg + " at offset " +
                              std::to_string(pos_));
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == ':';
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  void SkipSpace() {
    while (!AtEnd() && Peek() == ' ') ++pos_;
  }

  Result<XPathStep> ParseStep(XPathStep::Axis sep_axis) {
    XPathStep step;
    step.axis = sep_axis;

    if (Match("@")) {
      step.axis = XPathStep::Axis::kAttribute;
      if (Match("*")) {
        step.attribute_name.clear();
      } else {
        OXML_ASSIGN_OR_RETURN(step.attribute_name, ParseName());
      }
      return step;  // attribute steps take no predicates here
    }

    // '..' abbreviation = parent::node().
    if (Match("..")) {
      step.axis = XPathStep::Axis::kParent;
      step.test = NodeTest::AnyNode();
      while (Match("[")) {
        OXML_ASSIGN_OR_RETURN(XPathPredicate pred, ParsePredicate());
        step.predicates.push_back(std::move(pred));
        if (!Match("]")) return Error("expected ']'");
      }
      return step;
    }

    // Named axes (child:: is the default and may be written explicitly).
    if (Match("following-sibling::")) {
      step.axis = XPathStep::Axis::kFollowingSibling;
    } else if (Match("parent::")) {
      step.axis = XPathStep::Axis::kParent;
    } else if (Match("ancestor::")) {
      step.axis = XPathStep::Axis::kAncestor;
    } else if (Match("preceding-sibling::")) {
      step.axis = XPathStep::Axis::kPrecedingSibling;
    } else if (Match("attribute::")) {
      step.axis = XPathStep::Axis::kAttribute;
      if (Match("*")) {
        step.attribute_name.clear();
      } else {
        OXML_ASSIGN_OR_RETURN(step.attribute_name, ParseName());
      }
      return step;
    } else {
      Match("child::");
    }

    if (Match("*")) {
      step.test = NodeTest::AnyElement();
    } else if (Match("text()")) {
      step.test = NodeTest::Text();
    } else if (Match("node()")) {
      step.test = NodeTest::AnyNode();
    } else {
      OXML_ASSIGN_OR_RETURN(std::string name, ParseName());
      step.test = NodeTest::Tag(std::move(name));
    }

    while (Match("[")) {
      OXML_ASSIGN_OR_RETURN(XPathPredicate pred, ParsePredicate());
      step.predicates.push_back(std::move(pred));
      if (!Match("]")) return Error("expected ']'");
    }
    return step;
  }

  Result<XPathCmp> ParseCmp() {
    SkipSpace();
    if (Match("!=")) return XPathCmp::kNe;
    if (Match("<=")) return XPathCmp::kLe;
    if (Match(">=")) return XPathCmp::kGe;
    if (Match("=")) return XPathCmp::kEq;
    if (Match("<")) return XPathCmp::kLt;
    if (Match(">")) return XPathCmp::kGt;
    return Error("expected a comparison operator");
  }

  Result<std::string> ParseLiteral() {
    SkipSpace();
    if (Match("'") || Match("\"")) {
      char quote = input_[pos_ - 1];
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated literal");
      std::string out(input_.substr(start, pos_ - start));
      ++pos_;
      return out;
    }
    // Bare number.
    size_t start = pos_;
    while (!AtEnd() &&
           (std::isdigit(static_cast<unsigned char>(Peek())) ||
            Peek() == '.' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a literal");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<int64_t> ParseInt() {
    SkipSpace();
    bool neg = Match("-");
    size_t start = pos_;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected an integer");
    int64_t v = 0;
    for (size_t i = start; i < pos_; ++i) {
      int digit = input_[i] - '0';
      if (v > (std::numeric_limits<int64_t>::max() - digit) / 10) {
        return Error("integer out of range");
      }
      v = v * 10 + digit;
    }
    return neg ? -v : v;
  }

  Result<XPathPredicate> ParsePredicate() {
    SkipSpace();
    XPathPredicate pred;
    if (Match("last()")) {
      SkipSpace();
      pred.kind = XPathPredicate::Kind::kLast;
      return pred;
    }
    if (Match("position()")) {
      pred.kind = XPathPredicate::Kind::kPosition;
      OXML_ASSIGN_OR_RETURN(pred.op, ParseCmp());
      OXML_ASSIGN_OR_RETURN(pred.position, ParseInt());
      SkipSpace();
      return pred;
    }
    if (Match("@")) {
      OXML_ASSIGN_OR_RETURN(pred.name, ParseName());
      SkipSpace();
      if (!AtEnd() && Peek() == ']') {
        pred.kind = XPathPredicate::Kind::kHasAttribute;
        return pred;
      }
      pred.kind = XPathPredicate::Kind::kAttribute;
      OXML_ASSIGN_OR_RETURN(pred.op, ParseCmp());
      OXML_ASSIGN_OR_RETURN(pred.literal, ParseLiteral());
      SkipSpace();
      return pred;
    }
    if (Match(".")) {
      pred.kind = XPathPredicate::Kind::kSelfValue;
      OXML_ASSIGN_OR_RETURN(pred.op, ParseCmp());
      OXML_ASSIGN_OR_RETURN(pred.literal, ParseLiteral());
      SkipSpace();
      return pred;
    }
    if (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      pred.kind = XPathPredicate::Kind::kPosition;
      pred.op = XPathCmp::kEq;
      OXML_ASSIGN_OR_RETURN(pred.position, ParseInt());
      SkipSpace();
      return pred;
    }
    pred.kind = XPathPredicate::Kind::kChildValue;
    OXML_ASSIGN_OR_RETURN(pred.name, ParseName());
    OXML_ASSIGN_OR_RETURN(pred.op, ParseCmp());
    OXML_ASSIGN_OR_RETURN(pred.literal, ParseLiteral());
    SkipSpace();
    return pred;
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<XPathQuery> ParseXPath(std::string_view input) {
  XPathParser parser(input);
  return parser.Parse();
}

}  // namespace oxml
