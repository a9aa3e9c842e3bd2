#ifndef OXML_CORE_XPATH_H_
#define OXML_CORE_XPATH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/ordered_store.h"

namespace oxml {

/// Comparison operators usable inside XPath predicates.
enum class XPathCmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* XPathCmpToString(XPathCmp op);

/// One bracketed predicate. The supported forms cover the paper's ordered
/// query classes:
///   [3]                  position (kPosition, op kEq)
///   [position() >= 2]    position comparison (kPosition)
///   [last()]             last sibling (kLast)
///   [@id]                attribute existence (kHasAttribute)
///   [@id = 'x']          attribute comparison (kAttribute)
///   [title = 'x']        first matching child's string value (kChildValue)
///   [. = 'x']            self string value (kSelfValue)
struct XPathPredicate {
  enum class Kind : uint8_t {
    kPosition,
    kLast,
    kAttribute,
    kHasAttribute,
    kChildValue,
    kSelfValue,
  };

  Kind kind = Kind::kPosition;
  XPathCmp op = XPathCmp::kEq;
  int64_t position = 0;   // kPosition
  std::string name;       // kAttribute / kChildValue
  std::string literal;    // comparison literal

  std::string ToString() const;
};

/// One location step.
struct XPathStep {
  enum class Axis : uint8_t {
    kChild,
    kDescendant,        // produced by '//'
    kFollowingSibling,  // following-sibling::
    kPrecedingSibling,  // preceding-sibling::
    kAttribute,         // @name or attribute::
    kParent,            // parent:: or '..'
    kAncestor,          // ancestor::
  };

  Axis axis = Axis::kChild;
  NodeTest test;               // ignored for kAttribute
  std::string attribute_name;  // kAttribute only ("" = any)
  std::vector<XPathPredicate> predicates;

  std::string ToString() const;
};

/// A parsed absolute path expression.
struct XPathQuery {
  std::vector<XPathStep> steps;

  std::string ToString() const;
};

/// Most location steps a path may have: the grammar does not recurse, but
/// the SQL translator nests one more join per step.
inline constexpr size_t kMaxXPathSteps = 256;

/// Parses the XPath subset:
///
///   path   := ('/' | '//') step (('/' | '//') step)*
///   step   := [axis '::'] nodetest pred*  |  '..'
///   axis   := 'following-sibling' | 'preceding-sibling' | 'child'
///           | 'parent' | 'ancestor'
///   nodetest := NAME | '*' | 'text()' | '@' NAME
///   pred   := '[' INT | 'last()' | 'position()' cmp INT
///             | ('@' NAME | NAME | '.') cmp ('literal' | NUMBER) ']'
/// with at most kMaxXPathSteps steps.
Result<XPathQuery> ParseXPath(std::string_view input);

}  // namespace oxml

#endif  // OXML_CORE_XPATH_H_
