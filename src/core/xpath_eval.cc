#include "src/core/xpath_eval.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <unordered_set>

namespace oxml {

std::string NodeIdentity(OrderEncoding encoding, const StoredNode& node) {
  switch (encoding) {
    case OrderEncoding::kGlobal:
      return std::to_string(node.ord);
    case OrderEncoding::kLocal:
      return std::to_string(node.id);
    case OrderEncoding::kDewey:
      return node.path;
  }
  return "";
}

namespace {

/// Three-way comparison of XPath values: numeric when both sides parse as
/// numbers, byte-wise otherwise.
int CompareXPathValues(const std::string& a, const std::string& b) {
  char* end_a = nullptr;
  char* end_b = nullptr;
  double da = std::strtod(a.c_str(), &end_a);
  double db = std::strtod(b.c_str(), &end_b);
  bool numeric = !a.empty() && !b.empty() && end_a != nullptr &&
                 *end_a == '\0' && end_b != nullptr && *end_b == '\0';
  if (numeric) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  return a.compare(b);
}

bool ApplyCmp(XPathCmp op, int cmp) {
  switch (op) {
    case XPathCmp::kEq:
      return cmp == 0;
    case XPathCmp::kNe:
      return cmp != 0;
    case XPathCmp::kLt:
      return cmp < 0;
    case XPathCmp::kLe:
      return cmp <= 0;
    case XPathCmp::kGt:
      return cmp > 0;
    case XPathCmp::kGe:
      return cmp >= 0;
  }
  return false;
}

bool ApplyPositionCmp(XPathCmp op, int64_t position, int64_t target) {
  if (position < target) return ApplyCmp(op, -1);
  if (position > target) return ApplyCmp(op, 1);
  return ApplyCmp(op, 0);
}

/// Applies a child- or self-value predicate to one node (positional and
/// attribute predicates are applied over a whole step's candidates).
Result<bool> NodeSatisfies(OrderedXmlStore* store, const StoredNode& node,
                           const XPathPredicate& pred) {
  switch (pred.kind) {
    case XPathPredicate::Kind::kChildValue: {
      // XPath existential semantics: true if ANY matching child satisfies
      // the comparison.
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          store->Children(node, NodeTest::Tag(pred.name)));
      for (const StoredNode& kid : kids) {
        OXML_ASSIGN_OR_RETURN(std::string value, store->StringValue(kid));
        if (ApplyCmp(pred.op, CompareXPathValues(value, pred.literal))) {
          return true;
        }
      }
      return false;
    }
    case XPathPredicate::Kind::kSelfValue: {
      OXML_ASSIGN_OR_RETURN(std::string value, store->StringValue(node));
      return ApplyCmp(pred.op, CompareXPathValues(value, pred.literal));
    }
    default:
      return Status::Internal("set-valued predicate reached NodeSatisfies");
  }
}

/// The candidates of one step: the ordered lists the axis produced from
/// each context node, concatenated. `ends[i]` is one past the last
/// candidate of context i's list; positions count within a list.
struct StepCandidates {
  std::vector<StoredNode> nodes;
  std::vector<size_t> ends;
};

/// Drops the candidates whose `keep` flag is false, keeping list bounds.
void Compact(const std::vector<bool>& keep, StepCandidates* c) {
  std::vector<StoredNode> kept;
  std::vector<size_t> ends;
  ends.reserve(c->ends.size());
  size_t i = 0;
  for (size_t end : c->ends) {
    for (; i < end; ++i) {
      if (keep[i]) kept.push_back(std::move(c->nodes[i]));
    }
    ends.push_back(kept.size());
  }
  c->nodes = std::move(kept);
  c->ends = std::move(ends);
}

/// Applies a step's predicates in order (XPath positional semantics). An
/// attribute predicate is one AttributeValues probe over every candidate
/// of the step, whatever the number of context nodes.
Status ApplyPredicates(OrderedXmlStore* store,
                       const std::vector<XPathPredicate>& preds,
                       StepCandidates* c) {
  for (const XPathPredicate& pred : preds) {
    if (c->nodes.empty()) return Status::OK();
    std::vector<bool> keep(c->nodes.size());
    switch (pred.kind) {
      case XPathPredicate::Kind::kPosition:
      case XPathPredicate::Kind::kLast: {
        size_t begin = 0;
        for (size_t end : c->ends) {
          for (size_t i = begin; i < end; ++i) {
            keep[i] = pred.kind == XPathPredicate::Kind::kLast
                          ? i + 1 == end
                          : ApplyPositionCmp(
                                pred.op, static_cast<int64_t>(i - begin + 1),
                                pred.position);
          }
          begin = end;
        }
        break;
      }
      case XPathPredicate::Kind::kAttribute:
      case XPathPredicate::Kind::kHasAttribute: {
        OXML_ASSIGN_OR_RETURN(std::vector<std::optional<std::string>> values,
                              store->AttributeValues(c->nodes, pred.name));
        for (size_t i = 0; i < values.size(); ++i) {
          keep[i] = values[i].has_value() &&
                    (pred.kind == XPathPredicate::Kind::kHasAttribute ||
                     ApplyCmp(pred.op,
                              CompareXPathValues(*values[i], pred.literal)));
        }
        break;
      }
      default:
        for (size_t i = 0; i < c->nodes.size(); ++i) {
          OXML_ASSIGN_OR_RETURN(bool ok,
                                NodeSatisfies(store, c->nodes[i], pred));
          keep[i] = ok;
        }
    }
    Compact(keep, c);
  }
  return Status::OK();
}

/// How many leading candidates of each list a step's first predicate can
/// keep: n for [n], [position() = n] and [position() <= n], n - 1 for
/// [position() < n]; -1 when the first predicate is not such a prefix.
int64_t PositionalPrefix(const XPathStep& step) {
  if (step.predicates.empty()) return -1;
  const XPathPredicate& first = step.predicates.front();
  if (first.kind != XPathPredicate::Kind::kPosition) return -1;
  switch (first.op) {
    case XPathCmp::kEq:
    case XPathCmp::kLe:
      return std::max<int64_t>(first.position, 0);
    case XPathCmp::kLt:
      return first.position <= 1 ? 0 : first.position - 1;
    default:
      return -1;
  }
}

/// `limit` (0 = none) is passed to the axes whose results the store reads
/// in list order; it is a hint, ApplyPredicates still cuts the list.
Result<std::vector<StoredNode>> ExpandAxis(OrderedXmlStore* store,
                                           const StoredNode& context,
                                           const XPathStep& step,
                                           size_t limit) {
  switch (step.axis) {
    case XPathStep::Axis::kChild:
      return store->Children(context, step.test, limit);
    case XPathStep::Axis::kDescendant:
      return store->Descendants(context, step.test, limit);
    case XPathStep::Axis::kFollowingSibling:
      return store->FollowingSiblings(context, step.test, limit);
    case XPathStep::Axis::kPrecedingSibling:
      return store->PrecedingSiblings(context, step.test);
    case XPathStep::Axis::kAttribute:
      return store->Attributes(context, step.attribute_name);
    case XPathStep::Axis::kParent: {
      Result<StoredNode> parent = store->Parent(context);
      if (!parent.ok()) {
        if (parent.status().IsNotFound()) {
          return std::vector<StoredNode>{};
        }
        return parent.status();
      }
      std::vector<StoredNode> out;
      if (step.test.Matches(parent->kind, parent->tag)) {
        out.push_back(std::move(*parent));
      }
      return out;
    }
    case XPathStep::Axis::kAncestor: {
      std::vector<StoredNode> out;
      StoredNode cur = context;
      while (true) {
        Result<StoredNode> parent = store->Parent(cur);
        if (!parent.ok()) {
          if (parent.status().IsNotFound()) break;
          return parent.status();
        }
        cur = std::move(*parent);
        if (step.test.Matches(cur.kind, cur.tag)) out.push_back(cur);
      }
      // Walked leaf-to-root; results are conventionally in document order.
      std::reverse(out.begin(), out.end());
      return out;
    }
  }
  return Status::Internal("bad axis");
}

}  // namespace

Result<std::vector<StoredNode>> EvaluateXPath(OrderedXmlStore* store,
                                              const XPathQuery& query) {
  if (query.steps.empty()) {
    return Status::InvalidArgument("empty XPath query");
  }

  // Seed the context with the first step evaluated from the document node.
  OXML_ASSIGN_OR_RETURN(StoredNode root, store->Root());
  StepCandidates first_step;
  {
    const XPathStep& first = query.steps[0];
    if (first.axis != XPathStep::Axis::kChild &&
        first.axis != XPathStep::Axis::kDescendant) {
      return Status::InvalidArgument(
          "the first step must use the child or descendant axis");
    }
    if (first.test.Matches(root.kind, root.tag)) {
      first_step.nodes.push_back(root);
    }
    if (first.axis == XPathStep::Axis::kDescendant) {
      OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> desc,
                            store->Descendants(root, first.test));
      for (StoredNode& d : desc) first_step.nodes.push_back(std::move(d));
    }
    first_step.ends.push_back(first_step.nodes.size());
    OXML_RETURN_NOT_OK(
        ApplyPredicates(store, first.predicates, &first_step));
  }
  std::vector<StoredNode> context = std::move(first_step.nodes);

  for (size_t s = 1; s < query.steps.size() && !context.empty(); ++s) {
    const XPathStep& step = query.steps[s];
    const int64_t prefix = PositionalPrefix(step);
    if (prefix == 0) return std::vector<StoredNode>{};
    StepCandidates candidates;
    candidates.ends.reserve(context.size());
    for (const StoredNode& node : context) {
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> list,
          ExpandAxis(store, node, step,
                     prefix < 0 ? 0 : static_cast<size_t>(prefix)));
      for (StoredNode& c : list) candidates.nodes.push_back(std::move(c));
      candidates.ends.push_back(candidates.nodes.size());
    }
    OXML_RETURN_NOT_OK(ApplyPredicates(store, step.predicates, &candidates));

    std::vector<StoredNode> next;
    std::unordered_set<std::string> seen;
    for (StoredNode& c : candidates.nodes) {
      std::string id = NodeIdentity(store->encoding(), c);
      if (seen.insert(std::move(id)).second) next.push_back(std::move(c));
    }
    // Results of different contexts can interleave whenever contexts can
    // nest (e.g. //a//b, or a child step below //a where one match is an
    // ancestor of another): restore document order when more than one
    // context contributed. This is where the Local encoding pays for
    // lacking a cheap document-order key.
    if (context.size() > 1 && !next.empty()) {
      OXML_RETURN_NOT_OK(store->SortDocumentOrder(&next));
    }
    context = std::move(next);
  }
  return context;
}

Result<std::vector<StoredNode>> EvaluateXPath(OrderedXmlStore* store,
                                              std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(XPathQuery query, ParseXPath(xpath));
  return EvaluateXPath(store, query);
}

Result<std::vector<std::string>> EvaluateXPathStrings(
    OrderedXmlStore* store, std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                        EvaluateXPath(store, xpath));
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const StoredNode& n : nodes) {
    OXML_ASSIGN_OR_RETURN(std::string v, store->StringValue(n));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace oxml
