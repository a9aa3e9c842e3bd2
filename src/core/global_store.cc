#include <algorithm>

#include "src/common/strings.h"
#include "src/core/stores.h"

namespace oxml {

namespace {

constexpr const char* kCols = "ord, eord, pord, depth, kind, tag, val";

}  // namespace

const char* GlobalStore::NodeColumns() const { return kCols; }

StoredNode GlobalStore::NodeFromRow(Row row) const {
  StoredNode n;
  n.ord = row[0].AsInt();
  n.eord = row[1].AsInt();
  n.pord = row[2].AsInt();
  n.depth = row[3].AsInt();
  n.kind = static_cast<XmlNodeKind>(row[4].AsInt());
  n.tag = row[5].TakeString();
  n.value = row[6].TakeString();  // "" when NULL
  return n;
}

// Index column order doubles as a sort-order claim the planner exploits:
// (tag, ord) means "an equality probe on tag yields rows in ord order" —
// document order for free, which is what lets descendant containment run
// as a structural join and the translator's ORDER BY ord be elided.
Status GlobalStore::CreateTableAndIndexes() {
  const std::string& t = table_name();
  OXML_RETURN_NOT_OK(db_->Execute("CREATE TABLE " + t +
                                  " (ord INT, eord INT, pord INT, depth INT,"
                                  " kind INT, tag TEXT, val TEXT)")
                         .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_ord ON " + t + " (ord)").status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_eord ON " + t + " (eord)")
          .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_pord ON " + t + " (pord, ord)")
          .status());
  OXML_RETURN_NOT_OK(
      db_->Execute("CREATE INDEX " + t + "_tag ON " + t + " (tag, ord)")
          .status());
  return Status::OK();
}

void GlobalStore::ShredInto(const XmlNode& node, int64_t pord, int64_t depth,
                            int64_t step, int64_t* counter,
                            std::vector<Row>* rows) {
  *counter += step;
  int64_t ord = *counter;
  size_t row_index = rows->size();
  rows->push_back(Row{Value::Int(ord), Value::Int(0), Value::Int(pord),
                      Value::Int(depth),
                      Value::Int(static_cast<int64_t>(node.kind())),
                      Value::Text(node.name()), Value::Text(node.value())});
  for (const XmlAttribute& attr : node.attributes()) {
    *counter += step;
    rows->push_back(
        Row{Value::Int(*counter), Value::Int(*counter), Value::Int(ord),
            Value::Int(depth + 1),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  for (const auto& child : node.children()) {
    ShredInto(*child, ord, depth + 1, step, counter, rows);
  }
  (*rows)[row_index][1] = Value::Int(*counter);  // eord = max ord in subtree
}

Status GlobalStore::EmitUnitRows(const ShredUnit& u, std::vector<Row>* rows) {
  const int64_t step = options_.gap;
  // The depth-first shred bumps the counter before each row, so the k-th row of
  // the full stream (0-based) gets ord = step * (k + 1); the parent's ord
  // follows the same formula applied to its row offset.
  const int64_t pord =
      u.parent_row_offset < 0 ? 0 : step * (u.parent_row_offset + 1);
  if (u.whole_subtree) {
    // Run the depth-first shredder with the counter pre-positioned at the
    // unit's first row; every ord/eord inside comes out as in a
    // whole-document shred.
    int64_t counter = step * static_cast<int64_t>(u.row_offset);
    ShredInto(*u.node, pord, u.depth, step, &counter, rows);
    return Status::OK();
  }
  // Header unit: the element row plus its attributes; the children arrive
  // as later units. eord spans the whole subtree even though its rows are
  // emitted elsewhere — subtree_rows makes it computable here.
  const int64_t ord = step * (static_cast<int64_t>(u.row_offset) + 1);
  const int64_t eord =
      step * static_cast<int64_t>(u.row_offset + u.subtree_rows);
  rows->push_back(Row{Value::Int(ord), Value::Int(eord), Value::Int(pord),
                      Value::Int(u.depth),
                      Value::Int(static_cast<int64_t>(u.node->kind())),
                      Value::Text(u.node->name()),
                      Value::Text(u.node->value())});
  int64_t c = ord;
  for (const XmlAttribute& attr : u.node->attributes()) {
    c += step;
    rows->push_back(
        Row{Value::Int(c), Value::Int(c), Value::Int(ord),
            Value::Int(u.depth + 1),
            Value::Int(static_cast<int64_t>(XmlNodeKind::kAttribute)),
            Value::Text(attr.name), Value::Text(attr.value)});
  }
  return Status::OK();
}

Result<StoredNode> GlobalStore::SelectOne(const std::string& where,
                                          Row params) {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes,
                        Select(where, std::move(params), "ord"));
  if (nodes.empty()) return Status::NotFound("no node matches: " + where);
  return nodes.front();
}

Result<StoredNode> GlobalStore::Root() {
  return SelectOne("pord = 0 AND kind = " +
                       IntLit(static_cast<int>(XmlNodeKind::kElement)),
                   {});
}

Result<std::vector<StoredNode>> GlobalStore::Children(const StoredNode& node,
                                                      const NodeTest& test,
                                                      size_t limit) {
  Row params{Value::Int(node.ord)};
  // Built before the Select call: SqlConditionP appends to `params`, and
  // argument evaluation order would otherwise race it against the move.
  std::string where = "pord = ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "ord", limit);
}

Result<std::vector<StoredNode>> GlobalStore::Descendants(
    const StoredNode& node, const NodeTest& test, size_t limit) {
  Row params{Value::Int(node.ord), Value::Int(node.eord)};
  std::string where =
      "ord > ? AND ord <= ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "ord", limit);
}

Result<std::vector<StoredNode>> GlobalStore::FollowingSiblings(
    const StoredNode& node, const NodeTest& test, size_t limit) {
  Row params{Value::Int(node.pord), Value::Int(node.ord)};
  std::string where =
      "pord = ? AND ord > ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "ord", limit);
}

Result<std::vector<StoredNode>> GlobalStore::PrecedingSiblings(
    const StoredNode& node, const NodeTest& test) {
  Row params{Value::Int(node.pord), Value::Int(node.ord)};
  std::string where =
      "pord = ? AND ord < ? AND " + test.SqlConditionP(&params);
  return Select(where, std::move(params), "ord");
}

Result<std::vector<StoredNode>> GlobalStore::Attributes(
    const StoredNode& node, std::string_view name) {
  Row params{Value::Int(node.ord)};
  std::string where = "pord = ? AND kind = " +
                      IntLit(static_cast<int>(XmlNodeKind::kAttribute));
  if (!name.empty()) {
    where += " AND tag = ?";
    params.push_back(Value::Text(std::string(name)));
  }
  return Select(where, std::move(params), "ord");
}

// The (tag, ord) index over the owners' covering interval (min ord,
// max eord]: every same-named attribute of the owners lies in it, and so
// does every same-named attribute of their descendants and of the nodes
// between them, which the probe reads and drops.
Result<std::vector<std::optional<std::string>>> GlobalStore::AttributeValues(
    const std::vector<StoredNode>& owners, std::string_view name) {
  if (owners.empty()) return std::vector<std::optional<std::string>>{};
  int64_t lo = owners.front().ord;
  int64_t hi = owners.front().eord;
  for (const StoredNode& n : owners) {
    lo = std::min(lo, n.ord);
    hi = std::max(hi, n.eord);
  }
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs,
      SqlP("SELECT pord, val FROM " + table_name() +
               " WHERE tag = ? AND ord > ? AND ord <= ? AND kind = " +
               IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
           {Value::Text(std::string(name)), Value::Int(lo), Value::Int(hi)}));
  std::unordered_map<int64_t, std::string> by_owner;
  for (const Row& row : rs.rows) {
    by_owner.emplace(row[0].AsInt(),
                     row[1].is_null() ? "" : row[1].AsString());
  }
  return MatchOwners(owners, by_owner,
                     [](const StoredNode& n) { return n.ord; });
}

Result<StoredNode> GlobalStore::Parent(const StoredNode& node) {
  if (node.pord == 0) return Status::NotFound("root has no parent");
  return SelectOne("ord = ?", {Value::Int(node.pord)});
}

Status GlobalStore::SortDocumentOrder(std::vector<StoredNode>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const StoredNode& a, const StoredNode& b) {
              return a.ord < b.ord;
            });
  return Status::OK();
}

Result<std::string> GlobalStore::StringValue(const StoredNode& node) {
  if (node.kind == XmlNodeKind::kText ||
      node.kind == XmlNodeKind::kAttribute ||
      node.kind == XmlNodeKind::kComment) {
    return node.value;
  }
  OXML_ASSIGN_OR_RETURN(
      ResultSet rs,
      SqlP("SELECT val FROM " + table_name() +
               " WHERE ord >= ? AND ord <= ? AND kind = " +
               IntLit(static_cast<int>(XmlNodeKind::kText)) + " ORDER BY ord",
           {Value::Int(node.ord), Value::Int(node.eord)}));
  std::string out;
  for (const Row& row : rs.rows) out += row[0].AsString();
  return out;
}

Result<std::unique_ptr<XmlDocument>> GlobalStore::ReconstructDocument() {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> nodes, Select("", {}, "ord"));
  auto doc = std::make_unique<XmlDocument>();
  OXML_RETURN_NOT_OK(AssembleByDepth(std::move(nodes), 1, doc->root()));
  return doc;
}

Result<std::unique_ptr<XmlNode>> GlobalStore::ReconstructSubtree(
    const StoredNode& node) {
  OXML_ASSIGN_OR_RETURN(
      std::vector<StoredNode> nodes,
      Select("ord >= ? AND ord <= ?",
             {Value::Int(node.ord), Value::Int(node.eord)}, "ord"));
  auto holder = std::make_unique<XmlNode>(XmlNodeKind::kDocument, "#holder");
  OXML_RETURN_NOT_OK(
      AssembleByDepth(std::move(nodes), node.depth, holder.get()));
  if (holder->child_count() != 1) {
    return Status::Internal("subtree reconstruction produced " +
                            std::to_string(holder->child_count()) +
                            " roots");
  }
  return holder->RemoveChild(0);
}

Result<bool> GlobalStore::IsDescendantOf(const StoredNode& node,
                                         const StoredNode& ancestor) {
  return node.ord > ancestor.ord && node.ord <= ancestor.eord;
}

std::string GlobalStore::KeyCondition(const StoredNode& node) const {
  return "ord = " + IntLit(node.ord);
}

std::string GlobalStore::KeyConditionP(const StoredNode& node,
                                       Row* params) const {
  params->push_back(Value::Int(node.ord));
  return "ord = ?";
}

Status GlobalStore::Validate() {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> rows, Select("", {}, "ord"));
  std::vector<const StoredNode*> stack;  // open ancestor intervals
  int roots = 0;
  int64_t prev_ord = -1;
  for (const StoredNode& n : rows) {
    if (n.ord <= prev_ord) {
      return Status::Internal("duplicate or unordered ord " +
                              std::to_string(n.ord));
    }
    prev_ord = n.ord;
    if (n.eord < n.ord) {
      return Status::Internal("eord < ord at " + std::to_string(n.ord));
    }
    while (!stack.empty() && stack.back()->eord < n.ord) stack.pop_back();
    if (stack.empty()) {
      if (n.pord != 0) {
        return Status::Internal("top-level node with pord != 0 at " +
                                std::to_string(n.ord));
      }
      if (n.depth != 1) {
        return Status::Internal("top-level node with depth != 1");
      }
      if (n.kind == XmlNodeKind::kElement) ++roots;
    } else {
      const StoredNode* parent = stack.back();
      if (n.pord != parent->ord) {
        return Status::Internal(
            "pord mismatch at ord " + std::to_string(n.ord) + ": pord=" +
            std::to_string(n.pord) + " enclosing=" +
            std::to_string(parent->ord));
      }
      if (n.depth != parent->depth + 1) {
        return Status::Internal("depth mismatch at ord " +
                                std::to_string(n.ord));
      }
      if (n.eord > parent->eord) {
        return Status::Internal("interval escapes parent at ord " +
                                std::to_string(n.ord));
      }
    }
    if (n.kind != XmlNodeKind::kElement && n.eord != n.ord) {
      return Status::Internal("leaf with eord != ord at " +
                              std::to_string(n.ord));
    }
    if (n.kind == XmlNodeKind::kElement) stack.push_back(&n);
  }
  if (roots != 1) {
    return Status::Internal("expected exactly 1 root element, found " +
                            std::to_string(roots));
  }
  return Status::OK();
}

Result<UpdateStats> GlobalStore::DoInsertSubtree(const StoredNode& ref,
                                               InsertPosition pos,
                                               const XmlNode& subtree) {
  if (ref.kind == XmlNodeKind::kAttribute) {
    return Status::InvalidArgument("cannot insert relative to an attribute");
  }
  UpdateStats stats;
  const std::string& t = table_name();

  // Resolve (parent P, left neighbor L, right neighbor R).
  StoredNode parent;
  bool have_left = false, have_right = false;
  StoredNode left, right;

  auto last_attr_or_none = [&](const StoredNode& p) -> Result<bool> {
    OXML_ASSIGN_OR_RETURN(
        std::vector<StoredNode> attrs,
        Select("pord = ? AND kind = " +
                   IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
               {Value::Int(p.ord)}, "ord DESC LIMIT 1"));
    if (attrs.empty()) return false;
    left = attrs.front();
    return true;
  };

  switch (pos) {
    case InsertPosition::kBefore: {
      OXML_ASSIGN_OR_RETURN(parent, Parent(ref));
      right = ref;
      have_right = true;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> prev,
          Select("pord = ? AND ord < ?",
                 {Value::Int(parent.ord), Value::Int(ref.ord)},
                 "ord DESC LIMIT 1"));
      if (!prev.empty()) {
        left = prev.front();
        have_left = true;
      } else {
        OXML_ASSIGN_OR_RETURN(have_left, last_attr_or_none(parent));
      }
      break;
    }
    case InsertPosition::kAfter: {
      OXML_ASSIGN_OR_RETURN(parent, Parent(ref));
      left = ref;
      have_left = true;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> next,
          Select("pord = ? AND ord > ?",
                 {Value::Int(parent.ord), Value::Int(ref.ord)},
                 "ord LIMIT 1"));
      if (!next.empty()) {
        right = next.front();
        have_right = true;
      }
      break;
    }
    case InsertPosition::kFirstChild: {
      parent = ref;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          Select("pord = ? AND kind <> " +
                     IntLit(static_cast<int>(XmlNodeKind::kAttribute)),
                 {Value::Int(parent.ord)}, "ord LIMIT 1"));
      if (!kids.empty()) {
        right = kids.front();
        have_right = true;
      }
      OXML_ASSIGN_OR_RETURN(have_left, last_attr_or_none(parent));
      break;
    }
    case InsertPosition::kLastChild: {
      parent = ref;
      OXML_ASSIGN_OR_RETURN(
          std::vector<StoredNode> kids,
          Select("pord = ?", {Value::Int(parent.ord)}, "ord DESC LIMIT 1"));
      if (!kids.empty()) {
        left = kids.front();
        have_left = true;
      }
      break;
    }
  }
  stats.statements += 2;  // neighbor resolution queries (amortized)

  int64_t lo = have_left ? left.eord : parent.ord;
  int64_t hi = 0;
  bool hi_finite = true;
  if (have_right) {
    hi = right.ord;
  } else {
    // Appending at the subtree tail: the ceiling is the first node after
    // the parent's interval.
    OXML_ASSIGN_OR_RETURN(
        ResultSet rs,
        SqlP("SELECT ord FROM " + t + " WHERE ord > ? ORDER BY ord LIMIT 1",
             {Value::Int(parent.eord)}, &stats));
    if (rs.rows.empty()) {
      hi_finite = false;
    } else {
      hi = rs.rows[0][0].AsInt();
    }
  }

  int64_t m = static_cast<int64_t>(subtree.SubtreeSize());

  if (hi_finite && hi - lo - 1 < m) {
    // Renumber: shift every order value at or beyond `hi` to make room.
    // All three order-bearing columns must shift consistently.
    int64_t delta = (m + 1) * options_.gap;
    OXML_ASSIGN_OR_RETURN(
        int64_t shifted,
        DmlP("UPDATE " + t + " SET ord = ord + ? WHERE ord >= ?",
             {Value::Int(delta), Value::Int(hi)}, &stats));
    OXML_RETURN_NOT_OK(
        DmlP("UPDATE " + t + " SET eord = eord + ? WHERE eord >= ?",
             {Value::Int(delta), Value::Int(hi)}, &stats)
            .status());
    OXML_RETURN_NOT_OK(
        DmlP("UPDATE " + t + " SET pord = pord + ? WHERE pord >= ?",
             {Value::Int(delta), Value::Int(hi)}, &stats)
            .status());
    stats.rows_renumbered += shifted;
    stats.renumbering_triggered = true;
    hi += delta;
  }

  int64_t step =
      hi_finite ? std::max<int64_t>(1, (hi - lo) / (m + 1)) : options_.gap;
  step = std::min(step, options_.gap);

  std::vector<Row> rows;
  int64_t counter = lo;
  ShredInto(subtree, parent.ord, parent.depth + 1, step, &counter, &rows);
  int64_t new_max = counter;
  OXML_RETURN_NOT_OK(InsertRows(rows, &stats));

  if (!have_right) {
    // Extend the interval of the parent and of every ancestor whose
    // interval falls short of the appended tail. Matching on
    // `eord = parent.eord` alone is not enough: DeleteSubtree leaves
    // ancestor eords as loose over-approximations, so an ancestor may end
    // anywhere in (parent.eord, new_max) without any row sitting there.
    // Ancestors-or-self of the parent are exactly the rows with
    // ord <= parent.ord and eord >= parent.eord (interval nesting).
    OXML_ASSIGN_OR_RETURN(
        int64_t extended,
        DmlP("UPDATE " + t +
                 " SET eord = ? WHERE ord <= ? AND eord >= ? AND eord < ?",
             {Value::Int(new_max), Value::Int(parent.ord),
              Value::Int(parent.eord), Value::Int(new_max)},
             &stats));
    stats.rows_renumbered += extended;
  }
  return stats;
}

Result<UpdateStats> GlobalStore::DoDeleteSubtree(const StoredNode& node) {
  UpdateStats stats;
  OXML_ASSIGN_OR_RETURN(
      int64_t deleted,
      DmlP("DELETE FROM " + table_name() + " WHERE ord >= ? AND ord <= ?",
           {Value::Int(node.ord), Value::Int(node.eord)}, &stats));
  // Ancestor eords are left as (correct but loose) over-approximations of
  // their intervals; every remaining node still falls in exactly its
  // ancestors' intervals.
  stats.nodes_deleted = deleted;
  return stats;
}

}  // namespace oxml
