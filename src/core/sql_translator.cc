#include "src/core/sql_translator.h"

#include "src/common/strings.h"

namespace oxml {
namespace {

std::string KindEq(const std::string& alias, XmlNodeKind kind) {
  return alias + ".kind = " + std::to_string(static_cast<int>(kind));
}

/// Alias-qualified SQL fragment for a node test.
Result<std::string> TestCondition(const std::string& alias,
                                  const NodeTest& test) {
  switch (test.kind) {
    case NodeTest::Kind::kAnyElement:
      return KindEq(alias, XmlNodeKind::kElement);
    case NodeTest::Kind::kTag:
      return KindEq(alias, XmlNodeKind::kElement) + " AND " + alias +
             ".tag = " + SqlQuote(test.tag);
    case NodeTest::Kind::kText:
      return KindEq(alias, XmlNodeKind::kText);
    case NodeTest::Kind::kAnyNode:
      return alias + ".kind <> " +
             std::to_string(static_cast<int>(XmlNodeKind::kAttribute));
  }
  return Status::Internal("bad node test");
}

const char* SqlCmp(XPathCmp op) {
  switch (op) {
    case XPathCmp::kEq:
      return "=";
    case XPathCmp::kNe:
      return "<>";
    case XPathCmp::kLt:
      return "<";
    case XPathCmp::kLe:
      return "<=";
    case XPathCmp::kGt:
      return ">";
    case XPathCmp::kGe:
      return ">=";
  }
  return "=";
}

class Translator {
 public:
  Translator(const OrderedXmlStore& store, const XPathQuery& query)
      : store_(store), query_(query), table_(store.table_name()) {}

  Result<std::string> Translate() {
    if (query_.steps.empty()) {
      return Status::InvalidArgument("empty XPath query");
    }

    for (size_t i = 0; i < query_.steps.size(); ++i) {
      const XPathStep& step = query_.steps[i];
      std::string alias = StrCat({"n", std::to_string(i + 1)});
      std::string prev = i == 0 ? "" : StrCat({"n", std::to_string(i)});

      switch (step.axis) {
        case XPathStep::Axis::kChild:
          OXML_RETURN_NOT_OK(AddNodeAlias(alias, prev, /*descendant=*/false,
                                          step.test));
          break;
        case XPathStep::Axis::kDescendant:
          OXML_RETURN_NOT_OK(AddNodeAlias(alias, prev, /*descendant=*/true,
                                          step.test));
          break;
        case XPathStep::Axis::kAttribute: {
          if (i + 1 != query_.steps.size()) {
            return Status::NotImplemented(
                "attribute axis is only translatable as the final step");
          }
          if (i == 0) {
            return Status::NotImplemented(
                "attribute axis needs a context step");
          }
          OXML_RETURN_NOT_OK(AddAttributeAlias(alias, prev,
                                               step.attribute_name));
          break;
        }
        case XPathStep::Axis::kParent: {
          if (i == 0) {
            return Status::NotImplemented("parent axis needs a context step");
          }
          OXML_RETURN_NOT_OK(AddParentAlias(alias, prev, step.test));
          break;
        }
        case XPathStep::Axis::kAncestor:
          return Status::NotImplemented(
              "the ancestor axis requires a recursive join; use the driver "
              "mode (EvaluateXPath)");
        case XPathStep::Axis::kFollowingSibling:
        case XPathStep::Axis::kPrecedingSibling:
          return Status::NotImplemented(
              "sibling axes require per-context evaluation; use the driver "
              "mode (EvaluateXPath)");
      }

      for (const XPathPredicate& pred : step.predicates) {
        OXML_RETURN_NOT_OK(AddPredicate(alias, pred));
      }
      order_aliases_.push_back(alias);
    }

    std::string last = StrCat({"n", std::to_string(query_.steps.size())});
    std::string sql = "SELECT DISTINCT " + QualifiedColumns(last) + " FROM " +
                      Join(from_, ", ");
    if (!where_.empty()) sql += " WHERE " + Join(where_, " AND ");
    sql += " ORDER BY " + OrderBy(last);
    return sql;
  }

 private:
  OrderEncoding encoding() const { return store_.encoding(); }

  std::string QualifiedColumns(const std::string& alias) const {
    std::vector<std::string> cols = Split(store_.NodeColumns(), ',');
    std::vector<std::string> out;
    for (std::string& c : cols) out.push_back(alias + "." + Trim(c));
    return Join(out, ", ");
  }

  std::string OrderBy(const std::string& last) const {
    switch (encoding()) {
      case OrderEncoding::kGlobal:
        return last + ".ord";
      case OrderEncoding::kDewey:
        return last + ".path";
      case OrderEncoding::kLocal: {
        // Document order of the result is the lexicographic order of the
        // sibling ordinals down the join path — expressible only because
        // every step is a child join.
        std::vector<std::string> keys;
        for (const std::string& a : order_aliases_) {
          keys.push_back(a + ".sord");
        }
        return Join(keys, ", ");
      }
    }
    return last + ".ord";
  }

  /// Join predicate placing `alias` on the child/descendant axis of `prev`
  /// (empty prev = the document node).
  ///
  /// The containment pairs emitted here (Global:
  /// `a.ord > p.ord AND a.ord <= p.eord`; Dewey:
  /// `a.path > p.path AND a.path < SUCC(p.path)`) are the canonical shapes
  /// the planner's interval-join detector lowers to StructuralJoinOp —
  /// keep them as two top-level AND conjuncts comparing a bare column of
  /// one alias against expressions over the other. Extra conjuncts (e.g.
  /// the Dewey child-axis depth equality) are fine: they survive as a
  /// residual filter above the structural join.
  Result<std::string> AxisJoin(const std::string& alias,
                               const std::string& prev, bool descendant) {
    switch (encoding()) {
      case OrderEncoding::kGlobal:
        if (prev.empty()) {
          return descendant ? std::string()  // any node
                            : alias + ".pord = 0";
        }
        if (descendant) {
          return alias + ".ord > " + prev + ".ord AND " + alias +
                 ".ord <= " + prev + ".eord";
        }
        return alias + ".pord = " + prev + ".ord";
      case OrderEncoding::kLocal:
        if (descendant) {
          return Status::NotImplemented(
              "the local encoding cannot express the descendant axis in one "
              "SQL statement (requires a recursive join); use the driver "
              "mode");
        }
        if (prev.empty()) return alias + ".pid = 0";
        return alias + ".pid = " + prev + ".id";
      case OrderEncoding::kDewey: {
        if (prev.empty()) {
          return descendant ? std::string() : alias + ".depth = 1";
        }
        std::string range = alias + ".path > " + prev + ".path AND " +
                            alias + ".path < SUCC(" + prev + ".path)";
        if (!descendant) {
          range += " AND " + alias + ".depth = " + prev + ".depth + 1";
        }
        return range;
      }
    }
    return Status::Internal("bad encoding");
  }

  Status AddNodeAlias(const std::string& alias, const std::string& prev,
                      bool descendant, const NodeTest& test) {
    from_.push_back(table_ + " " + alias);
    OXML_ASSIGN_OR_RETURN(std::string join, AxisJoin(alias, prev, descendant));
    if (!join.empty()) where_.push_back(std::move(join));
    OXML_ASSIGN_OR_RETURN(std::string cond, TestCondition(alias, test));
    where_.push_back(std::move(cond));
    return Status::OK();
  }

  /// parent:: step — an equi join for Global/Local; a PATH_PARENT function
  /// join for Dewey.
  Status AddParentAlias(const std::string& alias, const std::string& prev,
                        const NodeTest& test) {
    from_.push_back(table_ + " " + alias);
    switch (encoding()) {
      case OrderEncoding::kGlobal:
        where_.push_back(alias + ".ord = " + prev + ".pord");
        break;
      case OrderEncoding::kLocal:
        where_.push_back(alias + ".id = " + prev + ".pid");
        break;
      case OrderEncoding::kDewey:
        where_.push_back(alias + ".path = PATH_PARENT(" + prev + ".path)");
        break;
    }
    OXML_ASSIGN_OR_RETURN(std::string cond, TestCondition(alias, test));
    where_.push_back(std::move(cond));
    return Status::OK();
  }

  Status AddAttributeAlias(const std::string& alias, const std::string& prev,
                           const std::string& name) {
    from_.push_back(table_ + " " + alias);
    OXML_ASSIGN_OR_RETURN(std::string join,
                          AxisJoin(alias, prev, /*descendant=*/false));
    if (!join.empty()) where_.push_back(std::move(join));
    where_.push_back(KindEq(alias, XmlNodeKind::kAttribute));
    if (!name.empty()) {
      where_.push_back(alias + ".tag = " + SqlQuote(name));
    }
    return Status::OK();
  }

  Status AddPredicate(const std::string& context,
                      const XPathPredicate& pred) {
    switch (pred.kind) {
      case XPathPredicate::Kind::kPosition:
      case XPathPredicate::Kind::kLast:
        return Status::NotImplemented(
            "positional predicates require per-context counting; use the "
            "driver mode (EvaluateXPath)");
      case XPathPredicate::Kind::kAttribute:
      case XPathPredicate::Kind::kHasAttribute: {
        std::string alias = NextPredAlias();
        from_.push_back(table_ + " " + alias);
        OXML_ASSIGN_OR_RETURN(std::string join,
                              AxisJoin(alias, context, false));
        where_.push_back(std::move(join));
        where_.push_back(KindEq(alias, XmlNodeKind::kAttribute));
        where_.push_back(alias + ".tag = " + SqlQuote(pred.name));
        if (pred.kind == XPathPredicate::Kind::kAttribute) {
          where_.push_back(alias + ".val " + SqlCmp(pred.op) + " " +
                           SqlQuote(pred.literal));
        }
        return Status::OK();
      }
      case XPathPredicate::Kind::kChildValue: {
        // [c op 'v'] — existential: some child <c> with a text child
        // comparing true. (The driver compares the full string value; the
        // translation uses direct text children, the standard SQL-level
        // approximation.)
        std::string child = NextPredAlias();
        from_.push_back(table_ + " " + child);
        OXML_ASSIGN_OR_RETURN(std::string join,
                              AxisJoin(child, context, false));
        where_.push_back(std::move(join));
        where_.push_back(KindEq(child, XmlNodeKind::kElement));
        where_.push_back(child + ".tag = " + SqlQuote(pred.name));

        std::string text = NextPredAlias();
        from_.push_back(table_ + " " + text);
        OXML_ASSIGN_OR_RETURN(std::string tjoin,
                              AxisJoin(text, child, false));
        where_.push_back(std::move(tjoin));
        where_.push_back(KindEq(text, XmlNodeKind::kText));
        where_.push_back(text + ".val " + SqlCmp(pred.op) + " " +
                         SqlQuote(pred.literal));
        return Status::OK();
      }
      case XPathPredicate::Kind::kSelfValue: {
        // [. op 'v'] — existential over direct text children.
        std::string text = NextPredAlias();
        from_.push_back(table_ + " " + text);
        OXML_ASSIGN_OR_RETURN(std::string join,
                              AxisJoin(text, context, false));
        where_.push_back(std::move(join));
        where_.push_back(KindEq(text, XmlNodeKind::kText));
        where_.push_back(text + ".val " + SqlCmp(pred.op) + " " +
                         SqlQuote(pred.literal));
        return Status::OK();
      }
    }
    return Status::Internal("bad predicate");
  }

  std::string NextPredAlias() {
    return StrCat({"p", std::to_string(++pred_count_)});
  }

  const OrderedXmlStore& store_;
  const XPathQuery& query_;
  std::string table_;
  std::vector<std::string> from_;
  std::vector<std::string> where_;
  std::vector<std::string> order_aliases_;
  int pred_count_ = 0;
};

}  // namespace

Result<std::string> TranslateXPathToSql(const OrderedXmlStore& store,
                                        const XPathQuery& query) {
  Translator translator(store, query);
  return translator.Translate();
}

Result<std::string> TranslateXPathToSql(const OrderedXmlStore& store,
                                        std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(XPathQuery query, ParseXPath(xpath));
  return TranslateXPathToSql(store, query);
}

Result<std::vector<StoredNode>> EvaluateXPathViaSql(OrderedXmlStore* store,
                                                    const XPathQuery& query) {
  OXML_ASSIGN_OR_RETURN(std::string sql, TranslateXPathToSql(*store, query));
  // Repeated evaluations of the same XPath reuse the cached plan keyed by
  // the translated SQL text.
  OXML_ASSIGN_OR_RETURN(PreparedStatement ps, store->db()->Prepare(sql));
  OXML_ASSIGN_OR_RETURN(ResultSet rs, ps.Query());
  std::vector<StoredNode> out;
  out.reserve(rs.rows.size());
  for (Row& row : rs.rows) {
    out.push_back(store->NodeFromRow(std::move(row)));
  }
  return out;
}

Result<std::vector<StoredNode>> EvaluateXPathViaSql(OrderedXmlStore* store,
                                                    std::string_view xpath) {
  OXML_ASSIGN_OR_RETURN(XPathQuery query, ParseXPath(xpath));
  return EvaluateXPathViaSql(store, query);
}

}  // namespace oxml
