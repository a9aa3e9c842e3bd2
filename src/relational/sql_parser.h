#ifndef OXML_RELATIONAL_SQL_PARSER_H_
#define OXML_RELATIONAL_SQL_PARSER_H_

#include <cstddef>
#include <memory>
#include <string_view>

#include "src/common/result.h"
#include "src/relational/sql_ast.h"

namespace oxml {

/// Deepest expression nesting (parentheses, function arguments, NOT, unary
/// minus, and each operator of a `+ - * / %` chain) the parser accepts;
/// deeper client SQL is a ParseError. AND/OR chains and IN lists are built
/// balanced, so their length is not bounded by this.
inline constexpr size_t kMaxSqlNesting = 256;

/// Parses a single SQL statement (optionally terminated by ';').
/// Supported subset:
///
///   SELECT [DISTINCT] list FROM t [alias] [, ...] [WHERE e]
///       [GROUP BY e, ...] [ORDER BY e [ASC|DESC], ...] [LIMIT n]
///   INSERT INTO t [(cols)] VALUES (...), (...)
///   UPDATE t SET c = e [, ...] [WHERE e]
///   DELETE FROM t [WHERE e]
///   CREATE TABLE t (col TYPE, ...)         -- INT|DOUBLE|TEXT|BLOB
///   CREATE [UNIQUE] INDEX i ON t (cols)
///   DROP TABLE t
///
/// '?' parameter markers are rejected here; use ParseSqlWithParams.
Result<StmtPtr> ParseSql(std::string_view sql);

/// A parsed statement plus the shared binding buffer referenced by every
/// ParamExpr in it. Writing `(*params)[i]` rebinds parameter i for the next
/// evaluation of the tree — this is how PreparedStatement re-runs a cached
/// plan with fresh constants.
struct ParsedStatement {
  StmtPtr stmt;
  std::shared_ptr<Row> params;
  size_t param_count = 0;
};

/// Like ParseSql but accepts '?' parameter markers, numbered left to right
/// starting at 0. `params` is pre-sized to param_count (all NULL).
Result<ParsedStatement> ParseSqlWithParams(std::string_view sql);

}  // namespace oxml

#endif  // OXML_RELATIONAL_SQL_PARSER_H_
