#ifndef OXML_RELATIONAL_SCHEMA_H_
#define OXML_RELATIONAL_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/relational/value.h"

namespace oxml {

/// A named, typed column.
struct Column {
  std::string name;
  TypeId type;

  bool operator==(const Column&) const = default;
};

/// An ordered list of columns. Column names may be qualified
/// ("alias.column") in intermediate schemas produced by joins.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Index of `name`, matching either the full (possibly qualified) name or
  /// the unqualified suffix. Returns -1 if absent, -2 if ambiguous.
  int IndexOf(std::string_view name) const;

  /// Appends all columns of `other`, prefixing unqualified names with
  /// "<qualifier>." — used to build join schemas.
  void Append(const Schema& other, std::string_view qualifier = {});

  std::string ToString() const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Column> columns_;
};

/// Serializes `row` (which must match `schema`) to a compact byte string:
/// a null bitmap followed by fixed 8-byte ints/doubles and
/// length-prefixed text/blob fields.
std::string EncodeRow(const Schema& schema, const Row& row);

/// Inverse of EncodeRow: decodes into `*row`, overwriting every column and
/// reusing its vector and string buffers, so a scan that refills one Row
/// per produced row allocates only for strings that outgrow the buffers
/// they replace.
Status DecodeRow(const Schema& schema, std::string_view bytes, Row* row);

}  // namespace oxml

#endif  // OXML_RELATIONAL_SCHEMA_H_
