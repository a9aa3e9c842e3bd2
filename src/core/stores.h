#ifndef OXML_CORE_STORES_H_
#define OXML_CORE_STORES_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/dewey.h"
#include "src/core/ordered_store.h"

namespace oxml {

/// Assembles `nodes` — already in document order, with `depth` fields
/// starting at `base_depth` — into a tree under `root`. Shared by the
/// Global and Dewey reconstruction paths (both retrieve rows in document
/// order and rebuild the tree with a depth stack).
/// The nodes' strings move into the XmlNodes.
Status AssembleByDepth(std::vector<StoredNode> nodes, int64_t base_depth,
                       XmlNode* root);

/// Appends " ORDER BY `order`" and, for a `limit` > 0, " LIMIT ?" bound to
/// it, in place: every limit shares one SQL text and thus one cached plan.
void AppendOrderAndLimit(std::string_view order, size_t limit,
                         std::string* sql, Row* params);

/// The AttributeValues answer for `owners`, given the probed values keyed
/// by owner: `key(owner)` must yield the key type of `by_owner`.
template <typename Key, typename KeyOf>
std::vector<std::optional<std::string>> MatchOwners(
    const std::vector<StoredNode>& owners,
    const std::unordered_map<Key, std::string>& by_owner, KeyOf key) {
  std::vector<std::optional<std::string>> out(owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    auto it = by_owner.find(key(owners[i]));
    if (it != by_owner.end()) out[i] = it->second;
  }
  return out;
}

/// Implementation base: adds the table-creation hook used by the factory.
class StoreBase : public OrderedXmlStore {
 public:
  using OrderedXmlStore::OrderedXmlStore;
  virtual Status CreateTableAndIndexes() = 0;
  /// Restores per-store state when attaching to an existing table
  /// (e.g. the local encoding's id counter).
  virtual Status InitializeExisting() { return Status::OK(); }
};

/// Global order encoding: every node carries its absolute position in
/// document order (`ord`), the largest position in its subtree (`eord`,
/// making [ord, eord] the classic region interval) and its parent's
/// position (`pord`). Document-order comparison is a single integer
/// comparison; the descendant axis is one index range scan. The price is
/// paid on insertion: all following nodes must shift when the sparse
/// numbering runs out of room.
///
///   nodes(ord, eord, pord, depth, kind, tag, val)
///   indexes: (ord), (pord, ord), (tag, ord)
class GlobalStore : public StoreBase {
 public:
  GlobalStore(Database* db, StoreOptions options)
      : StoreBase(db, OrderEncoding::kGlobal, std::move(options)) {}

  Status CreateTableAndIndexes() override;
  Result<std::unique_ptr<XmlDocument>> ReconstructDocument() override;
  Result<std::unique_ptr<XmlNode>> ReconstructSubtree(
      const StoredNode& node) override;
  Result<StoredNode> Root() override;
  Result<std::vector<StoredNode>> Children(const StoredNode& node,
                                           const NodeTest& test,
                                           size_t limit = 0) override;
  Result<std::vector<StoredNode>> Descendants(const StoredNode& node,
                                              const NodeTest& test,
                                              size_t limit = 0) override;
  Result<std::vector<StoredNode>> FollowingSiblings(
      const StoredNode& node, const NodeTest& test,
      size_t limit = 0) override;
  Result<std::vector<StoredNode>> PrecedingSiblings(
      const StoredNode& node, const NodeTest& test) override;
  Result<std::vector<StoredNode>> Attributes(const StoredNode& node,
                                             std::string_view name) override;
  Result<std::vector<std::optional<std::string>>> AttributeValues(
      const std::vector<StoredNode>& owners, std::string_view name) override;
  Result<StoredNode> Parent(const StoredNode& node) override;
  Status SortDocumentOrder(std::vector<StoredNode>* nodes) override;
  Result<std::string> StringValue(const StoredNode& node) override;
  const char* NodeColumns() const override;
  StoredNode NodeFromRow(Row row) const override;
  Status Validate() override;
  Result<bool> IsDescendantOf(const StoredNode& node,
                              const StoredNode& ancestor) override;
  std::string KeyCondition(const StoredNode& node) const override;
  std::string KeyConditionP(const StoredNode& node,
                            Row* params) const override;

 protected:
  Result<UpdateStats> DoInsertSubtree(const StoredNode& ref,
                                      InsertPosition pos,
                                      const XmlNode& subtree) override;
  Result<UpdateStats> DoDeleteSubtree(const StoredNode& node) override;
  Status EmitUnitRows(const ShredUnit& unit, std::vector<Row>* rows) override;
  LoadKeyKind LoadKey() const override { return LoadKeyKind::kInt; }

 private:
  Result<StoredNode> SelectOne(const std::string& where, Row params);
  /// Shreds `node` assigning ordinals spaced by `step` starting after
  /// `*counter`; returns rows appended to `rows`.
  void ShredInto(const XmlNode& node, int64_t pord, int64_t depth,
                 int64_t step, int64_t* counter, std::vector<Row>* rows);
};

/// Local order encoding: every node carries a surrogate id, its parent's id
/// and its ordinal among its siblings. Inserting a node renumbers at most
/// its siblings — the cheapest updates of the three schemes — but
/// document-order comparison of arbitrary nodes requires reconstructing
/// ancestor ordinal paths, and the descendant axis needs one child-join per
/// level.
///
///   nodes(id, pid, sord, depth, kind, tag, val)
///   indexes: (id), (pid, sord), (tag)
class LocalStore : public StoreBase {
 public:
  LocalStore(Database* db, StoreOptions options)
      : StoreBase(db, OrderEncoding::kLocal, std::move(options)) {}

  Status CreateTableAndIndexes() override;
  Status InitializeExisting() override;
  Result<std::unique_ptr<XmlDocument>> ReconstructDocument() override;
  Result<std::unique_ptr<XmlNode>> ReconstructSubtree(
      const StoredNode& node) override;
  Result<StoredNode> Root() override;
  Result<std::vector<StoredNode>> Children(const StoredNode& node,
                                           const NodeTest& test,
                                           size_t limit = 0) override;
  Result<std::vector<StoredNode>> Descendants(const StoredNode& node,
                                              const NodeTest& test,
                                              size_t limit = 0) override;
  Result<std::vector<StoredNode>> FollowingSiblings(
      const StoredNode& node, const NodeTest& test,
      size_t limit = 0) override;
  Result<std::vector<StoredNode>> PrecedingSiblings(
      const StoredNode& node, const NodeTest& test) override;
  Result<std::vector<StoredNode>> Attributes(const StoredNode& node,
                                             std::string_view name) override;
  Result<std::vector<std::optional<std::string>>> AttributeValues(
      const std::vector<StoredNode>& owners, std::string_view name) override;
  Result<StoredNode> Parent(const StoredNode& node) override;
  Status SortDocumentOrder(std::vector<StoredNode>* nodes) override;
  Result<std::string> StringValue(const StoredNode& node) override;
  const char* NodeColumns() const override;
  StoredNode NodeFromRow(Row row) const override;
  Status Validate() override;
  Result<bool> IsDescendantOf(const StoredNode& node,
                              const StoredNode& ancestor) override;
  std::string KeyCondition(const StoredNode& node) const override;
  std::string KeyConditionP(const StoredNode& node,
                            Row* params) const override;

 protected:
  Result<UpdateStats> DoInsertSubtree(const StoredNode& ref,
                                      InsertPosition pos,
                                      const XmlNode& subtree) override;
  Result<UpdateStats> DoDeleteSubtree(const StoredNode& node) override;
  Status EmitUnitRows(const ShredUnit& unit, std::vector<Row>* rows) override;
  LoadKeyKind LoadKey() const override { return LoadKeyKind::kInt; }
  /// Ids were assigned as next_id_ + row_offset during the shred without
  /// touching the allocator; advance it now that the rows are in.
  void OnLoadComplete(uint64_t rows_loaded) override {
    next_id_ += static_cast<int64_t>(rows_loaded);
  }

 private:
  Result<StoredNode> SelectOne(const std::string& where, Row params);
  /// ReconstructSubtree over a node it may take the strings of: one
  /// `pid = ?` statement per element returns its attributes and then its
  /// children, since every attribute's sord precedes the first child's
  /// (Validate checks it).
  Result<std::unique_ptr<XmlNode>> Reconstruct(StoredNode node);
  /// Ordinal path from the root to `node` (ancestor sords), fetched by
  /// iterated parent lookups with memoization — the cost center of
  /// document-order sorting under local numbering.
  Result<std::vector<int64_t>> OrdinalPath(
      const StoredNode& node,
      std::unordered_map<int64_t, std::pair<int64_t, int64_t>>* cache);

  int64_t next_id_ = 1;
};

/// Dewey order encoding: every node's key is the byte-encoded path of
/// sibling ordinals from the root. Document order is byte order of the
/// key, ancestor/descendant is a prefix test, and an insert renumbers at
/// most the following siblings and their subtrees — the middle ground the
/// paper recommends.
///
///   nodes(path, depth, kind, tag, val)
///   indexes: (path), (tag, path), (depth, path)
class DeweyStore : public StoreBase {
 public:
  DeweyStore(Database* db, StoreOptions options)
      : StoreBase(db, OrderEncoding::kDewey, std::move(options)) {}

  Status CreateTableAndIndexes() override;
  Status InitializeExisting() override;
  Result<std::unique_ptr<XmlDocument>> ReconstructDocument() override;
  Result<std::unique_ptr<XmlNode>> ReconstructSubtree(
      const StoredNode& node) override;
  Result<StoredNode> Root() override;
  Result<std::vector<StoredNode>> Children(const StoredNode& node,
                                           const NodeTest& test,
                                           size_t limit = 0) override;
  Result<std::vector<StoredNode>> Descendants(const StoredNode& node,
                                              const NodeTest& test,
                                              size_t limit = 0) override;
  Result<std::vector<StoredNode>> FollowingSiblings(
      const StoredNode& node, const NodeTest& test,
      size_t limit = 0) override;
  Result<std::vector<StoredNode>> PrecedingSiblings(
      const StoredNode& node, const NodeTest& test) override;
  Result<std::vector<StoredNode>> Attributes(const StoredNode& node,
                                             std::string_view name) override;
  Result<std::vector<std::optional<std::string>>> AttributeValues(
      const std::vector<StoredNode>& owners, std::string_view name) override;
  Result<StoredNode> Parent(const StoredNode& node) override;
  Status SortDocumentOrder(std::vector<StoredNode>* nodes) override;
  Result<std::string> StringValue(const StoredNode& node) override;
  const char* NodeColumns() const override;
  StoredNode NodeFromRow(Row row) const override;
  Status Validate() override;
  Result<bool> IsDescendantOf(const StoredNode& node,
                              const StoredNode& ancestor) override;
  std::string KeyCondition(const StoredNode& node) const override;
  std::string KeyConditionP(const StoredNode& node,
                            Row* params) const override;

 protected:
  Result<UpdateStats> DoInsertSubtree(const StoredNode& ref,
                                      InsertPosition pos,
                                      const XmlNode& subtree) override;
  Result<UpdateStats> DoDeleteSubtree(const StoredNode& node) override;
  Status EmitUnitRows(const ShredUnit& unit, std::vector<Row>* rows) override;
  LoadKeyKind LoadKey() const override { return LoadKeyKind::kBlob; }

 private:
  Result<StoredNode> SelectOne(const std::string& where, Row params);
  void ShredInto(const XmlNode& node, const DeweyKey& key,
                 std::vector<Row>* rows);
};

}  // namespace oxml

#endif  // OXML_CORE_STORES_H_
