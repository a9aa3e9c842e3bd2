#include "src/relational/btree.h"

#include <algorithm>
#include <cassert>

namespace oxml {

namespace {

/// Total order on (key, rid) entry pairs.
int CompareEntry(std::string_view ak, const Rid& ar, std::string_view bk,
                 const Rid& br) {
  int c = ak.compare(bk);
  if (c != 0) return c < 0 ? -1 : 1;
  if (ar < br) return -1;
  if (br < ar) return 1;
  return 0;
}

constexpr Rid kMinRid{0, 0};
constexpr Rid kMaxRid{0xFFFFFFFFu, 0xFFFFu};

}  // namespace

struct BPlusTree::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  bool is_leaf;
};

struct BPlusTree::Leaf : BPlusTree::Node {
  Leaf() : Node(true) {}
  std::vector<std::string> keys;
  std::vector<Rid> rids;
  Leaf* next = nullptr;
};

struct BPlusTree::Internal : BPlusTree::Node {
  Internal() : Node(false) {}
  // children[i] holds entries with composite < (keys[i], seprids[i]);
  // children.back() holds the rest.
  std::vector<std::string> keys;
  std::vector<Rid> seprids;
  std::vector<Node*> children;
};

namespace {

void FreeNode(BPlusTree::Node* n) {
  if (n == nullptr) return;
  if (!n->is_leaf) {
    auto* in = static_cast<BPlusTree::Internal*>(n);
    for (BPlusTree::Node* c : in->children) FreeNode(c);
    delete in;
  } else {
    delete static_cast<BPlusTree::Leaf*>(n);
  }
}

/// Index of the child to descend into for composite (key, rid).
size_t ChildIndex(const BPlusTree::Internal& in, std::string_view key,
                  const Rid& rid) {
  size_t lo = 0;
  size_t hi = in.keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    // Descend left of separator mid iff composite < separator.
    if (CompareEntry(key, rid, in.keys[mid], in.seprids[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// First position in the leaf with composite >= (key, rid).
size_t LeafLowerBound(const BPlusTree::Leaf& leaf, std::string_view key,
                      const Rid& rid) {
  size_t lo = 0;
  size_t hi = leaf.keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareEntry(leaf.keys[mid], leaf.rids[mid], key, rid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

struct SplitResult {
  std::string sep_key;
  Rid sep_rid;
  BPlusTree::Node* right = nullptr;
};

}  // namespace

BPlusTree::BPlusTree() { root_ = new Leaf(); }

BPlusTree::~BPlusTree() { FreeNode(root_); }

namespace {

/// Recursive insert; fills `split` when the child node split.
/// Returns false when the exact (key, rid) entry already existed.
bool InsertRec(BPlusTree::Node* node, std::string_view key, const Rid& rid,
               SplitResult* split) {
  if (node->is_leaf) {
    auto* leaf = static_cast<BPlusTree::Leaf*>(node);
    size_t pos = LeafLowerBound(*leaf, key, rid);
    if (pos < leaf->keys.size() &&
        CompareEntry(leaf->keys[pos], leaf->rids[pos], key, rid) == 0) {
      return false;  // duplicate entry
    }
    leaf->keys.insert(leaf->keys.begin() + pos, std::string(key));
    leaf->rids.insert(leaf->rids.begin() + pos, rid);
    if (leaf->keys.size() > BPlusTree::kNodeCapacity) {
      auto* right = new BPlusTree::Leaf();
      // An append past the last entry of the rightmost leaf is what an
      // ascending load looks like: keep the left leaf full and start the
      // right one with the new entry. A midpoint split there would leave
      // every leaf of the load half empty for good.
      bool append = leaf->next == nullptr && pos + 1 == leaf->keys.size();
      size_t cut = append ? BPlusTree::kNodeCapacity : leaf->keys.size() / 2;
      right->keys.assign(leaf->keys.begin() + cut, leaf->keys.end());
      right->rids.assign(leaf->rids.begin() + cut, leaf->rids.end());
      leaf->keys.resize(cut);
      leaf->rids.resize(cut);
      // The insert that overflowed the leaf doubled its vectors' capacity.
      leaf->keys.shrink_to_fit();
      leaf->rids.shrink_to_fit();
      right->next = leaf->next;
      leaf->next = right;
      split->sep_key = right->keys.front();
      split->sep_rid = right->rids.front();
      split->right = right;
    }
    return true;
  }
  auto* in = static_cast<BPlusTree::Internal*>(node);
  size_t idx = ChildIndex(*in, key, rid);
  SplitResult child_split;
  bool inserted = InsertRec(in->children[idx], key, rid, &child_split);
  if (child_split.right != nullptr) {
    in->keys.insert(in->keys.begin() + idx, std::move(child_split.sep_key));
    in->seprids.insert(in->seprids.begin() + idx, child_split.sep_rid);
    in->children.insert(in->children.begin() + idx + 1, child_split.right);
    if (in->keys.size() > BPlusTree::kNodeCapacity) {
      auto* right = new BPlusTree::Internal();
      size_t mid = in->keys.size() / 2;  // separator promoted to the parent
      split->sep_key = in->keys[mid];
      split->sep_rid = in->seprids[mid];
      right->keys.assign(in->keys.begin() + mid + 1, in->keys.end());
      right->seprids.assign(in->seprids.begin() + mid + 1, in->seprids.end());
      right->children.assign(in->children.begin() + mid + 1,
                             in->children.end());
      in->keys.resize(mid);
      in->seprids.resize(mid);
      in->children.resize(mid + 1);
      split->right = right;
    }
  }
  return inserted;
}

}  // namespace

void BPlusTree::Insert(std::string_view key, const Rid& rid) {
  SplitResult split;
  bool inserted = InsertRec(root_, key, rid, &split);
  if (split.right != nullptr) {
    auto* new_root = new Internal();
    new_root->keys.push_back(std::move(split.sep_key));
    new_root->seprids.push_back(split.sep_rid);
    new_root->children.push_back(root_);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  if (inserted) {
    ++size_;
    key_bytes_ += key.size();
  }
}

Status BPlusTree::BulkBuild(std::vector<Entry>&& entries) {
  if (size_ != 0 || !root_->is_leaf ||
      !static_cast<Leaf*>(root_)->keys.empty()) {
    return Status::InvalidArgument("BulkBuild requires an empty tree");
  }
  for (size_t i = 1; i < entries.size(); ++i) {
    if (CompareEntry(entries[i - 1].first, entries[i - 1].second,
                     entries[i].first, entries[i].second) >= 0) {
      return Status::InvalidArgument(
          "BulkBuild requires strictly sorted (key, rid) entries");
    }
  }
  if (entries.empty()) return Status::OK();

  // Pack leaves at ~3/4 fill so post-load inserts have headroom. Entries
  // are spread evenly across ceil(n / fill) leaves, which keeps every leaf
  // at >= fill/2 entries (no underfull tail leaf).
  constexpr size_t kFill = kNodeCapacity * 3 / 4;
  const size_t n = entries.size();
  size_t key_bytes = 0;
  const size_t num_leaves = (n + kFill - 1) / kFill;
  const size_t base = n / num_leaves;
  const size_t extra = n % num_leaves;

  // Each level is built as (node, first entry of its subtree); the first
  // entries of nodes 1.. become the parent's separators.
  struct Item {
    Node* node;
    const std::string* first_key;
    const Rid* first_rid;
  };
  std::vector<Item> level;
  level.reserve(num_leaves);
  Leaf* prev = nullptr;
  size_t next_entry = 0;
  for (size_t i = 0; i < num_leaves; ++i) {
    auto* leaf = new Leaf();
    const size_t take = base + (i < extra ? 1 : 0);
    leaf->keys.reserve(take);
    leaf->rids.reserve(take);
    for (size_t j = 0; j < take; ++j) {
      key_bytes += entries[next_entry].first.size();
      leaf->keys.push_back(std::move(entries[next_entry].first));
      leaf->rids.push_back(entries[next_entry].second);
      ++next_entry;
    }
    if (prev != nullptr) prev->next = leaf;
    prev = leaf;
    level.push_back(Item{leaf, &leaf->keys.front(), &leaf->rids.front()});
  }
  assert(next_entry == n);

  // Stack internal levels until a single root remains; same even spread,
  // aiming for ~3/4 of the max fanout per internal node.
  constexpr size_t kFanout = (kNodeCapacity + 1) * 3 / 4;
  size_t levels = 1;
  while (level.size() > 1) {
    const size_t num_nodes = (level.size() + kFanout - 1) / kFanout;
    const size_t nbase = level.size() / num_nodes;
    const size_t nextra = level.size() % num_nodes;
    std::vector<Item> up;
    up.reserve(num_nodes);
    size_t child = 0;
    for (size_t i = 0; i < num_nodes; ++i) {
      auto* in = new Internal();
      const size_t take = nbase + (i < nextra ? 1 : 0);
      in->children.reserve(take);
      for (size_t j = 0; j < take; ++j) {
        const Item& it = level[child++];
        if (j > 0) {
          // Separator = first entry of the right sibling's subtree, so
          // ChildIndex's "composite < separator goes left" matches the
          // actual partition exactly.
          in->keys.push_back(*it.first_key);
          in->seprids.push_back(*it.first_rid);
        }
        in->children.push_back(it.node);
      }
      // The subtree's first entry is its leftmost child's first entry.
      up.push_back(Item{in, level[child - take].first_key,
                        level[child - take].first_rid});
    }
    level = std::move(up);
    ++levels;
  }

  FreeNode(root_);  // the initial empty leaf
  root_ = level.front().node;
  size_ = n;
  height_ = levels;
  key_bytes_ = key_bytes;
  return Status::OK();
}

namespace {

/// Shared cursor for the CheckStructure() walk.
struct AuditState {
  const BPlusTree::Leaf* prev_leaf = nullptr;
  const std::string* last_key = nullptr;
  const Rid* last_rid = nullptr;
  size_t entries = 0;
  size_t bytes = 0;
  bool saw_leaf = false;
  BPlusTree::StructureInfo info;
};

/// Depth-first audit. `lo`/`hi` are the separator bounds inherited from
/// ancestors (null = unbounded); entries must be in [lo, hi).
Status AuditNode(const BPlusTree::Node* node, size_t depth,
                 const std::string* lo_key, const Rid* lo_rid,
                 const std::string* hi_key, const Rid* hi_rid,
                 AuditState* st) {
  if (node->is_leaf) {
    const auto* leaf = static_cast<const BPlusTree::Leaf*>(node);
    if (!st->saw_leaf) {
      st->info.depth = depth;
      st->info.min_leaf_entries = leaf->keys.size();
      st->info.max_leaf_entries = leaf->keys.size();
      st->saw_leaf = true;
    } else {
      if (depth != st->info.depth) {
        return Status::Internal("leaves at differing depths");
      }
      st->info.min_leaf_entries =
          std::min(st->info.min_leaf_entries, leaf->keys.size());
      st->info.max_leaf_entries =
          std::max(st->info.max_leaf_entries, leaf->keys.size());
    }
    if (st->prev_leaf != nullptr && st->prev_leaf->next != leaf) {
      return Status::Internal("leaf chain does not match tree order");
    }
    st->prev_leaf = leaf;
    ++st->info.leaves;
    if (leaf->keys.size() != leaf->rids.size()) {
      return Status::Internal("leaf keys/rids length mismatch");
    }
    if (leaf->keys.size() > BPlusTree::kNodeCapacity) {
      return Status::Internal("leaf over capacity");
    }
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      const std::string& k = leaf->keys[i];
      const Rid& r = leaf->rids[i];
      if (st->last_key != nullptr &&
          CompareEntry(*st->last_key, *st->last_rid, k, r) >= 0) {
        return Status::Internal("entries not strictly increasing");
      }
      if (lo_key != nullptr && CompareEntry(k, r, *lo_key, *lo_rid) < 0) {
        return Status::Internal("entry below ancestor separator");
      }
      if (hi_key != nullptr && CompareEntry(k, r, *hi_key, *hi_rid) >= 0) {
        return Status::Internal("entry not below ancestor separator");
      }
      st->last_key = &k;
      st->last_rid = &r;
      ++st->entries;
      st->bytes += k.size();
    }
    return Status::OK();
  }
  const auto* in = static_cast<const BPlusTree::Internal*>(node);
  if (in->keys.empty() || in->seprids.size() != in->keys.size() ||
      in->children.size() != in->keys.size() + 1) {
    return Status::Internal("internal node shape invalid");
  }
  if (in->keys.size() > BPlusTree::kNodeCapacity) {
    return Status::Internal("internal node over capacity");
  }
  for (size_t i = 0; i <= in->keys.size(); ++i) {
    const std::string* clo_key = i == 0 ? lo_key : &in->keys[i - 1];
    const Rid* clo_rid = i == 0 ? lo_rid : &in->seprids[i - 1];
    const std::string* chi_key = i == in->keys.size() ? hi_key : &in->keys[i];
    const Rid* chi_rid = i == in->keys.size() ? hi_rid : &in->seprids[i];
    if (clo_key != nullptr && chi_key != nullptr &&
        CompareEntry(*clo_key, *clo_rid, *chi_key, *chi_rid) >= 0) {
      return Status::Internal("separators not strictly increasing");
    }
    OXML_RETURN_NOT_OK(
        AuditNode(in->children[i], depth + 1, clo_key, clo_rid, chi_key,
                  chi_rid, st));
  }
  return Status::OK();
}

}  // namespace

Result<BPlusTree::StructureInfo> BPlusTree::CheckStructure() const {
  AuditState st;
  OXML_RETURN_NOT_OK(AuditNode(root_, 1, nullptr, nullptr, nullptr, nullptr,
                               &st));
  if (st.prev_leaf != nullptr && st.prev_leaf->next != nullptr) {
    return Status::Internal("leaf chain extends past last tree leaf");
  }
  if (st.entries != size_) {
    return Status::Internal("size() does not match stored entries");
  }
  if (st.bytes != key_bytes_) {
    return Status::Internal("key_bytes() does not match stored keys");
  }
  return st.info;
}

bool BPlusTree::Erase(std::string_view key, const Rid& rid) {
  Node* node = root_;
  while (!node->is_leaf) {
    auto* in = static_cast<Internal*>(node);
    node = in->children[ChildIndex(*in, key, rid)];
  }
  auto* leaf = static_cast<Leaf*>(node);
  size_t pos = LeafLowerBound(*leaf, key, rid);
  if (pos >= leaf->keys.size() ||
      CompareEntry(leaf->keys[pos], leaf->rids[pos], key, rid) != 0) {
    return false;
  }
  leaf->keys.erase(leaf->keys.begin() + pos);
  leaf->rids.erase(leaf->rids.begin() + pos);
  --size_;
  key_bytes_ -= key.size();
  // No rebalancing: underfull/empty leaves are tolerated and skipped by
  // iterators; acceptable for the insert/scan-heavy workloads here.
  return true;
}

bool BPlusTree::Contains(std::string_view key) const {
  Iterator it = LowerBound(key);
  return it.valid() && it.key() == key;
}

BPlusTree::Iterator BPlusTree::LowerBound(std::string_view key) const {
  const Node* node = root_;
  while (!node->is_leaf) {
    const auto* in = static_cast<const Internal*>(node);
    node = in->children[ChildIndex(*in, key, kMinRid)];
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  size_t pos = LeafLowerBound(*leaf, key, kMinRid);
  Iterator it(leaf, pos);
  if (pos >= leaf->keys.size()) it.Next();  // normalizes past-the-end/empty
  return it;
}

BPlusTree::Iterator BPlusTree::UpperBound(std::string_view key) const {
  const Node* node = root_;
  while (!node->is_leaf) {
    const auto* in = static_cast<const Internal*>(node);
    node = in->children[ChildIndex(*in, key, kMaxRid)];
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  size_t pos = LeafLowerBound(*leaf, key, kMaxRid);
  // Skip any remaining exact matches (kMaxRid may itself be a stored rid in
  // theory; treat bound as exclusive of all entries with this key).
  Iterator it(leaf, pos);
  if (pos >= leaf->keys.size()) it.Next();
  while (it.valid() && it.key() == key) it.Next();
  return it;
}

std::vector<std::string> BPlusTree::SplitKeys(size_t shards) const {
  std::vector<std::string> seps;
  if (shards < 2 || size_ == 0) return seps;
  // One walk down the leftmost spine plus one leaf-chain traversal: collect
  // the first key of every non-empty leaf, then pick evenly spaced ones.
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const Internal*>(node)->children.front();
  }
  std::vector<const std::string*> firsts;
  for (const auto* l = static_cast<const Leaf*>(node); l != nullptr;
       l = l->next) {
    if (!l->keys.empty()) firsts.push_back(&l->keys.front());
  }
  if (firsts.size() < 2) return seps;
  size_t parts = std::min(shards, firsts.size());
  for (size_t i = 1; i < parts; ++i) {
    seps.push_back(*firsts[i * firsts.size() / parts]);
  }
  // Duplicate keys can straddle a leaf boundary; collapse equal separators
  // so every range is non-empty.
  seps.erase(std::unique(seps.begin(), seps.end()), seps.end());
  return seps;
}

BPlusTree::Iterator BPlusTree::Begin() const {
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const Internal*>(node)->children.front();
  }
  const auto* leaf = static_cast<const Leaf*>(node);
  Iterator it(leaf, 0);
  if (leaf->keys.empty()) it.Next();
  return it;
}

bool BPlusTree::Iterator::valid() const {
  return leaf_ != nullptr && pos_ < leaf_->keys.size();
}

const std::string& BPlusTree::Iterator::key() const {
  assert(valid());
  return leaf_->keys[pos_];
}

const Rid& BPlusTree::Iterator::rid() const {
  assert(valid());
  return leaf_->rids[pos_];
}

void BPlusTree::Iterator::Next() {
  if (leaf_ == nullptr) return;
  if (pos_ + 1 < leaf_->keys.size()) {
    ++pos_;
    return;
  }
  // Move to the next non-empty leaf.
  const Leaf* l = leaf_->next;
  while (l != nullptr && l->keys.empty()) l = l->next;
  leaf_ = l;
  pos_ = 0;
}

}  // namespace oxml
