// B+tree tests: unit cases plus a randomized differential test against
// std::multimap (the reference model).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/relational/btree.h"

namespace oxml {
namespace {

Rid MakeRid(uint32_t page, uint16_t slot = 0) { return Rid{page, slot}; }

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree;
  tree.Insert("banana", MakeRid(2));
  tree.Insert("apple", MakeRid(1));
  tree.Insert("cherry", MakeRid(3));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_TRUE(tree.Contains("apple"));
  EXPECT_TRUE(tree.Contains("banana"));
  EXPECT_FALSE(tree.Contains("durian"));

  auto it = tree.LowerBound("apple");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), "apple");
  EXPECT_EQ(it.rid().page_id, 1u);
}

TEST(BPlusTreeTest, IterationIsSorted) {
  BPlusTree tree;
  for (int i = 999; i >= 0; --i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%04d", i);
    tree.Insert(buf, MakeRid(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  int expected = 0;
  for (auto it = tree.Begin(); it.valid(); it.Next()) {
    EXPECT_EQ(it.rid().page_id, static_cast<uint32_t>(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 1000);
}

TEST(BPlusTreeTest, DuplicateKeysDistinctRids) {
  BPlusTree tree;
  tree.Insert("k", MakeRid(1));
  tree.Insert("k", MakeRid(2));
  tree.Insert("k", MakeRid(3));
  tree.Insert("k", MakeRid(2));  // exact duplicate ignored
  EXPECT_EQ(tree.size(), 3u);

  int count = 0;
  for (auto it = tree.LowerBound("k"); it.valid() && it.key() == "k";
       it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(BPlusTreeTest, EraseExactEntry) {
  BPlusTree tree;
  tree.Insert("k", MakeRid(1));
  tree.Insert("k", MakeRid(2));
  EXPECT_TRUE(tree.Erase("k", MakeRid(1)));
  EXPECT_FALSE(tree.Erase("k", MakeRid(1)));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains("k"));
  EXPECT_TRUE(tree.Erase("k", MakeRid(2)));
  EXPECT_FALSE(tree.Contains("k"));
}

TEST(BPlusTreeTest, LowerAndUpperBound) {
  BPlusTree tree;
  tree.Insert("b", MakeRid(1));
  tree.Insert("d", MakeRid(2));
  tree.Insert("d", MakeRid(3));
  tree.Insert("f", MakeRid(4));

  auto it = tree.LowerBound("c");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), "d");

  it = tree.UpperBound("d");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), "f");

  it = tree.LowerBound("z");
  EXPECT_FALSE(it.valid());

  it = tree.UpperBound("f");
  EXPECT_FALSE(it.valid());
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().valid());
  EXPECT_FALSE(tree.LowerBound("x").valid());
  EXPECT_FALSE(tree.Erase("x", MakeRid(1)));
}

TEST(BPlusTreeTest, BinaryKeysWithEmbeddedNuls) {
  BPlusTree tree;
  std::string k1("a\0b", 3);
  std::string k2("a\0c", 3);
  std::string k3("a", 1);
  tree.Insert(k1, MakeRid(1));
  tree.Insert(k2, MakeRid(2));
  tree.Insert(k3, MakeRid(3));
  auto it = tree.Begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), k3);  // "a" < "a\0b" < "a\0c"
  it.Next();
  EXPECT_EQ(it.key(), k1);
  it.Next();
  EXPECT_EQ(it.key(), k2);
}

/// Differential test: random interleaved inserts/erases/range-scans checked
/// against std::multimap.
TEST(BPlusTreeTest, RandomizedDifferentialAgainstMultimap) {
  BPlusTree tree;
  std::multimap<std::pair<std::string, Rid>, bool> model;
  Random rng(4242);

  auto random_key = [&rng]() {
    return rng.Word(1, 6);
  };

  for (int op = 0; op < 20000; ++op) {
    double dice = rng.NextDouble();
    std::string key = random_key();
    Rid rid = MakeRid(static_cast<uint32_t>(rng.Uniform(0, 50)),
                      static_cast<uint16_t>(rng.Uniform(0, 3)));
    if (dice < 0.6) {
      tree.Insert(key, rid);
      if (model.find({key, rid}) == model.end()) {
        model.emplace(std::make_pair(key, rid), true);
      }
    } else if (dice < 0.85) {
      bool tree_erased = tree.Erase(key, rid);
      auto it = model.find({key, rid});
      bool model_erased = it != model.end();
      if (model_erased) model.erase(it);
      ASSERT_EQ(tree_erased, model_erased) << "op " << op;
    } else {
      // Range scan from a random key: sequences must match.
      auto tree_it = tree.LowerBound(key);
      auto model_it = model.lower_bound({key, Rid{0, 0}});
      int steps = 0;
      while (steps < 20 && tree_it.valid() && model_it != model.end()) {
        ASSERT_EQ(tree_it.key(), model_it->first.first) << "op " << op;
        ASSERT_EQ(tree_it.rid(), model_it->first.second) << "op " << op;
        tree_it.Next();
        ++model_it;
        ++steps;
      }
      if (steps < 20) {
        ASSERT_EQ(tree_it.valid(), model_it != model.end()) << "op " << op;
      }
    }
    ASSERT_EQ(tree.size(), model.size()) << "op " << op;
  }

  // Final full iteration must equal the model.
  auto it = tree.Begin();
  for (const auto& [entry, _] : model) {
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), entry.first);
    EXPECT_EQ(it.rid(), entry.second);
    it.Next();
  }
  EXPECT_FALSE(it.valid());
}

/// Entries per leaf, in leaf-chain order, for a tree whose keys are all
/// distinct: SplitKeys with more shards than leaves names the first key
/// of every leaf but the first.
std::vector<size_t> LeafSizes(const BPlusTree& tree) {
  std::vector<std::string> firsts = tree.SplitKeys(tree.size() + 2);
  std::vector<size_t> sizes(1, 0);
  size_t next = 0;
  for (auto it = tree.Begin(); it.valid(); it.Next()) {
    if (next < firsts.size() && it.key() == firsts[next]) {
      sizes.push_back(0);
      ++next;
    }
    ++sizes.back();
  }
  return sizes;
}

// An ascending load appends to the rightmost leaf; its splits keep the
// left leaf full instead of cutting it in half.
TEST(BPlusTreeTest, AscendingInsertsLeaveFullLeaves) {
  constexpr size_t kCap = BPlusTree::kNodeCapacity;
  BPlusTree tree;
  char buf[16];
  size_t n = 0;
  auto append = [&](size_t count) {
    for (size_t i = 0; i < count; ++i, ++n) {
      std::snprintf(buf, sizeof(buf), "%08zu", n);
      tree.Insert(buf, MakeRid(static_cast<uint32_t>(n)));
    }
  };

  // A whole number of leaves: the last one is full too.
  append(kCap * 40);
  auto info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->leaves, 40u);
  EXPECT_GE(info->min_leaf_entries, kCap - 1);
  EXPECT_GE(tree.height(), 2u);

  // A partial last leaf: every leaf before it stays full.
  append(kCap / 3);
  info = tree.CheckStructure();
  ASSERT_TRUE(info.ok()) << info.status();
  std::vector<size_t> sizes = LeafSizes(tree);
  ASSERT_EQ(sizes.size(), info->leaves);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], kCap - 1) << "leaf " << i;
  }
  EXPECT_EQ(sizes.back(), kCap / 3);

  // Equal keys with ascending rids are an ascending load as well.
  BPlusTree dups;
  for (uint32_t i = 0; i < kCap * 10; ++i) dups.Insert("k", MakeRid(i));
  auto dinfo = dups.CheckStructure();
  ASSERT_TRUE(dinfo.ok()) << dinfo.status();
  EXPECT_EQ(dinfo->leaves, 10u);
  EXPECT_GE(dinfo->min_leaf_entries, kCap - 1);
}

/// Seeded mix of ascending appends (past the current maximum), random
/// keys, duplicate keys and erases, checked against std::multiset. The
/// structure audit runs after every insert, so it sees every split, on
/// both sides of the append rule.
TEST(BPlusTreeTest, MixedLoadMatchesMultisetAcrossSplits) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    BPlusTree tree;
    std::multiset<std::pair<std::string, Rid>> model;
    std::vector<std::string> keys;
    Random rng(seed);
    uint32_t next_rid = 0;
    int ascending = 0;
    char buf[16];
    for (int op = 0; op < 2500; ++op) {
      double dice = rng.NextDouble();
      std::string key;
      if (dice < 0.7) {
        if (dice < 0.35) {
          std::snprintf(buf, sizeof(buf), "~%08d", ascending++);
          key = buf;
        } else if (dice < 0.55 || keys.empty()) {
          key = rng.Word(1, 5);
        } else {
          key = keys[rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1)];
        }
        Rid rid = MakeRid(next_rid++);
        tree.Insert(key, rid);
        model.emplace(key, rid);
        keys.push_back(key);
        auto info = tree.CheckStructure();
        ASSERT_TRUE(info.ok()) << "seed " << seed << " op " << op << ": "
                               << info.status();
      } else if (!model.empty()) {
        auto victim = model.begin();
        std::advance(victim,
                     rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
        ASSERT_TRUE(tree.Erase(victim->first, victim->second))
            << "seed " << seed << " op " << op;
        model.erase(victim);
      }
      ASSERT_EQ(tree.size(), model.size()) << "seed " << seed << " op " << op;
    }
    auto it = tree.Begin();
    for (const auto& [key, rid] : model) {
      ASSERT_TRUE(it.valid()) << "seed " << seed;
      EXPECT_EQ(it.key(), key);
      EXPECT_EQ(it.rid(), rid);
      it.Next();
    }
    EXPECT_FALSE(it.valid()) << "seed " << seed;
    auto info = tree.CheckStructure();
    ASSERT_TRUE(info.ok()) << info.status();
  }
}

TEST(BPlusTreeTest, KeyBytesAccounting) {
  BPlusTree tree;
  tree.Insert("abc", MakeRid(1));
  tree.Insert("de", MakeRid(2));
  EXPECT_EQ(tree.key_bytes(), 5u);
  tree.Erase("abc", MakeRid(1));
  EXPECT_EQ(tree.key_bytes(), 2u);
}

}  // namespace
}  // namespace oxml
