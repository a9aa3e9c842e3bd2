#include "src/core/parallel_shred.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>

#include "src/core/dewey.h"
#include "src/relational/query_control.h"
#include "src/relational/thread_pool.h"

namespace oxml {

namespace {

/// Subtrees below this many rows are never split further: the fan-out
/// bookkeeping would cost more than a worker shredding them outright.
constexpr uint64_t kMinUnitRows = 64;

/// One post-order pass memoizing every subtree's row count, so the
/// partitioner never recomputes XmlNode::SubtreeSize along the descent
/// (which would be quadratic on deep documents).
uint64_t ComputeSizes(const XmlNode& node,
                      std::unordered_map<const XmlNode*, uint64_t>* sizes) {
  uint64_t total = 1 + node.attributes().size();
  for (const auto& child : node.children()) {
    total += ComputeSizes(*child, sizes);
  }
  (*sizes)[&node] = total;
  return total;
}

struct PartitionCtx {
  int64_t gap;
  uint64_t budget;
  const std::unordered_map<const XmlNode*, uint64_t>* sizes;
  std::vector<ShredUnit>* out;
};

void EmitUnits(const PartitionCtx& ctx, const XmlNode& node,
               uint64_t row_offset, int64_t depth, int64_t parent_row_offset,
               int64_t sibling_comp, const DeweyKey& key) {
  const uint64_t rows = ctx.sizes->at(&node);
  ShredUnit unit;
  unit.node = &node;
  unit.row_offset = row_offset;
  unit.subtree_rows = rows;
  unit.depth = depth;
  unit.parent_row_offset = parent_row_offset;
  unit.sibling_comp = sibling_comp;
  unit.dewey_path = key.Encode();
  if (rows <= ctx.budget || node.children().empty()) {
    ctx.out->push_back(std::move(unit));
    return;
  }
  // Too large for one worker: emit the element + attributes as a header
  // unit and recurse per child, threading the running DFS row offset and
  // the shared attribute+child ordinal space through the descent.
  unit.whole_subtree = false;
  ctx.out->push_back(std::move(unit));
  uint64_t child_off = row_offset + 1 + node.attributes().size();
  int64_t comp = ctx.gap * static_cast<int64_t>(node.attributes().size());
  for (const auto& child : node.children()) {
    comp += ctx.gap;
    EmitUnits(ctx, *child, child_off, depth + 1,
              static_cast<int64_t>(row_offset), comp, key.Child(comp));
    child_off += ctx.sizes->at(child.get());
  }
}

/// Cheap per-row size estimate for run sealing (exact bytes don't matter;
/// run boundaries only affect merge width, never the merged order).
size_t ApproxRowBytes(const Row& row) {
  size_t bytes = 0;
  for (const Value& v : row) {
    bytes += 16;
    if (v.type() == TypeId::kText || v.type() == TypeId::kBlob) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

}  // namespace

std::vector<ShredUnit> PartitionDocument(const XmlDocument& doc, int64_t gap,
                                         size_t target_units) {
  std::vector<ShredUnit> units;
  std::unordered_map<const XmlNode*, uint64_t> sizes;
  uint64_t total = 0;
  for (const auto& top : doc.root()->children()) {
    total += ComputeSizes(*top, &sizes);
  }
  if (total == 0) return units;
  if (target_units == 0) target_units = 1;
  PartitionCtx ctx{gap, std::max<uint64_t>(total / target_units, kMinUnitRows),
                   &sizes, &units};
  uint64_t off = 0;
  int64_t comp = 0;
  for (const auto& top : doc.root()->children()) {
    comp += gap;
    EmitUnits(ctx, *top, off, 1, -1, comp, DeweyKey::Root(comp));
    off += sizes.at(top.get());
  }
  return units;
}

Result<std::vector<Row>> ParallelShredMerge(
    const std::vector<ShredUnit>& units, const ShredUnitEmitter& emit,
    LoadKeyKind key_kind, ThreadPool* pool, size_t run_bytes,
    uint64_t* runs_out, uint64_t* threads_out) {
  std::vector<std::vector<Row>> runs;
  std::mutex runs_mu;
  std::atomic<size_t> next_unit{0};
  std::atomic<uint64_t> workers_used{0};

  // Each worker claims increasing unit indices from the shared cursor, so
  // the rows it accumulates are strictly increasing in the load key (units
  // are listed in document order, and each unit's rows form a contiguous
  // slice of the document's key sequence). Sealing at run_bytes boundaries
  // preserves that: every pushed run is sorted by construction.
  auto worker = [&](size_t) -> Status {
    std::vector<Row> run;
    size_t bytes = 0;
    bool claimed = false;
    std::vector<Row> unit_rows;
    // Buffered runs are statement memory: charge them so a bulk load under
    // a budget fails with kResourceExhausted instead of thrashing.
    BudgetCharger budget;
    while (true) {
      size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) break;
      // Unit boundaries are the load pipeline's cancellation points.
      OXML_RETURN_NOT_OK(CheckCurrentControl());
      if (!claimed) {
        claimed = true;
        workers_used.fetch_add(1, std::memory_order_relaxed);
      }
      unit_rows.clear();
      OXML_RETURN_NOT_OK(emit(units[u], &unit_rows));
      for (Row& r : unit_rows) {
        size_t row_bytes = ApproxRowBytes(r);
        bytes += row_bytes;
        OXML_RETURN_NOT_OK(budget.Add(row_bytes));
        run.push_back(std::move(r));
      }
      if (bytes >= run_bytes && !run.empty()) {
        std::lock_guard<std::mutex> lock(runs_mu);
        runs.push_back(std::move(run));
        run.clear();
        bytes = 0;
      }
    }
    if (!run.empty()) {
      std::lock_guard<std::mutex> lock(runs_mu);
      runs.push_back(std::move(run));
    }
    return Status::OK();
  };
  if (pool != nullptr) {
    OXML_RETURN_NOT_OK(pool->ParallelFor(pool->size() + 1, worker));
  } else {
    OXML_RETURN_NOT_OK(worker(0));
  }

  if (runs_out != nullptr) *runs_out = runs.size();
  if (threads_out != nullptr) {
    *threads_out = workers_used.load(std::memory_order_relaxed);
  }
  if (runs.empty()) return std::vector<Row>{};
  if (runs.size() == 1) return std::move(runs.front());

  // K-way merge by load key. Keys are globally unique (one per row of one
  // document), so the merged order is deterministic no matter how rows
  // were distributed over runs.
  auto key_less = [key_kind](const Row& a, const Row& b) {
    if (key_kind == LoadKeyKind::kInt) return a[0].AsInt() < b[0].AsInt();
    return a[0].AsString() < b[0].AsString();
  };
  struct HeapItem {
    size_t run;
    size_t pos;
  };
  auto heap_after = [&](const HeapItem& x, const HeapItem& y) {
    return key_less(runs[y.run][y.pos], runs[x.run][x.pos]);
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_after)>
      heap(heap_after);
  size_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push(HeapItem{r, 0});
  }
  std::vector<Row> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    HeapItem item = heap.top();
    heap.pop();
    merged.push_back(std::move(runs[item.run][item.pos]));
    if (item.pos + 1 < runs[item.run].size()) {
      heap.push(HeapItem{item.run, item.pos + 1});
    }
  }
  return merged;
}

}  // namespace oxml
