#include "src/relational/query_control.h"

namespace oxml {

QueryControl::~QueryControl() {
  // Statement teardown releases the whole reservation in one step, so
  // error paths that skip operator Close() can never leak global budget.
  if (global_budget_ != nullptr) {
    global_budget_->Release(statement_used_.load(std::memory_order_relaxed));
  }
}

Status QueryControl::ChargeMemory(uint64_t bytes) {
  uint64_t now =
      statement_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (statement_cap_ != 0 && now > statement_cap_) {
    statement_used_.fetch_sub(bytes, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "statement memory budget exceeded (" + std::to_string(now) + " > " +
        std::to_string(statement_cap_) + " bytes)");
  }
  if (global_budget_ != nullptr && !global_budget_->TryCharge(bytes)) {
    statement_used_.fetch_sub(bytes, std::memory_order_relaxed);
    return Status::ResourceExhausted("global memory budget exceeded");
  }
  return Status::OK();
}

void QueryControl::ReleaseMemory(uint64_t bytes) {
  statement_used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (global_budget_ != nullptr) global_budget_->Release(bytes);
}

uint64_t EstimateRowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    bytes += 16;
    if (v.type() == TypeId::kText || v.type() == TypeId::kBlob) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

}  // namespace oxml
