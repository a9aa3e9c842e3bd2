#include "src/relational/statement_context.h"

namespace oxml {

namespace {
thread_local StatementContext tl_statement_context;
}  // namespace

const StatementContext& CurrentStatementContext() {
  return tl_statement_context;
}

ScopedStatementContext::ScopedStatementContext(const StatementContext& ctx)
    : prev_(tl_statement_context) {
  tl_statement_context = ctx;
}

ScopedStatementContext::~ScopedStatementContext() {
  tl_statement_context = prev_;
}

void ScopedStatementContext::set_snapshot_lsn(uint64_t lsn) {
  tl_statement_context.snapshot_lsn = lsn;
}

}  // namespace oxml
