// Experiment E8 — statement-compilation overhead on the ordered-XML hot
// paths. Measures the same point query executed (a) ad-hoc with literal
// predicates (fresh SQL text per probe, so the plan cache never hits),
// (b) through one prepared statement with rebound parameters, and the same
// row load executed (c) row-at-a-time ad-hoc vs (d) as a prepared batch.
//
// Expected shape: prepared execution amortizes the lexer/parser/planner to
// one compilation per statement shape, so repeated point probes should run
// at a small multiple of raw index-scan cost; the ad-hoc variant pays
// parse + plan on every probe.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace oxml {
namespace bench {
namespace {

StoreFixture& FixtureFor(OrderEncoding enc) {
  static auto* fixtures = new std::map<OrderEncoding, StoreFixture>();
  auto it = fixtures->find(enc);
  if (it == fixtures->end()) {
    auto doc = NewsDoc(static_cast<int>(SmokeScaled(100, 30)),
                       static_cast<int>(SmokeScaled(10, 5)));
    it = fixtures->emplace(enc, MakeLoadedStore(enc, *doc)).first;
  }
  return it->second;
}

/// Point-probe predicates per encoding: an equality on the order-key
/// column, the shape every axis step and key lookup issues. Keys are real
/// order keys read back from the loaded store (integers for Global/Local,
/// Dewey path blobs for Dewey), cycled so the literal variant generates
/// far more distinct SQL texts than the 128-entry plan cache holds.
struct Probe {
  std::string column;
  std::vector<Value> binds;     // values for the prepared variant
  std::vector<std::string> lits;  // rendered literals for the ad-hoc variant
};

Probe& ProbeFor(StoreFixture& f) {
  static auto* probes = new std::map<OrderEncoding, Probe>();
  auto it = probes->find(f.store->encoding());
  if (it != probes->end()) return it->second;

  Probe p;
  switch (f.store->encoding()) {
    case OrderEncoding::kGlobal:
      p.column = "ord";
      break;
    case OrderEncoding::kLocal:
      p.column = "id";
      break;
    case OrderEncoding::kDewey:
      p.column = "path";
      break;
  }
  auto rs = f.db->Query("SELECT " + p.column + " FROM " +
                        f.store->table_name());
  OXML_BENCH_OK(rs);
  for (const Row& row : rs->rows) {
    const Value& v = row[0];
    if (v.type() == TypeId::kBlob) {
      p.lits.push_back(BlobLit(v.AsString()));
    } else {
      p.lits.push_back(std::to_string(v.AsInt()));
    }
    p.binds.push_back(v);
  }
  OXML_BENCH_CHECK(p.binds.size() >
                   static_cast<size_t>(SmokeScaled(1000, 100)));
  return probes->emplace(f.store->encoding(), std::move(p)).first->second;
}

void BM_PointQueryAdHoc(benchmark::State& state) {
  StoreFixture& f = FixtureFor(EncodingFromIndex(state.range(0)));
  Probe& p = ProbeFor(f);
  size_t key = 0;
  size_t hits = 0;
  for (auto _ : state) {
    // Literal predicate: a distinct SQL text per key, every probe pays a
    // fresh parse + plan.
    auto rs = f.db->Query("SELECT kind FROM " + f.store->table_name() +
                          " WHERE " + p.column + " = " + p.lits[key]);
    OXML_BENCH_OK(rs);
    hits += rs->rows.size();
    benchmark::DoNotOptimize(rs->rows);
    key = (key + 1) % p.lits.size();
  }
  OXML_BENCH_CHECK(hits >= static_cast<size_t>(state.iterations()));
  ReportExecStats(state, f.db.get());
  state.SetLabel(std::string(OrderEncodingToString(f.store->encoding())) +
                 "/adhoc");
}

void BM_PointQueryPrepared(benchmark::State& state) {
  StoreFixture& f = FixtureFor(EncodingFromIndex(state.range(0)));
  Probe& p = ProbeFor(f);
  auto ps = f.db->Prepare("SELECT kind FROM " + f.store->table_name() +
                          " WHERE " + p.column + " = ?");
  OXML_BENCH_OK(ps);
  size_t key = 0;
  size_t hits = 0;
  for (auto _ : state) {
    OXML_BENCH_CHECK(ps->Bind(0, p.binds[key]).ok());
    auto rs = ps->Query();
    OXML_BENCH_OK(rs);
    hits += rs->rows.size();
    benchmark::DoNotOptimize(rs->rows);
    key = (key + 1) % p.binds.size();
  }
  OXML_BENCH_CHECK(hits >= static_cast<size_t>(state.iterations()));
  ReportExecStats(state, f.db.get());
  state.SetLabel(std::string(OrderEncodingToString(f.store->encoding())) +
                 "/prepared");
}

int BatchRows() { return static_cast<int>(SmokeScaled(256, 32)); }

void BM_InsertRowAtATimeAdHoc(benchmark::State& state) {
  const int kBatchRows = BatchRows();
  for (auto _ : state) {
    state.PauseTiming();
    auto dbr = Database::Open();
    OXML_BENCH_CHECK(dbr.ok());
    auto db = std::move(dbr).value();
    OXML_BENCH_OK(db->Execute("CREATE TABLE load (id INT, val TEXT)"));
    state.ResumeTiming();
    for (int i = 0; i < kBatchRows; ++i) {
      // Distinct literal text per row: worst-case compilation overhead.
      OXML_BENCH_OK(db->Execute("INSERT INTO load VALUES (" +
                                std::to_string(i) + ", 'row" +
                                std::to_string(i) + "')"));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.SetLabel("adhoc");
}

void BM_InsertPreparedBatch(benchmark::State& state) {
  const int kBatchRows = BatchRows();
  std::vector<Row> rows;
  rows.reserve(kBatchRows);
  for (int i = 0; i < kBatchRows; ++i) {
    rows.push_back(
        Row{Value::Int(i), Value::Text("row" + std::to_string(i))});
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto dbr = Database::Open();
    OXML_BENCH_CHECK(dbr.ok());
    auto db = std::move(dbr).value();
    OXML_BENCH_OK(db->Execute("CREATE TABLE load (id INT, val TEXT)"));
    state.ResumeTiming();
    auto ps = db->Prepare("INSERT INTO load VALUES (?, ?)");
    OXML_BENCH_OK(ps);
    auto n = ps->ExecuteBatch(rows);
    OXML_BENCH_OK(n);
    OXML_BENCH_CHECK(*n == kBatchRows);
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.SetLabel("prepared_batch");
}

}  // namespace
}  // namespace bench
}  // namespace oxml

BENCHMARK(oxml::bench::BM_PointQueryAdHoc)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(oxml::bench::BM_PointQueryPrepared)
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(oxml::bench::BM_InsertRowAtATimeAdHoc)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(oxml::bench::BM_InsertPreparedBatch)
    ->Unit(benchmark::kMillisecond);

OXML_BENCH_MAIN();
