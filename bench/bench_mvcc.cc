// Experiment E18 — MVCC snapshot reads. Reader throughput against one
// shared store with and without a concurrent long-running writer, on both
// sides of the enable_mvcc switch:
//
//  * writer=0: baseline read throughput (the snapshot machinery idles —
//    this measures its overhead on uncontended reads).
//  * writer=1, mvcc=1: a background thread keeps a write transaction open
//    almost continuously (Begin → delete a subtree → Rollback, no pauses).
//    Readers are served committed page versions and index deltas; their
//    throughput should stay within a small factor of the uncontended run.
//  * writer=1, mvcc=0: the pre-MVCC discipline — Begin holds the statement
//    latch exclusively for the transaction's lifetime, so readers only run
//    in the gaps between transactions and throughput collapses.
//
// The version-chain counters (snapshot_reads, versions_retained,
// version_chain_max) are attached to every report line; under writer=1,
// mvcc=1 a zero snapshot_reads would mean the benchmark never actually
// exercised the snapshot path.
//
// BM_LoneWriter asks the converse question: what MVCC costs a writer when
// nobody reads. One thread runs single-paragraph InsertSubtree calls into
// a fresh store on both sides of enable_mvcc; items_per_second is inserts
// per second of insert time (the target lookups are not timed).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/random.h"
#include "src/xml/xml_parser.h"

#include "bench/bench_util.h"

namespace oxml {
namespace bench {
namespace {

int Sections() { return static_cast<int>(SmokeScaled(60, 10)); }
int Paragraphs() { return static_cast<int>(SmokeScaled(10, 4)); }

StoreFixture MakeMvccStore(OrderEncoding enc, bool mvcc) {
  DatabaseOptions opts;
  opts.enable_mvcc = mvcc;
  StoreFixture f;
  auto dbr = Database::Open(opts);
  OXML_BENCH_CHECK(dbr.ok());
  f.db = std::move(dbr).value();
  auto sr = OrderedXmlStore::Create(f.db.get(), enc, StoreOptions{});
  OXML_BENCH_CHECK(sr.ok());
  f.store = std::move(sr).value();
  auto doc = NewsDoc(Sections(), Paragraphs());
  OXML_BENCH_CHECK(f.store->LoadDocument(*doc).ok());
  return f;
}

// One fixture per (encoding, mvcc) pair, shared by the reader threads.
StoreFixture& SharedFixture(OrderEncoding enc, bool mvcc) {
  static auto* fixtures = new std::map<int, StoreFixture>();
  int key = (static_cast<int>(enc) << 1) | (mvcc ? 1 : 0);
  auto it = fixtures->find(key);
  if (it == fixtures->end()) {
    it = fixtures->emplace(key, MakeMvccStore(enc, mvcc)).first;
  }
  return it->second;
}

// The long writer: open a transaction, delete one subtree inside it, sit
// on the open transaction for a moment, roll back, repeat. Every round
// publishes page versions and index deltas; nothing ever commits, so the
// readers' expected answer never changes.
void WriterLoop(StoreFixture* f, std::atomic<bool>* stop) {
  while (!stop->load(std::memory_order_acquire)) {
    OXML_BENCH_CHECK(f->db->Begin().ok());
    auto paras = EvaluateXPath(f->store.get(), "//para");  // owner read
    OXML_BENCH_OK(paras);
    if (!paras->empty()) {
      OXML_BENCH_OK(f->store->DeleteSubtree(paras->back()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    OXML_BENCH_CHECK(f->db->Rollback().ok());
  }
}

// N benchmark threads run the read-only mix (XPath tag scan + aggregate)
// while the writer (if any) churns. Reported per-thread by the framework;
// items_processed gives the aggregate statement rate.
void BM_SnapshotReaders(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  bool with_writer = state.range(1) != 0;
  bool mvcc = state.range(2) != 0;
  StoreFixture& f = SharedFixture(enc, mvcc);

  static std::atomic<bool> stop{false};
  static std::thread writer;
  if (state.thread_index() == 0 && with_writer) {
    stop.store(false, std::memory_order_release);
    writer = std::thread(WriterLoop, &f, &stop);
  }

  int64_t statements = 0;
  for (auto _ : state) {
    auto r = EvaluateXPath(f.store.get(), "//para");
    OXML_BENCH_OK(r);
    benchmark::DoNotOptimize(r->size());
    auto q = f.db->Query("SELECT COUNT(*) FROM nodes");
    OXML_BENCH_OK(q);
    benchmark::DoNotOptimize(q->rows.size());
    statements += 2;
  }
  state.SetItemsProcessed(statements);

  if (state.thread_index() == 0) {
    if (with_writer) {
      stop.store(true, std::memory_order_release);
      writer.join();
    }
    const ExecStats& s = *f.db->stats();
    state.counters["snapshot_reads"] =
        static_cast<double>(s.snapshot_reads);
    state.counters["versions_retained"] =
        static_cast<double>(s.versions_retained);
    state.counters["version_chain_max"] =
        static_cast<double>(s.version_chain_max);
    ReportExecStats(state, s);
    state.SetLabel(std::string(OrderEncodingToString(enc)) +
                   (with_writer ? "/writer" : "/no_writer") +
                   (mvcc ? "/mvcc" : "/exclusive") + "/readers_x" +
                   std::to_string(state.threads()));
  }
}

// One writer, no readers: each iteration loads a fresh store and inserts
// a paragraph before a random existing one, timing only InsertSubtree.
void BM_LoneWriter(benchmark::State& state) {
  OrderEncoding enc = EncodingFromIndex(state.range(0));
  bool mvcc = state.range(1) != 0;
  const int inserts = static_cast<int>(SmokeScaled(600, 50));
  auto para = ParseXml("<para>freshly inserted paragraph text</para>");
  OXML_BENCH_OK(para);
  const XmlNode& subtree = *(*para)->root_element();

  ExecStats exec;
  for (auto _ : state) {
    StoreFixture f = MakeMvccStore(enc, mvcc);
    auto body = EvaluateXPath(f.store.get(), "/nitf/body");
    OXML_BENCH_OK(body);
    Random rng(7);
    std::chrono::duration<double> timed{0};
    for (int i = 0; i < inserts; ++i) {
      auto section = f.store->ChildAt(
          (*body)[0], NodeTest::Tag("section"),
          static_cast<size_t>(rng.Uniform(0, Sections() - 1)));
      OXML_BENCH_OK(section);
      auto target = f.store->ChildAt(
          *section, NodeTest::Tag("para"),
          static_cast<size_t>(rng.Uniform(0, Paragraphs() - 1)));
      OXML_BENCH_OK(target);
      auto t0 = std::chrono::steady_clock::now();
      auto st = f.store->InsertSubtree(*target, InsertPosition::kBefore,
                                       subtree);
      timed += std::chrono::steady_clock::now() - t0;
      OXML_BENCH_OK(st);
    }
    state.SetIterationTime(timed.count());
    exec = *f.db->stats();
  }
  state.SetItemsProcessed(state.iterations() * inserts);
  ReportExecStats(state, exec);
  state.SetLabel(std::string(OrderEncodingToString(enc)) +
                 (mvcc ? "/mvcc" : "/exclusive"));
}

}  // namespace
}  // namespace bench
}  // namespace oxml

// Uncontended baseline (MVCC on, no writer) and the two contended modes.
BENCHMARK(oxml::bench::BM_SnapshotReaders)
    ->ArgsProduct({{0, 1, 2}, {0}, {1}})
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(oxml::bench::BM_SnapshotReaders)
    ->ArgsProduct({{0, 1, 2}, {1}, {0, 1}})
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
// One writer, no readers, on both sides of enable_mvcc.
BENCHMARK(oxml::bench::BM_LoneWriter)
    ->ArgsProduct({{0, 1, 2}, {1, 0}})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

OXML_BENCH_MAIN();
