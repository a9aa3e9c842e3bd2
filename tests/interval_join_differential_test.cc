// Structural join on arbitrary intervals: random, overlapping `a(lo, hi)`
// intervals (NULL bounds, duplicate starts, empty `hi < lo` intervals)
// joined against random points `d(x)` under all four strictness pairs of
// `d.x {>,>=} a.lo AND d.x {<=,<} a.hi`. The structural join, run inline
// and fanned out over a thread pool, must return the same row multiset as
// the nested-loop reference, with its output sorted on `d.x`.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/relational/database.h"

namespace oxml {
namespace {

enum class Mode { kInline, kPool, kNestedLoop };

std::unique_ptr<Database> OpenDb(Mode mode) {
  DatabaseOptions opts;
  opts.enable_structural_join = mode != Mode::kNestedLoop;
  if (mode == Mode::kPool) {
    opts.enable_parallel_execution = true;
    opts.num_threads = 2;
    opts.parallel_scan_min_rows = 0;
  }
  auto db = Database::Open(opts);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

Value MaybeNull(Random* rng, int64_t v) {
  return rng->Chance(0.08) ? Value::Null() : Value::Int(v);
}

// One random instance: mostly short intervals (many independent groups)
// with some long ones that overlap everything after them.
struct Instance {
  std::vector<Row> a;  // (lo, hi, id)
  std::vector<Row> d;  // (x, id)
};

Instance MakeInstance(uint64_t seed) {
  Random rng(seed);
  Instance inst;
  const int64_t domain = rng.Uniform(20, 300);
  const int anc = static_cast<int>(rng.Uniform(0, 60));
  const int desc = static_cast<int>(rng.Uniform(0, 80));
  for (int i = 0; i < anc; ++i) {
    int64_t lo = rng.Uniform(0, domain);
    int64_t len = rng.Chance(0.15) ? rng.Uniform(0, domain)
                                   : rng.Uniform(0, 8);
    if (rng.Chance(0.1)) len = -rng.Uniform(1, 5);  // hi < lo
    inst.a.push_back({MaybeNull(&rng, lo), MaybeNull(&rng, lo + len),
                      Value::Int(i)});
  }
  for (int i = 0; i < desc; ++i) {
    inst.d.push_back({MaybeNull(&rng, rng.Uniform(0, domain)), Value::Int(i)});
  }
  return inst;
}

void Fill(Database* db, const Instance& inst) {
  ASSERT_TRUE(db->Execute("CREATE TABLE a (lo INT, hi INT, id INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE d (x INT, id INT)").ok());
  for (const Row& r : inst.a) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO a VALUES (?, ?, ?)", r).ok());
  }
  for (const Row& r : inst.d) {
    ASSERT_TRUE(db->ExecuteP("INSERT INTO d VALUES (?, ?)", r).ok());
  }
}

std::vector<std::string> Sorted(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const Row& r : rs.rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(IntervalJoinDifferentialTest, ArbitraryIntervalsMatchNestedLoop) {
  const char* const kLower[] = {">", ">="};
  const char* const kUpper[] = {"<=", "<"};
  uint64_t pool_joins = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Instance inst = MakeInstance(seed);
    std::unique_ptr<Database> dbs[] = {OpenDb(Mode::kInline),
                                       OpenDb(Mode::kPool),
                                       OpenDb(Mode::kNestedLoop)};
    for (auto& db : dbs) Fill(db.get(), inst);

    for (const char* lower : kLower) {
      for (const char* upper : kUpper) {
        std::string sql = std::string("SELECT d.x, d.id, a.id FROM a, d ") +
                          "WHERE d.x " + lower + " a.lo AND d.x " + upper +
                          " a.hi";
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " + sql);
        auto run = [&](Mode m) {
          Database* db = dbs[static_cast<int>(m)].get();
          auto plan = db->Explain(sql);
          EXPECT_TRUE(plan.ok()) << plan.status();
          EXPECT_EQ(plan.ok() && plan->find("StructuralJoin") !=
                                     std::string::npos,
                    m != Mode::kNestedLoop)
              << (plan.ok() ? *plan : std::string());
          auto rs = db->Query(sql);
          EXPECT_TRUE(rs.ok()) << rs.status();
          return rs.ok() ? *rs : ResultSet{};
        };
        std::vector<std::string> want = Sorted(run(Mode::kNestedLoop));
        for (Mode m : {Mode::kInline, Mode::kPool}) {
          ResultSet rs = run(m);
          EXPECT_EQ(Sorted(rs), want) << "mode " << static_cast<int>(m);
          for (size_t i = 1; i < rs.rows.size(); ++i) {
            ASSERT_LE(rs.rows[i - 1][0].AsInt(), rs.rows[i][0].AsInt())
                << "mode " << static_cast<int>(m) << " row " << i;
          }
        }
      }
    }
    // Inline joins never touch the fan-out counters.
    const ExecStats& inline_stats = *dbs[0]->stats();
    EXPECT_EQ(inline_stats.joins_structural, 4u);
    EXPECT_EQ(inline_stats.parallel_joins, 0u);
    EXPECT_EQ(inline_stats.morsels, 0u);
    pool_joins += dbs[1]->stats()->parallel_joins;
    EXPECT_EQ(dbs[2]->stats()->joins_structural, 0u);
  }
  EXPECT_EQ(pool_joins, 40u * 4u);  // every pool-side join fanned out
}

}  // namespace
}  // namespace oxml
