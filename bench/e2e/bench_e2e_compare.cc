// bench_e2e_compare — compares two sets of bench_e2e runs.
//
//   bench_e2e_compare [--benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
//
// Each input holds one result line per run, as `bench_e2e --json FILE`
// appends them. Runs are grouped by workload and paired in file order (run
// the two sides alternately). For every (workload, metric) the tool prints
// both sides' medians and quartiles, how many pairs the change won, and a
// verdict:
//
//   better        the change wins at least 9 of every 10 pairs (10 pairs or
//                 more), and the medians differ in its favour by more than
//                 the parent's interquartile range
//   worse         an end-to-end metric's median is worse than the parent's
//                 by more than the metric's bound in BENCHMARK.json; for a
//                 per-layer metric, the mirror image of "better"
//   within-bound  an end-to-end metric that is neither, with both sides'
//                 spreads inside its bound
//   unresolved    anything else: the spread is wider than the bound, or a
//                 per-layer metric moved less than its noise
//
// Exits 1 when any end-to-end metric is worse, 2 on bad input, else 0.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/json.h"

namespace oxml {
namespace bench_e2e {
namespace {

struct MetricSpec {
  bool lower_is_better = true;
  double bound = -1;  // < 0: per-layer metric, no bound
};

/// A workload's runs: metric name -> values in run order.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadRuns(const std::string& path, Runs* runs) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json run;
    std::string error;
    if (!JsonParser::Parse(line, &run, &error)) {
      std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), n, error.c_str());
      return false;
    }
    if (!run["correct"].boolean) {
      std::fprintf(stderr, "%s:%d: run reports wrong answers\n", path.c_str(),
                   n);
    }
    std::string workload = run["workload"].string;
    for (const auto& [name, metric] : run["metrics"].object) {
      (*runs)[workload][name].push_back(metric["value"].number);
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// First and third quartiles, as Python's statistics.quantiles(v, n=4)
/// (the "exclusive" method) computes them.
void Quartiles(std::vector<double> v, double* q1, double* q3) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n < 2) {
    *q1 = *q3 = v.empty() ? 0 : v[0];
    return;
  }
  auto q = [&](long i) {
    long m = n + 1;
    long j = std::clamp(i * m / 4, 1L, n - 1);
    long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4;
  };
  *q1 = q(1);
  *q3 = q(3);
}

int Compare(const std::map<std::string, MetricSpec>& specs, const Runs& parent,
            const Runs& change) {
  int exit_code = 0;
  std::printf("%-14s %-40s %30s %30s %7s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "wins",
              "verdict");
  for (const auto& [workload, metrics] : parent) {
    auto cw = change.find(workload);
    if (cw == change.end()) continue;
    for (const auto& [name, a] : metrics) {
      auto cm = cw->second.find(name);
      if (cm == cw->second.end()) continue;
      const std::vector<double>& b = cm->second;
      auto sit = specs.find(name);
      MetricSpec spec = sit == specs.end() ? MetricSpec{} : sit->second;
      auto better = [&](double x, double y) {
        return spec.lower_is_better ? x < y : x > y;
      };
      size_t pairs = std::min(a.size(), b.size());
      size_t wins = 0;
      size_t losses = 0;
      for (size_t i = 0; i < pairs; ++i) {
        wins += better(b[i], a[i]) ? 1 : 0;
        losses += better(a[i], b[i]) ? 1 : 0;
      }
      double ma = Median(a), mb = Median(b);
      double a1, a3, b1, b3;
      Quartiles(a, &a1, &a3);
      Quartiles(b, &b1, &b3);
      double gain = spec.lower_is_better ? ma - mb : mb - ma;
      double iqr = a3 - a1;
      // Every change run reads better than every parent run.
      bool all_better = better(*std::max_element(b.begin(), b.end(), better),
                               *std::min_element(a.begin(), a.end(), better));
      const char* verdict;
      if (pairs >= 10 && wins * 10 >= pairs * 9 && gain > iqr) {
        verdict = "better";
      } else if (spec.bound >= 0) {
        double spread = std::max(ma == 0 ? 0 : iqr / std::fabs(ma),
                                 mb == 0 ? 0 : (b3 - b1) / std::fabs(mb));
        if (-gain > spec.bound * std::fabs(ma)) {
          verdict = "worse";
          exit_code = 1;
        } else if (spread > spec.bound && !all_better) {
          verdict = "unresolved";
        } else {
          verdict = "within-bound";
        }
      } else if (pairs >= 10 && losses * 10 >= pairs * 9 && -gain > iqr) {
        verdict = "worse";
      } else {
        verdict = "unresolved";
      }
      std::printf("%-14s %-40s %11.4g [%7.4g, %7.4g] %11.4g [%7.4g, %7.4g] "
                  "%3zu/%-3zu  %s\n",
                  workload.c_str(), name.c_str(), ma, a1, a3, mb, b1, b3, wins,
                  pairs, verdict);
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace bench_e2e
}  // namespace oxml

int main(int argc, char** argv) {
  using namespace oxml::bench_e2e;
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_e2e_compare [--benchmark BENCHMARK.json] "
                 "PARENT.jsonl CHANGE.jsonl\n");
    return 2;
  }
  std::string text;
  Json spec_json;
  std::string error;
  if (!ReadFile(benchmark, &text) ||
      !JsonParser::Parse(text, &spec_json, &error)) {
    std::fprintf(stderr, "cannot read %s %s\n", benchmark.c_str(),
                 error.c_str());
    return 2;
  }
  std::map<std::string, MetricSpec> specs;
  for (const char* list : {"end_to_end", "per_layer"}) {
    for (const Json& m : spec_json[list].array) {
      MetricSpec s;
      s.lower_is_better = m["better"].string != "higher";
      if (m["bound"].type == Json::Type::kNumber) s.bound = m["bound"].number;
      specs[m["name"].string] = s;
    }
  }
  Runs parent, change;
  if (!LoadRuns(files[0], &parent) || !LoadRuns(files[1], &change)) return 2;
  return Compare(specs, parent, change);
}
