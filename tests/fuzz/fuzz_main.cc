// Differential fuzzer driver: generates seed-reproducible workloads and
// replays them against all three encodings plus the DOM oracle. On the
// first failure the case is shrunk and written out as a repro file that
// oxml_fuzz_repro can replay.
//
// Usage:
//   oxml_fuzz [--seed_start=N] [--seed_count=N] [--ops=N] [--repro_dir=DIR]
//             [--durable=0|1] [--threads=N] [--load_threads=N]
//             [--sessions=N]
//
// --durable forces every case on or off the file-backed/WAL path (the
// default lets the generator pick ~25% durable cases).
// --threads runs every batch of consecutive read-only query ops across N
// client threads (concurrent readers under the shared statement latch)
// instead of serially; divergence from the DOM oracle is then a
// concurrency bug. Mutations always stay serial.
// --load_threads gives every case an execution pool of N workers, so loads
// fan out over it (the generator otherwise picks ~33% of cases).
// --sessions additionally routes every query through N OXWP protocol
// clients against a loopback oxml_server per encoding, checking the full
// wire path (handshake, admission, result framing) against the oracle.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "tests/fuzz/fuzz_harness.h"

namespace {

bool ParseFlag(const char* arg, const char* name, long long* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::atoll(arg + n + 1);
  return true;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long long seed_start = 1;
  long long seed_count = 25;
  long long ops = 100;
  long long durable = -1;  // -1 = generator's choice
  long long threads = 1;
  long long load_threads = -1;  // -1 = generator's choice
  long long sessions = 0;
  std::string repro_dir = ".";
  for (int i = 1; i < argc; ++i) {
    long long* unused = nullptr;
    (void)unused;
    if (ParseFlag(argv[i], "--seed_start", &seed_start) ||
        ParseFlag(argv[i], "--seed_count", &seed_count) ||
        ParseFlag(argv[i], "--ops", &ops) ||
        ParseFlag(argv[i], "--durable", &durable) ||
        ParseFlag(argv[i], "--threads", &threads) ||
        ParseFlag(argv[i], "--load_threads", &load_threads) ||
        ParseFlag(argv[i], "--sessions", &sessions) ||
        ParseFlag(argv[i], "--repro_dir", &repro_dir)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return 2;
  }

  size_t total_ops = 0;
  size_t total_skipped = 0;
  for (long long s = seed_start; s < seed_start + seed_count; ++s) {
    oxml::fuzz::FuzzCase c =
        oxml::fuzz::GenerateCase(static_cast<uint64_t>(s),
                                 static_cast<size_t>(ops));
    if (durable >= 0) c.durable = durable != 0;
    if (threads > 1) c.query_threads = static_cast<size_t>(threads);
    if (load_threads >= 0) c.load_threads = static_cast<size_t>(load_threads);
    if (sessions > 0) c.sessions = static_cast<size_t>(sessions);
    auto failure = oxml::fuzz::RunCase(&c);
    total_ops += c.ops.size();
    total_skipped += c.skipped_ops;
    if (!failure.has_value()) {
      std::printf("seed %lld: ok (%zu ops, %zu skipped)\n", s, c.ops.size(),
                  c.skipped_ops);
      continue;
    }
    std::printf("seed %lld: FAILURE %s\n", s, failure->Describe().c_str());
    std::printf("shrinking %zu ops...\n", c.ops.size());
    oxml::fuzz::FuzzCase shrunk = oxml::fuzz::ShrinkCase(c);
    auto confirmed = oxml::fuzz::RunCase(&shrunk);
    std::string path =
        repro_dir + "/repro_seed" + std::to_string(s) + ".txt";
    std::ofstream out(path);
    out << "# " << (confirmed ? confirmed->Describe() : failure->Describe())
        << "\n";
    out << oxml::fuzz::SerializeCase(shrunk);
    out.close();
    std::printf("shrunk to %zu ops, repro written to %s\n",
                shrunk.ops.size(), path.c_str());
    if (confirmed) {
      std::printf("minimized failure: %s\n", confirmed->Describe().c_str());
    }
    return 1;
  }
  std::printf("all %lld seeds ok (%zu ops executed, %zu skipped)\n",
              seed_count, total_ops - total_skipped, total_skipped);
  return 0;
}
