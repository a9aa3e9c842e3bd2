#ifndef OXML_BENCH_E2E_TRACE_H_
#define OXML_BENCH_E2E_TRACE_H_

// Span recorder for bench_e2e's traced runs. Spans are recorded by the
// benchmark around its calls into the server, core and xml layers (never
// inside src/), kept in per-thread buffers, and written at exit as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).
//
// A span carries a name, a tag (the encoding index, or -1), its trace id
// (the id of the root span of the request it belongs to), its parent span,
// and steady-clock start/end times. Recording is switched on and off as a
// whole; a span opened while recording is off costs one relaxed load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oxml {
namespace bench_e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  int tag = -1;
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The calling thread's buffer (created and registered on first use).
  std::vector<SpanRecord>* ThreadBuffer(int* thread_index) {
    thread_local std::vector<SpanRecord>* buffer = nullptr;
    thread_local int index = 0;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffer = buffers_.back().get();
      index = static_cast<int>(buffers_.size());
    }
    *thread_index = index;
    return buffer;
  }

  /// Every recorded span. Call only after the recording threads are joined.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  /// Writes every span as a Chrome "complete" event; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const SpanRecord& s : Collect()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%d\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"trace\":%llu,\"span\":%llu,\"parent\":%llu}}",
                   first ? "" : ",\n", s.name, s.tag, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, s.thread,
                   static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// RAII span. A span opened with no open span on its thread starts a new
/// trace, and records only if the tracer is enabled at that moment; nested
/// spans record exactly when their parent does, so toggling the tracer
/// never splits a request. `name` must be a string literal (it is stored
/// by pointer).
class Span {
 public:
  explicit Span(const char* name, int tag = -1) : outer_(current_) {
    active_ = outer_ != nullptr ? outer_->active_ : Tracer::Get().enabled();
    current_ = this;
    if (!active_) return;
    rec_.name = name;
    rec_.tag = tag;
    rec_.id = Tracer::Get().NextId();
    rec_.parent = outer_ == nullptr ? 0 : outer_->rec_.id;
    rec_.trace = outer_ == nullptr ? rec_.id : outer_->rec_.trace;
    rec_.start_ns = NowNs();
  }
  ~Span() {
    current_ = outer_;
    if (!active_) return;
    rec_.end_ns = NowNs();
    Tracer::Get().ThreadBuffer(&rec_.thread)->push_back(rec_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool recording() const { return active_; }

 private:
  static inline thread_local Span* current_ = nullptr;
  Span* outer_;
  bool active_;
  SpanRecord rec_;
};

}  // namespace bench_e2e
}  // namespace oxml

#endif  // OXML_BENCH_E2E_TRACE_H_
