// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into DrugTree's public API. Nothing here reaches into src/; a span
// times one public call from the outside.
//
// Spans are off unless the run is traced (--trace 1). When off, a
// ScopedSpan costs one branch. When on, each thread appends to its own
// buffer (no locking on the hot path) and keeps a stack of open spans, so a
// span's parent is the innermost span open on the same thread.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNanos();

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;      // unique within the run
  int64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  int thread = 0;
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // duration minus the time child spans cover
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Every span recorded so far, across threads. Call once the workload's
  /// threads have stopped.
  std::vector<Span> Collect() const;

  /// Aggregates Collect() by span name. Children are nested on their own
  /// thread, so self time is duration minus the children's durations.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices into spans
  };
  ThreadBuffer* Buffer();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::atomic<int64_t> next_id_{1};
};

/// Times one call. `name` must be a string literal (stored by pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();

  /// Renames the open span, for a call whose label is known only once it
  /// returns. `name` must be a string literal, as for the constructor.
  void set_name(const char* name);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
