// In-memory span tracing for the benchmark's traced pass.
//
// Spans are recorded from the benchmark's own decorators (decorators.h)
// around calls into the library's public layer boundaries; nothing inside
// src/ reads a clock. Each thread appends to its own buffer, so recording
// takes no lock after a thread's first span. Spans are collected after
// every recording thread has stopped and written out as a Chrome
// trace-event file (chrome://tracing, Perfetto).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock, boot-relative).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished span. `parent` links to the enclosing span on the same
/// thread (0 = root); `window` is the 1-based synchronization window the
/// span belongs to and is what ties spans of different threads together
/// (0 = outside any window).
struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t window = 0;
  uint32_t thread = 0;
};

/// Collects spans from any number of threads into per-thread buffers.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh span id, for spans whose children are recorded first.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span on the calling thread's buffer. `id` 0 draws
  /// a fresh id.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint32_t window, uint64_t parent = 0, uint64_t id = 0);

  /// Every span recorded so far. Call only once all recording threads
  /// have been joined.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* Local();

  const uint64_t generation_;  // distinguishes recorders in thread caches
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Per-name totals: span count, summed duration, and self time (duration
/// minus the part of it covered by the span's same-thread children).
struct LayerTime {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// Summed duration of every span named `name`, in seconds.
double TotalSeconds(const std::vector<Span>& spans, const char* name);

/// Durations of every span named `name`, in microseconds.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

/// Sum over windows of (last end - first start) of the spans named
/// `name` in that window: the wall-clock extent of a phase that runs on
/// several threads at once.
double WindowedWallSeconds(const std::vector<Span>& spans, const char* name);

/// Writes `spans` as a Chrome trace-event JSON file. False on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
