// Closed-loop snapshot readers and the exact answers they are checked
// against.
//
// A reader is one caller that waits for each reply before it asks again:
// pin the current snapshot (SnapshotReader::Acquire), answer the probe
// query mix through serve::QueryEngine, unpin, repeat. Each operation's
// latency is timed by the reader itself; its answer is checked, outside
// the timed section, against the exact value at the snapshot's window
// boundary.
#ifndef PERFBENCH_READERS_H_
#define PERFBENCH_READERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/snapshot_store.h"
#include "stream/simulation_driver.h"
#include "trace.h"

namespace perfbench {

/// Fixed-size uniform sample (reservoir) of per-operation latencies. The
/// buffer is allocated and touched up front, so memory use does not grow
/// with the number of operations a run manages.
class LatencyReservoir {
 public:
  LatencyReservoir(size_t capacity, uint64_t seed);
  void Add(int64_t ns);
  /// Appends the held samples, in microseconds.
  void AppendUs(std::vector<double>* out) const;

 private:
  std::vector<uint32_t> samples_;
  uint64_t seen_ = 0;
  uint64_t state_;
};

/// Exact answers of the probe query at every window boundary.
struct ReadTruth {
  bool matrix = false;
  std::vector<double> x;          // matrix probe: a unit direction
  uint64_t element = 0;           // heavy-hitter probe element
  std::vector<uint64_t> boundary; // arrivals ingested at each window end
  std::vector<double> exact;      // ‖A x‖² or w(element) at the boundary
  std::vector<double> slack;      // ε‖A‖²_F or εW at the boundary

  /// True when `answer` is within the protocol's guarantee of the exact
  /// value at the boundary of `items_ingested` arrivals; the empty
  /// pre-first-window snapshot (window 0) must answer 0.
  bool Check(uint64_t window_index, uint64_t items_ingested,
             double answer) const;
};

/// Probe truth for matrix rows: a seeded unit direction x and the exact
/// ‖A x‖² of every stream prefix ending at a window boundary.
ReadTruth MatrixReadTruth(const std::vector<std::vector<double>>& rows,
                          const std::vector<size_t>& window_ends, double eps,
                          uint64_t seed);

/// Probe truth for weighted items: the exact weight of `element` in every
/// stream prefix ending at a window boundary.
ReadTruth HHReadTruth(const std::vector<dmt::stream::WeightedUpdate>& items,
                      const std::vector<size_t>& window_ends, double eps,
                      uint64_t element);

/// `count` closed-loop reader threads over one store, running from
/// construction until Stop().
class ReaderGroup {
 public:
  /// With a non-null `rec`, every 1024th operation records read-op,
  /// acquire and query-engine spans.
  ReaderGroup(dmt::serve::SnapshotStore* store, const ReadTruth* truth,
              size_t count, SpanRecorder* rec, uint64_t seed);
  ~ReaderGroup();
  ReaderGroup(const ReaderGroup&) = delete;
  ReaderGroup& operator=(const ReaderGroup&) = delete;

  /// Signals every reader to finish its current operation and joins them.
  void Stop();

  uint64_t ops() const;
  uint64_t failed() const;
  /// Sampled per-operation latencies of every reader, in microseconds.
  std::vector<double> LatenciesUs() const;

 private:
  struct Stats {
    explicit Stats(uint64_t seed) : latency(1u << 16, seed) {}
    uint64_t ops = 0;
    uint64_t failed = 0;
    LatencyReservoir latency;
  };
  void Loop(Stats* stats);

  dmt::serve::SnapshotStore* store_;
  const ReadTruth* truth_;
  SpanRecorder* rec_;
  std::atomic<bool> stop_{false};
  std::vector<Stats> stats_;          // one per reader, never resized
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace perfbench

#endif  // PERFBENCH_READERS_H_
