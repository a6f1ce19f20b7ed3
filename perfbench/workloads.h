// The benchmark's workloads and the pieces they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "readers.h"
#include "report.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "trace.h"

namespace perfbench {

/// Read throughput and latency of one stretch of closed-loop reading.
struct ReadSample {
  double queries_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Summarizes a finished ReaderGroup that ran for `seconds` and feeds its
/// checked operations into `report`.
ReadSample SummarizeReads(const ReaderGroup& group, double seconds,
                          Report* report);

/// One stretch of closed-loop reads with no writer running: publishes a
/// copy of `snapshot` into `store` and reads it for `seconds`. The
/// reference point for reads under live ingest.
ReadSample IdleRead(dmt::serve::SnapshotStore* store,
                    const dmt::serve::Snapshot& snapshot,
                    const ReadTruth& truth, size_t readers, double seconds,
                    SpanRecorder* rec, uint64_t seed, Report* report);

/// Adds queries_per_s, query_p50_us and query_p99_us as medians over
/// `samples`.
void AddReadMetrics(const std::vector<ReadSample>& samples, Report* report);

/// serve.* per-layer values from read-side spans (acquire, query engine)
/// and publish spans.
void AddServeSpanMetrics(const std::vector<Span>& spans,
                         std::map<std::string, double>* layers);

/// Writes the traced pass's spans to `<trace_dir>/<workload>-<seed>.json`
/// and prints the per-layer self-time table.
void EmitTrace(const Options& options, const std::vector<Span>& spans);

/// Prints one line summarizing per-repetition rates (min, median, max).
void PrintReps(const char* what, const std::vector<double>& rates);

/// Calls `fn()` until `budget_s` seconds have passed, at least once.
template <typename Fn>
void RepeatFor(double budget_s, const Fn& fn) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  do {
    fn();
  } while (NowNs() < deadline);
}

/// mp1_pamap, p2_zipf and serve_mp1_pamap (SimulationDriver in-process).
bool RunDriverWorkload(const Options& options, Report* report);
/// wire_p1_zipf (P1 over TCP loopback).
void RunWireWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
