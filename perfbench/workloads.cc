#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

ReadSample SummarizeReads(const ReaderGroup& group, double seconds,
                          Report* report) {
  report->Count(group.ops(), group.failed(), "closed-loop reads");
  const std::vector<double> latencies = group.LatenciesUs();
  ReadSample sample;
  sample.queries_per_s = static_cast<double>(group.ops()) / seconds;
  sample.p50_us = Percentile(latencies, 0.50);
  sample.p99_us = Percentile(latencies, 0.99);
  return sample;
}

ReadSample IdleRead(dmt::serve::SnapshotStore* store,
                    const dmt::serve::Snapshot& snapshot,
                    const ReadTruth& truth, size_t readers, double seconds,
                    SpanRecorder* rec, uint64_t seed, Report* report) {
  store->Publish(std::make_unique<const dmt::serve::Snapshot>(snapshot));
  const int64_t t0 = NowNs();
  ReaderGroup group(store, &truth, readers, rec, seed);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
  group.Stop();
  return SummarizeReads(group, elapsed, report);
}

void AddReadMetrics(const std::vector<ReadSample>& samples, Report* report) {
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const ReadSample& s : samples) {
    qps.push_back(s.queries_per_s);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  report->Set("queries_per_s", Median(qps));
  report->Set("query_p50_us", Median(p50));
  report->Set("query_p99_us", Median(p99));
}

void AddServeSpanMetrics(const std::vector<Span>& spans,
                         std::map<std::string, double>* layers) {
  const std::vector<double> publish = DurationsUs(spans, "serve.publish");
  if (!publish.empty()) {
    (*layers)["serve.publish_s"] = TotalSeconds(spans, "serve.publish");
    (*layers)["serve.publish_p50_us"] = Median(publish);
  }
  const std::vector<double> acquire = DurationsUs(spans, "serve.acquire");
  if (!acquire.empty()) (*layers)["serve.acquire_p50_us"] = Median(acquire);
  const std::vector<double> query = DurationsUs(spans, "serve.query_engine");
  if (!query.empty()) (*layers)["serve.query_engine_p50_us"] = Median(query);
}

void PrintReps(const char* what, const std::vector<double>& rates) {
  if (rates.empty()) return;
  std::printf("%s: %zu runs, per second min %.6g median %.6g max %.6g\n",
              what, rates.size(), *std::min_element(rates.begin(), rates.end()),
              Median(rates), *std::max_element(rates.begin(), rates.end()));
}

void EmitTrace(const Options& options, const std::vector<Span>& spans) {
  std::printf("self time per layer (last traced run):\n");
  std::printf("  %-24s %10s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const auto& [name, t] : LayerTimes(spans)) {
    std::printf("  %-24s %10llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s,
                t.self_s);
  }
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  if (WriteChromeTrace(path, spans)) {
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
