// perfbench: the repository's end-to-end benchmark binary. Runs one
// workload, checks every output, and prints each metric by name with its
// unit; the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced pass (--trace 1). Normally started through perfbench/run.py,
// which builds it first.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--size full|tiny] [--trace-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/smoke_test.py checks both ways).
constexpr MetricDef kEndToEnd[] = {
    {"ingest_per_s", "1/s"},  {"setup_s", "s"},
    {"messages", "count"},    {"err", "ratio"},
    {"queries_per_s", "1/s"}, {"query_p50_us", "us"},
    {"query_p99_us", "us"},   {"peak_rss_mb", "MB"},
};

// A layer a workload does not touch reports 0 (net.* off the wire
// workload, matrix.* on the heavy-hitter workloads and hh.* on MP1).
constexpr MetricDef kPerLayer[] = {
    {"stream.windows", "count"},
    {"stream.site_phase_s", "s"},
    {"stream.lane_busy_s", "s"},
    {"stream.lane_wait_s", "s"},
    {"stream.batches_reserved", "count"},
    {"stream.serial_ingest_per_s", "1/s"},
    {"matrix.drain_s", "s"},
    {"matrix.drain_sites", "count"},
    {"matrix.messages_up", "count"},
    {"matrix.broadcast_msgs", "count"},
    {"hh.drain_s", "s"},
    {"hh.drain_sites", "count"},
    {"hh.messages_up", "count"},
    {"hh.broadcast_msgs", "count"},
    {"serve.publish_s", "s"},
    {"serve.publish_p50_us", "us"},
    {"serve.acquire_p50_us", "us"},
    {"serve.query_engine_p50_us", "us"},
    {"serve.retired", "count"},
    {"serve.reclaimed", "count"},
    {"net.encode_s", "s"},
    {"net.send_s", "s"},
    {"net.recv_wait_s", "s"},
    {"net.decode_s", "s"},
    {"net.frames_up", "count"},
    {"net.bytes_up", "bytes"},
    {"net.bytes_down", "bytes"},
    {"net.window_rtt_us", "us"},
    {"net.oracle_s", "s"},
    {"data.generate_s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] "
               "[--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && *value != '\0';
      if (!have_seed) Usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") != 0 && std::strcmp(value, "tiny") != 0) {
        Usage("--size takes full or tiny");
      }
      o.tiny = value[0] == 't';
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  return o;
}

bool Run(const Options& options, Report* report) {
  if (options.workload == "wire_p1_zipf") {
    RunWireWorkload(options, report);
    return true;
  }
  return RunDriverWorkload(options, report);
}

void PrintResult(const Options& options, Report* report) {
  std::string json = "{";
  bool first = true;
  const auto emit = [&](const MetricDef& def, double value) {
    std::printf("  %-28s %22.6f %s\n", def.name, value, def.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  };
  const auto& values = report->values();
  std::printf("%s seed=%llu %s metrics:\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "per-layer" : "end-to-end");
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = values.find(def.name);
      emit(def, it == values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = values.find(def.name);
      report->Gate(it != values.end(), std::string("produced ") + def.name);
      emit(def, it == values.end() ? 0.0 : it->second);
    }
  }
  json += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report->failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(report->attempted()),
      static_cast<unsigned long long>(report->failed()), json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = ParseArgs(argc, argv);
  Report report;
  try {
    if (!Run(options, &report)) Usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintResult(options, &report);
  std::fflush(stdout);
  return 0;
}
