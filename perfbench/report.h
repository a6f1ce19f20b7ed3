// Result accumulation for one benchmark run: correctness gates, named
// metrics with units, and the statistics helpers the workloads share.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;       // smoke-test sizes
  std::string trace_dir;   // where the traced pass writes its spans
};

/// Gates and metrics of one run.
class Report {
 public:
  /// One checked operation; a false `ok` counts as failed and is logged
  /// to stderr with `what`.
  void Gate(bool ok, const std::string& what);
  /// `ops` checked operations of which `failures` failed.
  void Count(uint64_t ops, uint64_t failures, const std::string& what);
  /// Sets a metric's value; units come from the metric table in main.cc.
  void Set(const std::string& name, double value);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile, `frac` in (0, 1] (0 when empty).
double Percentile(std::vector<double> v, double frac);
/// Element-wise medians of per-repetition metric maps.
std::map<std::string, double> MedianOf(
    const std::vector<std::map<std::string, double>>& reps);
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Bit-exact double equality (the determinism gates compare bits).
bool SameBits(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
