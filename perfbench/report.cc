#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Report::Gate(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Report::Count(uint64_t ops, uint64_t failures, const std::string& what) {
  attempted_ += ops;
  failed_ += failures;
  if (failures > 0) {
    std::fprintf(stderr, "gate failed: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(ops));
  }
}

void Report::Set(const std::string& name, double value) {
  Gate(std::isfinite(value), "finite " + name);
  values_[name] = std::isfinite(value) ? value : 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double frac) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(frac * static_cast<double>(v.size()));
  const size_t k = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

std::map<std::string, double> MedianOf(
    const std::vector<std::map<std::string, double>>& reps) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& rep : reps) {
    for (const auto& [name, value] : rep) columns[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : columns) out[name] = Median(std::move(values));
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
