// The accuracy pass: one untimed ingest whose window callback measures
// the protocol's error against the exact stream prefix at evenly spaced
// window boundaries. The paper's guarantees hold at all times, so every
// measured boundary is gated, and the reported err is their mean — the
// error a continuous user sees, which varies far less from stream to
// stream than the error at one final instant. The pass also keeps
// snapshots of a few boundaries for the idle-read phase.
#ifndef PERFBENCH_ACCURACY_H_
#define PERFBENCH_ACCURACY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/zipf.h"
#include "hh/hh_protocol.h"
#include "matrix/error.h"
#include "matrix/matrix_protocol.h"
#include "serve/snapshot.h"
#include "stream/simulation_driver.h"
#include "trace.h"

namespace perfbench {

/// Exact covariance of a row-stream prefix; err = ‖AᵀA − BᵀB‖₂/‖A‖²_F.
class MatrixExact {
 public:
  explicit MatrixExact(size_t dim) : cov_(dim) {}
  void Advance(const std::vector<std::vector<double>>& rows, size_t end) {
    for (; absorbed_ < end; ++absorbed_) cov_.AddRow(rows[absorbed_]);
  }
  double Error(const dmt::matrix::MatrixTrackingProtocol& p) const {
    return dmt::matrix::CovarianceError(cov_, p.CoordinatorGram());
  }

 private:
  dmt::matrix::CovarianceTracker cov_;
  size_t absorbed_ = 0;
};

/// Exact weights of an item-stream prefix; err = max_e |Ŵ(e) − W(e)|/W
/// over the element universe [0, universe).
class HHExact {
 public:
  explicit HHExact(uint64_t universe) : universe_(universe) {}
  void Advance(const std::vector<dmt::stream::WeightedUpdate>& items,
               size_t end) {
    for (; absorbed_ < end; ++absorbed_) {
      const auto& item = items[absorbed_];
      exact_.Observe(dmt::data::WeightedItem{item.element, item.weight});
    }
  }
  double Error(const dmt::hh::HeavyHitterProtocol& p) const {
    double worst = 0.0;
    for (uint64_t e = 0; e < universe_; ++e) {
      worst = std::max(worst,
                       std::abs(p.EstimateElementWeight(e) - exact_.Weight(e)));
    }
    return worst / exact_.total_weight();
  }

 private:
  uint64_t universe_;
  dmt::data::ExactWeights exact_;
  size_t absorbed_ = 0;
};

struct Accuracy {
  std::vector<double> errs;  // one per measured boundary, in order
  std::vector<std::unique_ptr<const dmt::serve::Snapshot>> snapshots;

  double MeanErr() const {
    double sum = 0.0;
    for (double e : errs) sum += e;
    return errs.empty() ? 0.0 : sum / static_cast<double>(errs.size());
  }
};

/// `count` window indices (0-based) evenly spaced over `windows`, the
/// last window always included.
inline std::vector<bool> EvenlySpaced(size_t windows, size_t count) {
  std::vector<bool> picked(windows, false);
  count = std::min(count, windows);
  for (size_t k = 1; k <= count; ++k) picked[k * windows / count - 1] = true;
  return picked;
}

/// Runs `protocol` over the stream with `threads` driver threads and
/// measures err at 64 evenly spaced window boundaries (all of them when
/// there are fewer), keeping snapshots of 8. With `rec`, each snapshot
/// build is recorded as a serve.publish span.
template <typename Protocol, typename Item, typename Exact>
Accuracy MeasureAccuracy(Protocol* protocol, const std::vector<size_t>& sites,
                         const std::vector<Item>& items, size_t threads,
                         size_t chunk, size_t num_windows, Exact exact,
                         SpanRecorder* rec) {
  Accuracy out;
  const std::vector<bool> measured = EvenlySpaced(num_windows, 64);
  const std::vector<bool> kept = EvenlySpaced(num_windows, 8);
  dmt::stream::SimulationOptions sim;
  sim.threads = threads;
  sim.chunk_elements = chunk;
  dmt::stream::SimulationDriver driver(sim);
  driver.set_window_callback([&](const dmt::stream::WindowEndInfo& info) {
    const size_t w = info.window_index - 1;
    if (!measured[w]) return;  // `kept` is a subset of `measured`
    exact.Advance(items, info.arrivals_total);
    out.errs.push_back(exact.Error(*protocol));
    if (kept[w]) {
      const int64_t t0 = NowNs();
      out.snapshots.push_back(dmt::serve::BuildSnapshot(
          *protocol, info.window_index, info.arrivals_total));
      if (rec != nullptr) {
        rec->Record("serve.publish", t0, NowNs(),
                    static_cast<uint32_t>(info.window_index));
      }
    }
  });
  driver.Run(protocol, sites, items);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_ACCURACY_H_
