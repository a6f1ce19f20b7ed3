#include "readers.h"

#include <algorithm>
#include <cmath>

#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Top-k answers come back in descending order; anything else is a wrong
// answer.
bool Descending(const std::vector<double>& v) {
  return std::is_sorted(v.rbegin(), v.rend());
}

}  // namespace

LatencyReservoir::LatencyReservoir(size_t capacity, uint64_t seed)
    : samples_(capacity, 0), state_(seed | 1) {}

void LatencyReservoir::Add(int64_t ns) {
  const uint32_t v = static_cast<uint32_t>(
      std::clamp<int64_t>(ns, 0, static_cast<int64_t>(UINT32_MAX)));
  if (seen_ < samples_.size()) {
    samples_[seen_] = v;
  } else {
    state_ ^= state_ << 13;  // xorshift64: cheap, and only picks slots
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const uint64_t j = state_ % (seen_ + 1);
    if (j < samples_.size()) samples_[j] = v;
  }
  ++seen_;
}

void LatencyReservoir::AppendUs(std::vector<double>* out) const {
  const size_t held = std::min<uint64_t>(seen_, samples_.size());
  for (size_t i = 0; i < held; ++i) out->push_back(samples_[i] * 1e-3);
}

bool ReadTruth::Check(uint64_t window_index, uint64_t items_ingested,
                      double answer) const {
  if (window_index == 0) return answer == 0.0;
  const auto it =
      std::lower_bound(boundary.begin(), boundary.end(), items_ingested);
  if (it == boundary.end() || *it != items_ingested) return false;
  const size_t k = static_cast<size_t>(it - boundary.begin());
  return std::isfinite(answer) &&
         std::abs(answer - exact[k]) <= slack[k] * (1.0 + 1e-9);
}

ReadTruth MatrixReadTruth(const std::vector<std::vector<double>>& rows,
                          const std::vector<size_t>& window_ends, double eps,
                          uint64_t seed) {
  ReadTruth t;
  t.matrix = true;
  const size_t d = rows.empty() ? 0 : rows[0].size();
  dmt::Rng rng(seed);
  double norm = 0.0;
  t.x.resize(d);
  for (double& v : t.x) {
    v = rng.NextGaussian();
    norm += v * v;
  }
  for (double& v : t.x) v /= std::sqrt(norm);
  double ax = 0.0;
  double frob = 0.0;
  size_t i = 0;
  for (size_t end : window_ends) {
    for (; i < end; ++i) {
      double dot = 0.0;
      for (size_t j = 0; j < d; ++j) {
        dot += rows[i][j] * t.x[j];
        frob += rows[i][j] * rows[i][j];
      }
      ax += dot * dot;
    }
    t.boundary.push_back(end);
    t.exact.push_back(ax);
    t.slack.push_back(eps * frob);
  }
  return t;
}

ReadTruth HHReadTruth(const std::vector<dmt::stream::WeightedUpdate>& items,
                      const std::vector<size_t>& window_ends, double eps,
                      uint64_t element) {
  ReadTruth t;
  t.element = element;
  double w = 0.0;
  double total = 0.0;
  size_t i = 0;
  for (size_t end : window_ends) {
    for (; i < end; ++i) {
      total += items[i].weight;
      if (items[i].element == element) w += items[i].weight;
    }
    t.boundary.push_back(end);
    t.exact.push_back(w);
    t.slack.push_back(eps * total);
  }
  return t;
}

ReaderGroup::ReaderGroup(dmt::serve::SnapshotStore* store,
                         const ReadTruth* truth, size_t count,
                         SpanRecorder* rec, uint64_t seed)
    : store_(store), truth_(truth), rec_(rec) {
  stats_.reserve(count);
  for (size_t r = 0; r < count; ++r) stats_.emplace_back(seed + r);
  threads_.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    threads_.emplace_back([this, r] { Loop(&stats_[r]); });
  }
}

ReaderGroup::~ReaderGroup() { Stop(); }

void ReaderGroup::Stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

uint64_t ReaderGroup::ops() const {
  uint64_t n = 0;
  for (const Stats& s : stats_) n += s.ops;
  return n;
}

uint64_t ReaderGroup::failed() const {
  uint64_t n = 0;
  for (const Stats& s : stats_) n += s.failed;
  return n;
}

std::vector<double> ReaderGroup::LatenciesUs() const {
  std::vector<double> out;
  for (const Stats& s : stats_) s.latency.AppendUs(&out);
  return out;
}

void ReaderGroup::Loop(Stats* stats) {
  dmt::serve::SnapshotReader reader(store_);
  // A pin held across windows: its checksum must not change while newer
  // snapshots publish.
  dmt::serve::SnapshotRef held;
  uint64_t held_checksum = 0;
  uint64_t last_window = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> top;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool traced = rec_ != nullptr && (ops & 1023) == 0;
    const uint64_t op_id = traced ? rec_->NewId() : 0;
    uint64_t window = 0;
    uint64_t items = 0;
    double answer = 0.0;
    bool nonempty = false;
    bool total_ok = true;
    top.clear();
    const int64_t t0 = NowNs();
    int64_t t_pinned = 0;
    {
      dmt::serve::SnapshotRef ref = reader.Acquire();
      if (traced) t_pinned = NowNs();
      const dmt::serve::QueryEngine engine(ref.get());
      window = engine.window_index();
      items = engine.items_ingested();
      if (truth_->matrix) {
        nonempty = engine.SketchRows() > 0;
        answer = engine.CovarianceQuadraticForm(truth_->x);
        top = engine.TopSingularValues(3);
      } else {
        nonempty = engine.TrackedCount() > 0;
        for (const dmt::serve::HHEntry& e : engine.TopK(8)) {
          top.push_back(e.weight);
        }
        answer = engine.ElementWeight(truth_->element);
        total_ok = engine.TotalWeight() >= answer;
      }
    }
    const int64_t t1 = NowNs();
    stats->latency.Add(t1 - t0);
    if (traced) {
      rec_->Record("serve.acquire", t0, t_pinned, 0, op_id);
      rec_->Record("serve.query_engine", t_pinned, t1, 0, op_id);
      rec_->Record("serve.read_op", t0, t1, 0, 0, op_id);
    }
    ++ops;

    bool ok = total_ok && window >= last_window &&
              truth_->Check(window, items, answer) && Descending(top) &&
              top.empty() != nonempty;
    if (window != last_window) {
      if (held) ok = ok && dmt::serve::SnapshotChecksum(*held) == held_checksum;
      held = reader.Acquire();
      held_checksum = dmt::serve::SnapshotChecksum(*held);
      ok = ok && held->window_index >= window;
      last_window = held->window_index;
    }
    if (!ok) ++failed;
  }
  if (held && dmt::serve::SnapshotChecksum(*held) != held_checksum) ++failed;
  stats->ops = ops;
  stats->failed = failed;
}

}  // namespace perfbench
