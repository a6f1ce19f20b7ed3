// The in-process workloads: mp1_pamap, p2_zipf and serve_mp1_pamap, each
// a protocol run through stream::SimulationDriver. Why each exists is in
// perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/synthetic_matrix.h"
#include "data/zipf.h"
#include "accuracy.h"
#include "decorators.h"
#include "hh/p2_threshold.h"
#include "matrix/mp1_batched_fd.h"
#include "serve/serving_coordinator.h"
#include "serve/snapshot.h"
#include "stream/router.h"
#include "stream/simulation_driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = dmt::serve;
namespace stream = dmt::stream;

struct DriverSpec {
  const char* name;
  size_t n;          // arrivals
  size_t tiny_n;     // arrivals at smoke-test size
  size_t num_sites;  // m
  size_t chunk;      // arrivals per synchronization window
  size_t threads;    // driver threads
  size_t readers;    // closed-loop reader threads
  double eps;
  bool matrix;       // MP1 on PAMAP-like rows, else P2 on Zipf items
  bool serve;        // publish every window, readers live during ingest
};

// 122880 = 30 x 4096 = 120 x 1024 rows: ~31 windows at chunk 4096 and
// ~120 publishes at chunk 1024. 8192000 = 1000 x 8192 items: ~10^3
// windows, so per-window dispatch dominates P2.
constexpr DriverSpec kSpecs[] = {
    {"mp1_pamap", 122880, 8192, 32, 4096, 4, 2, 0.1, true, false},
    {"p2_zipf", 8192000, 163840, 32, 8192, 4, 2, 0.01, false, false},
    {"serve_mp1_pamap", 122880, 8192, 32, 1024, 2, 2, 0.1, true, true},
};

// MP1 over PAMAP-like rows (d = 44).
struct MatrixFamily {
  static constexpr const char* kLayer = "matrix";
  using Protocol = dmt::matrix::MP1BatchedFD;
  using Traced = TracedMatrixProtocol;
  using Item = std::vector<double>;
  using Exact = MatrixExact;

  static std::vector<Item> Generate(size_t n, uint64_t seed) {
    dmt::data::SyntheticMatrixGenerator gen(
        dmt::data::SyntheticMatrixGenerator::PamapLike(seed));
    std::vector<Item> rows(n);
    for (Item& row : rows) row = gen.Next();
    return rows;
  }
  static Exact MakeExact(const std::vector<Item>& rows) {
    return MatrixExact(rows[0].size());
  }
  static ReadTruth MakeReadTruth(const std::vector<Item>& rows,
                                 const std::vector<size_t>& window_ends,
                                 double eps, uint64_t seed) {
    return MatrixReadTruth(rows, window_ends, eps, seed);
  }
  static void AttachProtocol(serve::ServingCoordinator* serving,
                             const Protocol* p) {
    serving->AttachMatrixProtocol(p);
  }
  static void AttachDriver(serve::ServingCoordinator* serving,
                           stream::SimulationDriver* driver,
                           const Protocol* p) {
    serving->AttachMatrix(driver, p);
  }
};

// P2 over Zipf(1.5) items from a universe of 10^5, weights in [1, 100].
struct HHFamily {
  static constexpr const char* kLayer = "hh";
  static constexpr uint64_t kUniverse = 100000;
  using Protocol = dmt::hh::P2Threshold;
  using Traced = TracedHHProtocol;
  using Item = stream::WeightedUpdate;
  using Exact = HHExact;

  static std::vector<Item> Generate(size_t n, uint64_t seed) {
    dmt::data::ZipfianStream zipf(kUniverse, 1.5, 100.0, seed);
    std::vector<Item> items(n);
    for (Item& item : items) {
      const dmt::data::WeightedItem w = zipf.Next();
      item = Item{w.element, w.weight};
    }
    return items;
  }
  static Exact MakeExact(const std::vector<Item>&) { return HHExact(kUniverse); }
  // The probe element 0 is the heaviest under the generator's ranking.
  static ReadTruth MakeReadTruth(const std::vector<Item>& items,
                                 const std::vector<size_t>& window_ends,
                                 double eps, uint64_t /*seed*/) {
    return HHReadTruth(items, window_ends, eps, 0);
  }
  static void AttachProtocol(serve::ServingCoordinator* serving,
                             const Protocol* p) {
    serving->AttachHHProtocol(p);
  }
  static void AttachDriver(serve::ServingCoordinator* serving,
                           stream::SimulationDriver* driver,
                           const Protocol* p) {
    serving->AttachHH(driver, p);
  }
};

template <typename Family>
struct Rep {
  double wall_s = 0.0;
  stream::CommStats comm;
  double err = 0.0;
  stream::SchedulerStats sched;
  size_t lanes = 0;
  uint64_t drain_sites = 0;
  size_t retired = 0;
  uint64_t reclaimed = 0;
  ReadSample reads;
};

template <typename Family>
class DriverBench {
 public:
  DriverBench(const DriverSpec& spec, const Options& options, Report* report)
      : spec_(spec),
        options_(options),
        report_(report),
        n_(options.tiny ? spec.tiny_n : spec.n) {}

  void Run() {
    Setup();
    if (options_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
  }

 private:
  // Set-up is stream generation plus site assignment, repeated so its
  // median is steady; the last copy is the one ingested.
  static constexpr int kSetups = 5;
  void Setup() {
    for (int k = 0; k < kSetups; ++k) {
      items_ = {};
      sites_ = {};
      const int64_t t0 = NowNs();
      items_ = Family::Generate(n_, options_.seed);
      stream::Router router(spec_.num_sites, stream::RoutingPolicy::kUniform,
                            options_.seed + 1);
      sites_ = stream::AssignSites(&router, n_);
      setup_s_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    const size_t used_sites =
        *std::max_element(sites_.begin(), sites_.end()) + 1;
    window_ends_ = stream::WindowEnds(n_, spec_.chunk, used_sites);
    exact_.emplace(Family::MakeExact(items_));
    exact_->Advance(items_, n_);
    read_truth_ =
        Family::MakeReadTruth(items_, window_ends_, spec_.eps, options_.seed);
  }

  // Untimed accuracy pass (accuracy.h): err at evenly spaced windows, each
  // gated against the paper's bound, and snapshots for the idle reads.
  void MeasureErr(SpanRecorder* rec) {
    typename Family::Protocol protocol(spec_.num_sites, spec_.eps);
    accuracy_ = MeasureAccuracy(&protocol, sites_, items_, spec_.threads,
                                spec_.chunk, window_ends_.size(),
                                Family::MakeExact(items_), rec);
    uint64_t over = 0;
    for (double e : accuracy_.errs) over += e <= spec_.eps ? 0 : 1;
    report_->Count(accuracy_.errs.size(), over, "err <= eps at every window");
  }

  // One ingest of the whole stream on a fresh protocol. With `rec`, the
  // protocol is reached through the tracing decorator and the window
  // callback closes window spans. On the serve workload a snapshot is
  // published every window while `readers` closed-loop readers query.
  Rep<Family> Ingest(size_t threads, size_t readers, SpanRecorder* rec) {
    Rep<Family> rep;
    typename Family::Protocol protocol(spec_.num_sites, spec_.eps);
    typename Family::Protocol* p = &protocol;
    stream::SimulationOptions sim;
    sim.threads = threads;
    sim.chunk_elements = spec_.chunk;
    stream::SimulationDriver driver(sim);
    serve::SnapshotStore store;
    serve::ServingCoordinator serving(&store);
    std::optional<DriverTrace> trace;
    std::optional<typename Family::Traced> traced;
    if (rec != nullptr) {
      trace.emplace(rec, spec_.num_sites);
      traced.emplace(p, &*trace);
      if (spec_.serve) Family::AttachProtocol(&serving, p);
      driver.set_window_callback([&](const stream::WindowEndInfo& info) {
        trace->EndWindow([&](uint64_t callback_id) {
          if (!spec_.serve) return;
          const int64_t t0 = NowNs();
          serving.PublishWindow(info.window_index, info.arrivals_total);
          rec->Record("serve.publish", t0, NowNs(), trace->window(),
                      callback_id);
        });
      });
    } else if (spec_.serve) {
      Family::AttachDriver(&serving, &driver, p);
    }

    ReaderGroup group(&store, &read_truth_, readers, rec, options_.seed);
    if (trace) trace->BeginRun();
    const int64_t t0 = NowNs();
    if (traced) {
      driver.Run(&*traced, sites_, items_);
    } else {
      driver.Run(p, sites_, items_);
    }
    rep.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    group.Stop();
    if (readers > 0) rep.reads = SummarizeReads(group, rep.wall_s, report_);
    driver.set_window_callback({});
    serving.Detach();

    rep.comm = p->comm_stats();
    rep.err = exact_->Error(*p);
    rep.sched = driver.scheduler_stats();
    rep.lanes = driver.threads();
    rep.drain_sites = trace ? trace->drain_sites() : 0;
    rep.retired = store.retired_count();
    rep.reclaimed = store.reclaimed_count();
    return rep;
  }

  // err within the paper's bound, and messages and err bit-identical to
  // the first ingest of this run — across repetitions, thread counts and
  // traced versus untraced runs.
  void Check(const Rep<Family>& rep, const std::string& what) {
    report_->Gate(rep.err <= spec_.eps, what + ": err <= eps");
    if (!ref_) {
      ref_.emplace(rep.comm.total(), rep.err);
      return;
    }
    report_->Gate(rep.comm.total() == ref_->first &&
                      SameBits(rep.err, ref_->second),
                  what + ": messages and err repeat exactly");
  }

  void RunEndToEnd() {
    MeasureErr(nullptr);
    std::vector<double> rates;
    std::vector<ReadSample> reads;
    serve::SnapshotStore idle_store;
    size_t stretch = 0;
    RepeatFor(options_.seconds, [&] {
      const Rep<Family> rep =
          Ingest(spec_.threads, spec_.serve ? spec_.readers : 0, nullptr);
      Check(rep, "ingest");
      rates.push_back(static_cast<double>(n_) / rep.wall_s);
      if (spec_.serve) {
        reads.push_back(rep.reads);
        return;
      }
      // Without live readers, an idle-read stretch of a quarter of the
      // ingest's time follows each ingest, cycling through the accuracy
      // pass's snapshots, so reads sample the whole run as ingests do.
      const auto& snapshots = accuracy_.snapshots;
      reads.push_back(IdleRead(&idle_store,
                               *snapshots[stretch % snapshots.size()],
                               read_truth_, spec_.readers, 0.25 * rep.wall_s,
                               nullptr, options_.seed + stretch, report_));
      ++stretch;
    });
    PrintReps("ingest", rates);
    report_->Set("ingest_per_s", Median(rates));
    report_->Set("setup_s", Median(setup_s_));
    report_->Set("messages", static_cast<double>(ref_->first));
    report_->Set("err", accuracy_.MeanErr());
    AddReadMetrics(reads, report_);
    report_->Set("peak_rss_mb", PeakRssMb());
  }

  std::map<std::string, double> Layers(const Rep<Family>& rep,
                                       const std::vector<Span>& spans) {
    std::map<std::string, double> m;
    const double phase = WindowedWallSeconds(spans, "stream.site_phase");
    const double busy = TotalSeconds(spans, "stream.site_phase");
    const double drain = TotalSeconds(spans, "protocol.drain");
    const double callback = TotalSeconds(spans, "stream.window_callback");
    m["stream.windows"] = static_cast<double>(rep.sched.windows);
    m["stream.site_phase_s"] = phase;
    m["stream.lane_busy_s"] = busy;
    m["stream.lane_wait_s"] = static_cast<double>(rep.lanes) * phase - busy;
    m["stream.batches_reserved"] =
        static_cast<double>(rep.sched.batches_reserved);
    const std::string layer = Family::kLayer;
    m[layer + ".drain_s"] = drain;
    m[layer + ".drain_sites"] = static_cast<double>(rep.drain_sites);
    m[layer + ".messages_up"] = static_cast<double>(rep.comm.total_up());
    m[layer + ".broadcast_msgs"] =
        static_cast<double>(rep.comm.broadcast_msgs);
    m["serve.retired"] = static_cast<double>(rep.retired);
    m["serve.reclaimed"] = static_cast<double>(rep.reclaimed);
    AddServeSpanMetrics(spans, &m);
    m["trace.coverage"] = (phase + drain + callback) / rep.wall_s;
    return m;
  }

  void RunTraced() {
    const size_t readers = spec_.serve ? spec_.readers : 0;
    // Untraced and traced ingests alternate, so drift in machine speed
    // lands on both sides of trace.overhead.
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<std::map<std::string, double>> layers;
    std::vector<Span> spans;
    RepeatFor(0.7 * options_.seconds, [&] {
      const Rep<Family> plain = Ingest(spec_.threads, readers, nullptr);
      Check(plain, "untraced ingest");
      untraced.push_back(plain.wall_s);
      SpanRecorder rec;
      const Rep<Family> rep = Ingest(spec_.threads, readers, &rec);
      Check(rep, "traced ingest");
      traced.push_back(rep.wall_s);
      spans = rec.Collect();
      layers.push_back(Layers(rep, spans));
    });
    const Rep<Family> serial = Ingest(1, 0, nullptr);
    Check(serial, "single-thread ingest");

    std::map<std::string, double> m = MedianOf(layers);
    m["stream.serial_ingest_per_s"] = static_cast<double>(n_) / serial.wall_s;
    if (!spec_.serve) {
      // Build the accuracy pass's snapshots, then read each with no
      // writer running.
      SpanRecorder rec;
      MeasureErr(&rec);
      serve::SnapshotStore store;
      for (const auto& snapshot : accuracy_.snapshots) {
        IdleRead(&store, *snapshot, read_truth_, spec_.readers,
                 0.1 * options_.seconds /
                     static_cast<double>(accuracy_.snapshots.size()),
                 &rec, options_.seed, report_);
      }
      const std::vector<Span> read_spans = rec.Collect();
      AddServeSpanMetrics(read_spans, &m);
      m["serve.retired"] = static_cast<double>(store.retired_count());
      m["serve.reclaimed"] = static_cast<double>(store.reclaimed_count());
      spans.insert(spans.end(), read_spans.begin(), read_spans.end());
    }
    m["data.generate_s"] = Median(setup_s_);
    m["trace.overhead"] = Median(traced) / Median(untraced);
    for (const auto& [name, value] : m) report_->Set(name, value);
    EmitTrace(options_, spans);
  }

  const DriverSpec& spec_;
  const Options& options_;
  Report* report_;
  const size_t n_;
  std::vector<typename Family::Item> items_;
  std::vector<size_t> sites_;
  std::vector<size_t> window_ends_;
  std::vector<double> setup_s_;
  std::optional<typename Family::Exact> exact_;  // the whole stream
  ReadTruth read_truth_;
  Accuracy accuracy_;
  std::optional<std::pair<uint64_t, double>> ref_;  // messages, err
};

}  // namespace

bool RunDriverWorkload(const Options& options, Report* report) {
  for (const DriverSpec& spec : kSpecs) {
    if (options.workload != spec.name) continue;
    if (spec.matrix) {
      DriverBench<MatrixFamily>(spec, options, report).Run();
    } else {
      DriverBench<HHFamily>(spec, options, report).Run();
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
