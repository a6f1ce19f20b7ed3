// wire_p1_zipf: protocol P1 over real TCP loopback. Site threads run
// net::RunWireSite, the coordinator runs net::RunWireCoordinator on the
// calling thread, one connection per site; every run is checked
// bit-identical to the in-process oracle net::RunOracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accuracy.h"
#include "decorators.h"
#include "net/remote.h"
#include "net/transport.h"
#include "net/workload.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = dmt::net;

constexpr size_t kSites = 3;
constexpr size_t kReaders = 2;
constexpr size_t kArrivals = 2000000;
constexpr size_t kTinyArrivals = 8192;

struct Channels {
  std::vector<std::unique_ptr<net::Connection>> coordinator;  // accept order
  std::vector<std::unique_ptr<net::Connection>> site;         // by site id
};

// TCP listen, connect and accept for every site (part of set-up).
bool Connect(size_t num_sites, Channels* out, std::string* error) {
  auto listener = net::TcpListener::Listen(0, error);
  if (listener == nullptr) return false;
  out->site.resize(num_sites);
  std::vector<std::thread> dialers;
  for (size_t s = 0; s < num_sites; ++s) {
    dialers.emplace_back([&, s] {
      std::string dial_error;
      out->site[s] = net::TcpConnect("127.0.0.1", listener->port(),
                                     &dial_error);
    });
  }
  bool ok = true;
  for (size_t s = 0; s < num_sites && ok; ++s) {
    out->coordinator.push_back(listener->Accept(error));
    ok = out->coordinator.back() != nullptr;
  }
  for (std::thread& t : dialers) t.join();
  for (const auto& conn : out->site) ok = ok && conn != nullptr;
  if (!ok && error->empty()) *error = "connect failed";
  return ok;
}

struct WireRep {
  bool ok = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double generate_s = 0.0;
  uint64_t drain_sites = 0;
  net::WireProtocol coordinator;
  net::WireCoordinatorReport wire;
};

class WireBench {
 public:
  WireBench(const Options& options, Report* report)
      : options_(options), report_(report) {
    // WireRunConfig defaults (P1, eps 0.1, Zipf skew 2 over 16384
    // elements, weights in [1, 4], chunk 1024) with three sites.
    config_.num_sites = kSites;
    config_.n = options.tiny ? kTinyArrivals : kArrivals;
    config_.seed = options.seed;
  }

  void Run() {
    workload_ = net::MakeWireWorkload(config_);
    final_exact_.Advance(workload_.items, config_.n);
    read_truth_ =
        HHReadTruth(workload_.items, workload_.window_ends, config_.eps, 0);
    std::vector<double> oracle_s;
    for (int k = 0; k < (options_.trace ? 3 : 1); ++k) {
      const int64_t t0 = NowNs();
      oracle_ = net::RunOracle(config_, workload_);
      oracle_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    if (options_.trace) {
      RunTraced(Median(oracle_s));
    } else {
      RunEndToEnd();
    }
  }

 private:
  // Set-up (stream generation, site assignment, TCP accept/connect), then
  // one full wire run with site threads and the coordinator on this
  // thread. With `rec`, every connection and adapter is wrapped in a
  // tracing decorator.
  WireRep RunOnce(SpanRecorder* rec) {
    WireRep rep;
    workload_ = {};
    const int64_t s0 = NowNs();
    workload_ = net::MakeWireWorkload(config_);
    std::vector<std::vector<std::vector<uint32_t>>> windows(kSites);
    for (size_t s = 0; s < kSites; ++s) {
      windows[s] = net::SiteWindowIndices(workload_.sites, s,
                                          workload_.window_ends);
    }
    rep.generate_s = static_cast<double>(NowNs() - s0) * 1e-9;
    Channels ch;
    std::string error;
    if (!Connect(kSites, &ch, &error)) {
      report_->Gate(false, "wire set-up: " + error);
      return rep;
    }
    rep.setup_s = static_cast<double>(NowNs() - s0) * 1e-9;

    rep.coordinator = net::MakeWireProtocol(config_);
    std::vector<net::WireProtocol> sites(kSites);
    net::WireAdapter* coordinator_adapter = rep.coordinator.adapter.get();
    std::vector<net::WireAdapter*> site_adapters(kSites);
    std::vector<std::function<void(uint32_t)>> updates(kSites);
    for (size_t s = 0; s < kSites; ++s) {
      sites[s] = net::MakeWireProtocol(config_);
      site_adapters[s] = sites[s].adapter.get();
      updates[s] = net::MakeSiteUpdater(workload_, &sites[s], s);
    }

    std::optional<WireEndpointTrace> coordinator_trace;
    std::optional<TracedWireAdapter> traced_coordinator;
    std::vector<std::unique_ptr<WireEndpointTrace>> site_traces;
    std::vector<std::unique_ptr<TracedWireAdapter>> traced_sites;
    std::function<void(size_t)> on_window;
    if (rec != nullptr) {
      coordinator_trace.emplace(rec, true);
      traced_coordinator.emplace(coordinator_adapter, &*coordinator_trace);
      coordinator_adapter = &*traced_coordinator;
      for (auto& conn : ch.coordinator) {
        conn = std::make_unique<TracedConnection>(std::move(conn),
                                                  &*coordinator_trace);
      }
      on_window = [&](size_t) { coordinator_trace->EndWindow(); };
      for (size_t s = 0; s < kSites; ++s) {
        site_traces.push_back(std::make_unique<WireEndpointTrace>(rec, false));
        WireEndpointTrace* t = site_traces.back().get();
        traced_sites.push_back(
            std::make_unique<TracedWireAdapter>(site_adapters[s], t));
        site_adapters[s] = traced_sites.back().get();
        ch.site[s] = std::make_unique<TracedConnection>(std::move(ch.site[s]), t);
        updates[s] = [t, inner = std::move(updates[s])](uint32_t i) {
          t->OnArrival();
          inner(i);
        };
      }
    }

    // A failed endpoint closes its channel so its peer's blocking read
    // returns instead of hanging.
    std::vector<char> site_ok(kSites, 0);
    std::vector<std::thread> threads;
    const int64_t t0 = NowNs();
    if (coordinator_trace) coordinator_trace->window_start = t0;
    for (size_t s = 0; s < kSites; ++s) {
      threads.emplace_back([&, s] {
        std::string site_error;
        site_ok[s] = net::RunWireSite(site_adapters[s], s, windows[s],
                                      updates[s], ch.site[s].get(),
                                      &site_error);
        if (!site_ok[s]) ch.site[s]->Close();
      });
    }
    const bool coordinator_ok = net::RunWireCoordinator(
        coordinator_adapter, &ch.coordinator, workload_.window_ends.size(),
        &rep.wire, &error, on_window);
    if (!coordinator_ok) {
      for (auto& conn : ch.coordinator) {
        if (conn != nullptr) conn->Close();
      }
    }
    for (std::thread& t : threads) t.join();
    rep.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    rep.ok = coordinator_ok &&
             std::all_of(site_ok.begin(), site_ok.end(),
                         [](char ok) { return ok != 0; });
    if (!coordinator_ok) report_->Gate(false, "wire coordinator: " + error);
    if (coordinator_trace) rep.drain_sites = coordinator_trace->drain_sites;
    return rep;
  }

  // Untimed accuracy pass (accuracy.h) on the in-process oracle path,
  // which every wire run must reproduce bit for bit.
  void MeasureErr(SpanRecorder* rec) {
    net::WireProtocol p = net::MakeWireProtocol(config_);
    accuracy_ = MeasureAccuracy(p.hh.get(), workload_.sites, workload_.items,
                                1, config_.chunk,
                                workload_.window_ends.size(),
                                HHExact(config_.universe), rec);
    uint64_t over = 0;
    for (double e : accuracy_.errs) over += e <= config_.eps ? 0 : 1;
    report_->Count(accuracy_.errs.size(), over, "err <= eps at every window");
  }

  // The run completed, its coordinator is bit-identical to the oracle's
  // (sketch and CommStats), and err is within the paper's bound.
  void Check(const WireRep& rep, const std::string& what) {
    report_->Gate(rep.ok, what + ": completed");
    if (!rep.ok) return;
    const std::string diff =
        net::DiffWireProtocols(config_, oracle_, rep.coordinator);
    report_->Gate(diff.empty(), what + ": bit-identical to RunOracle " + diff);
    report_->Gate(final_exact_.Error(*rep.coordinator.hh) <= config_.eps,
                  what + ": err <= eps");
  }

  void RunEndToEnd() {
    MeasureErr(nullptr);
    std::vector<double> rates;
    std::vector<double> setup_s;
    std::vector<ReadSample> reads;
    dmt::serve::SnapshotStore idle_store;
    size_t stretch = 0;
    RepeatFor(options_.seconds, [&] {
      const WireRep rep = RunOnce(nullptr);
      Check(rep, "wire run");
      if (!rep.ok) return;
      rates.push_back(static_cast<double>(config_.n) / rep.wall_s);
      setup_s.push_back(rep.setup_s);
      // An idle-read stretch of a quarter of the run's time follows each
      // run, cycling through the accuracy pass's snapshots.
      const auto& snapshots = accuracy_.snapshots;
      reads.push_back(IdleRead(&idle_store,
                               *snapshots[stretch % snapshots.size()],
                               read_truth_, kReaders, 0.25 * rep.wall_s,
                               nullptr, options_.seed + stretch, report_));
      ++stretch;
    });
    PrintReps("wire run", rates);
    report_->Set("ingest_per_s", Median(rates));
    report_->Set("setup_s", Median(setup_s));
    report_->Set("messages",
                 static_cast<double>(oracle_.hh->comm_stats().total()));
    report_->Set("err", accuracy_.MeanErr());
    AddReadMetrics(reads, report_);
    report_->Set("peak_rss_mb", PeakRssMb());
  }

  std::map<std::string, double> Layers(const WireRep& rep,
                                       const std::vector<Span>& spans) {
    std::map<std::string, double> m;
    const double phase = WindowedWallSeconds(spans, "stream.site_phase");
    const double busy = TotalSeconds(spans, "stream.site_phase");
    const double recv = TotalSeconds(spans, "net.coord_recv");
    const double coord_send = TotalSeconds(spans, "net.coord_send");
    const double decode = TotalSeconds(spans, "net.decode");
    const auto& stats = rep.coordinator.hh->comm_stats();
    m["stream.windows"] = static_cast<double>(workload_.window_ends.size());
    m["stream.site_phase_s"] = phase;
    m["stream.lane_busy_s"] = busy;
    m["stream.lane_wait_s"] = static_cast<double>(kSites) * phase - busy;
    m["hh.drain_s"] = decode;
    m["hh.drain_sites"] = static_cast<double>(rep.drain_sites);
    m["hh.messages_up"] = static_cast<double>(stats.total_up());
    m["hh.broadcast_msgs"] = static_cast<double>(stats.broadcast_msgs);
    m["net.encode_s"] = TotalSeconds(spans, "net.encode");
    m["net.send_s"] = TotalSeconds(spans, "net.site_send") + coord_send;
    m["net.recv_wait_s"] = recv;
    m["net.decode_s"] = decode;
    m["net.frames_up"] = static_cast<double>(rep.wire.frames_received);
    m["net.bytes_up"] = static_cast<double>(rep.wire.total_bytes_up());
    m["net.bytes_down"] = static_cast<double>(rep.wire.total_bytes_down());
    m["net.window_rtt_us"] = Median(DurationsUs(spans, "net.window_rtt"));
    m["trace.coverage"] = (recv + coord_send + decode) / rep.wall_s;
    return m;
  }

  void RunTraced(double oracle_s) {
    // Untraced and traced runs alternate, so drift in machine speed lands
    // on both sides of trace.overhead.
    std::vector<double> untraced;
    std::vector<double> generate_s;
    std::vector<double> traced;
    std::vector<std::map<std::string, double>> layers;
    std::vector<Span> spans;
    RepeatFor(0.7 * options_.seconds, [&] {
      const WireRep plain = RunOnce(nullptr);
      Check(plain, "untraced wire run");
      SpanRecorder rec;
      const WireRep rep = RunOnce(&rec);
      Check(rep, "traced wire run");
      if (!plain.ok || !rep.ok) return;
      untraced.push_back(plain.wall_s);
      generate_s.push_back(plain.generate_s);
      traced.push_back(rep.wall_s);
      spans = rec.Collect();
      layers.push_back(Layers(rep, spans));
    });

    std::map<std::string, double> m = MedianOf(layers);
    m["net.oracle_s"] = oracle_s;
    std::printf("wire wall - oracle = %.6f s; coordinator Recv, Send and "
                "ApplyFrame spans cover %.6f s of the wall\n",
                Median(traced) - oracle_s,
                m["trace.coverage"] * Median(traced));
    m["stream.serial_ingest_per_s"] = static_cast<double>(config_.n) / oracle_s;
    SpanRecorder rec;
    MeasureErr(&rec);
    dmt::serve::SnapshotStore store;
    for (const auto& snapshot : accuracy_.snapshots) {
      IdleRead(&store, *snapshot, read_truth_, kReaders,
               0.1 * options_.seconds /
                   static_cast<double>(accuracy_.snapshots.size()),
               &rec, options_.seed, report_);
    }
    const std::vector<Span> read_spans = rec.Collect();
    AddServeSpanMetrics(read_spans, &m);
    m["serve.retired"] = static_cast<double>(store.retired_count());
    m["serve.reclaimed"] = static_cast<double>(store.reclaimed_count());
    spans.insert(spans.end(), read_spans.begin(), read_spans.end());
    m["data.generate_s"] = Median(generate_s);
    m["trace.overhead"] = Median(traced) / Median(untraced);
    for (const auto& [name, value] : m) report_->Set(name, value);
    EmitTrace(options_, spans);
  }

  const Options& options_;
  Report* report_;
  net::WireRunConfig config_;
  net::WireWorkload workload_;
  HHExact final_exact_{config_.universe};  // the whole stream
  ReadTruth read_truth_;
  Accuracy accuracy_;
  net::WireProtocol oracle_;
};

}  // namespace

void RunWireWorkload(const Options& options, Report* report) {
  WireBench(options, report).Run();
}

}  // namespace perfbench
