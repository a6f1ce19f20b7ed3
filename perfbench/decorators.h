// Forwarding decorators that time the library's layer boundaries from
// outside, for the benchmark's traced pass.
//
//  - TracedMatrixProtocol / TracedHHProtocol wrap a protocol behind the
//    interface the SimulationDriver calls: the (site, window) site-phase
//    span runs from the site's first SiteUpdate of the window to the
//    PendingOutboxSize call the driver makes right after its last one, on
//    the same thread, so no clock is read per row; SynchronizeSites is the
//    coordinator drain. DriverTrace::EndWindow runs inside the driver's
//    window callback and closes the window span.
//  - TracedConnection wraps a net::Connection (Send / Recv) and
//    TracedWireAdapter a net::WireAdapter (EncodeWindow on a site,
//    ApplyFrame on the coordinator, the broadcast round trip on a site).
//
// Every decorator forwards every call unchanged, so a traced run must
// produce the same messages and estimates as an untraced one; the
// benchmark checks that.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"
#include "net/remote.h"
#include "net/transport.h"
#include "trace.h"

namespace perfbench {

constexpr int64_t kClosed = -1;

/// Span state of one traced SimulationDriver run.
class DriverTrace {
 public:
  DriverTrace(SpanRecorder* rec, size_t num_sites)
      : rec_(rec), site_start_(num_sites, kClosed) {}

  /// Coordinator thread, right before driver.Run: opens window 1.
  void BeginRun() {
    window_start_ = NowNs();
    window_id_ = rec_->NewId();
    window_.store(1, std::memory_order_relaxed);
  }

  /// Site thread, before every SiteUpdate: opens the (site, window) span
  /// on the window's first arrival.
  void OnArrival(size_t site) {
    if (site_start_[site] == kClosed) site_start_[site] = NowNs();
  }

  /// Site thread, after PendingOutboxSize: closes the (site, window) span.
  void OnSiteDone(size_t site) {
    if (site_start_[site] == kClosed) return;
    rec_->Record("stream.site_phase", site_start_[site], NowNs(), window());
    site_start_[site] = kClosed;
  }

  /// Coordinator thread: times one drain of `count` listed sites.
  template <typename Drain>
  void TimeDrain(size_t count, const Drain& drain) {
    const int64_t t0 = NowNs();
    drain();
    rec_->Record("protocol.drain", t0, NowNs(), window(), window_id_);
    drain_sites_ += count;
  }

  /// Coordinator thread, inside the driver's window callback: runs
  /// `body(callback_span_id)`, then closes this window and opens the next.
  template <typename Body>
  void EndWindow(const Body& body) {
    const uint32_t w = window();
    const uint64_t callback_id = rec_->NewId();
    const int64_t t0 = NowNs();
    body(callback_id);
    const int64_t t1 = NowNs();
    rec_->Record("stream.window_callback", t0, t1, w, window_id_,
                 callback_id);
    rec_->Record("stream.window", window_start_, t1, w, 0, window_id_);
    window_start_ = t1;
    window_id_ = rec_->NewId();
    window_.store(w + 1, std::memory_order_relaxed);
  }

  uint32_t window() const { return window_.load(std::memory_order_relaxed); }
  uint64_t drain_sites() const { return drain_sites_; }

 private:
  SpanRecorder* rec_;
  // One slot per site; within a window a site runs on one thread only,
  // and the driver's window barrier orders windows.
  std::vector<int64_t> site_start_;
  // Written by the coordinator between windows, read by site threads.
  std::atomic<uint32_t> window_{0};
  // Coordinator thread only.
  int64_t window_start_ = 0;
  uint64_t window_id_ = 0;
  uint64_t drain_sites_ = 0;
};

/// MatrixTrackingProtocol decorator feeding a DriverTrace.
class TracedMatrixProtocol final : public dmt::matrix::MatrixTrackingProtocol {
 public:
  TracedMatrixProtocol(dmt::matrix::MatrixTrackingProtocol* inner,
                       DriverTrace* trace)
      : inner_(inner), trace_(trace) {}

  void ProcessRow(size_t site, const std::vector<double>& row) override {
    inner_->ProcessRow(site, row);
  }
  void SiteUpdate(size_t site, const std::vector<double>& row) override {
    trace_->OnArrival(site);
    inner_->SiteUpdate(site, row);
  }
  void Synchronize() override {
    trace_->TimeDrain(0, [&] { inner_->Synchronize(); });
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    trace_->TimeDrain(count, [&] { inner_->SynchronizeSites(sites, count); });
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    const size_t pending = inner_->PendingOutboxSize(site);
    trace_->OnSiteDone(site);
    return pending;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  dmt::linalg::Matrix CoordinatorSketch() const override {
    return inner_->CoordinatorSketch();
  }
  dmt::linalg::Matrix CoordinatorGram() const override {
    return inner_->CoordinatorGram();
  }
  dmt::linalg::Matrix ExportSnapshotSketch() const override {
    return inner_->ExportSnapshotSketch();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }

 private:
  dmt::matrix::MatrixTrackingProtocol* inner_;
  DriverTrace* trace_;
};

/// HeavyHitterProtocol decorator feeding a DriverTrace.
class TracedHHProtocol final : public dmt::hh::HeavyHitterProtocol {
 public:
  TracedHHProtocol(dmt::hh::HeavyHitterProtocol* inner, DriverTrace* trace)
      : inner_(inner), trace_(trace) {}

  void Process(size_t site, uint64_t element, double weight) override {
    inner_->Process(site, element, weight);
  }
  void SiteUpdate(size_t site, uint64_t element, double weight) override {
    trace_->OnArrival(site);
    inner_->SiteUpdate(site, element, weight);
  }
  void Synchronize() override {
    trace_->TimeDrain(0, [&] { inner_->Synchronize(); });
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    trace_->TimeDrain(count, [&] { inner_->SynchronizeSites(sites, count); });
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    const size_t pending = inner_->PendingOutboxSize(site);
    trace_->OnSiteDone(site);
    return pending;
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  double EstimateElementWeight(uint64_t element) const override {
    return inner_->EstimateElementWeight(element);
  }
  double EstimateTotalWeight() const override {
    return inner_->EstimateTotalWeight();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }
  std::vector<uint64_t> TrackedElements() const override {
    return inner_->TrackedElements();
  }
  std::vector<dmt::hh::HHSnapshotEntry> ExportSnapshotEntries()
      const override {
    return inner_->ExportSnapshotEntries();
  }

 private:
  dmt::hh::HeavyHitterProtocol* inner_;
  DriverTrace* trace_;
};

/// Span state of one wire endpoint (one site thread, or the coordinator
/// thread). Touched only by the endpoint's own thread.
struct WireEndpointTrace {
  WireEndpointTrace(SpanRecorder* rec, bool coordinator)
      : rec(rec),
        coordinator(coordinator),
        window_start(NowNs()),
        window_id(coordinator ? rec->NewId() : 0) {}

  /// Coordinator: the 1-based window being drained. Site: the window
  /// whose arrivals the site is applying.
  uint32_t window = 1;

  SpanRecorder* rec;
  bool coordinator;
  int64_t window_start;          // coordinator: when this window began
  uint64_t window_id;            // coordinator: this window's span id
  int64_t phase_start = kClosed; // site: first arrival of the window
  int64_t encode_end = kClosed;  // site: window batch encoded
  uint32_t last_frame_site = UINT32_MAX;  // coordinator: drain-site count
  uint32_t last_frame_window = 0;
  uint64_t drain_sites = 0;

  /// Site: called before every arrival is applied.
  void OnArrival() {
    if (phase_start == kClosed) phase_start = NowNs();
  }

  /// Coordinator: RunWireCoordinator's on_window hook.
  void EndWindow() {
    const int64_t t = NowNs();
    rec->Record("net.coord_window", window_start, t, window, 0, window_id);
    window_start = t;
    window_id = rec->NewId();
    ++window;
  }
};

/// net::Connection decorator timing every Send and Recv.
class TracedConnection final : public dmt::net::Connection {
 public:
  TracedConnection(std::unique_ptr<dmt::net::Connection> inner,
                   WireEndpointTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  bool Send(const uint8_t* data, size_t n) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_->Send(data, n);
    Record(trace_->coordinator ? "net.coord_send" : "net.site_send", t0);
    if (ok) CountSent(n);
    return ok;
  }
  bool Recv(uint8_t* data, size_t n) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_->Recv(data, n);
    Record(trace_->coordinator ? "net.coord_recv" : "net.site_recv", t0);
    if (ok) CountReceived(n);
    return ok;
  }
  void Close() override { inner_->Close(); }

 private:
  void Record(const char* name, int64_t t0) {
    trace_->rec->Record(name, t0, NowNs(), trace_->window, trace_->window_id);
  }

  std::unique_ptr<dmt::net::Connection> inner_;
  WireEndpointTrace* trace_;
};

/// net::WireAdapter decorator: EncodeWindow and the broadcast round trip
/// on a site, ApplyFrame (payload decode plus the coordinator's protocol
/// half) on the coordinator.
class TracedWireAdapter final : public dmt::net::WireAdapter {
 public:
  TracedWireAdapter(dmt::net::WireAdapter* inner, WireEndpointTrace* trace)
      : inner_(inner), trace_(trace) {}

  std::string protocol_name() const override {
    return inner_->protocol_name();
  }
  size_t num_sites() const override { return inner_->num_sites(); }

  void EncodeWindow(size_t site, dmt::net::FrameBatch* batch) override {
    const int64_t t0 = NowNs();
    if (trace_->phase_start != kClosed) {
      trace_->rec->Record("stream.site_phase", trace_->phase_start, t0,
                          trace_->window);
      trace_->phase_start = kClosed;
    }
    inner_->EncodeWindow(site, batch);
    trace_->encode_end = NowNs();
    trace_->rec->Record("net.encode", t0, trace_->encode_end, trace_->window);
  }
  void ApplyBroadcast(size_t site, double value) override {
    trace_->rec->Record("net.window_rtt", trace_->encode_end, NowNs(),
                        trace_->window);
    inner_->ApplyBroadcast(site, value);
    ++trace_->window;
  }
  bool ApplyFrame(size_t site, dmt::net::MsgType type, const uint8_t* payload,
                  size_t n, std::string* error) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_->ApplyFrame(site, type, payload, n, error);
    trace_->rec->Record("net.decode", t0, NowNs(), trace_->window,
                        trace_->window_id);
    if (site != trace_->last_frame_site ||
        trace_->window != trace_->last_frame_window) {
      trace_->last_frame_site = static_cast<uint32_t>(site);
      trace_->last_frame_window = trace_->window;
      ++trace_->drain_sites;
    }
    return ok;
  }
  double BroadcastValue() const override { return inner_->BroadcastValue(); }

 private:
  dmt::net::WireAdapter* inner_;
  WireEndpointTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
