#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_generation{1};

// Each thread remembers its buffer in the recorder it last used; the
// generation guards against a new recorder reusing a dead one's address.
struct ThreadCache {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

// Length of the union of [start, end) intervals, each clipped to
// [lo, hi).
double CoveredSeconds(std::vector<std::pair<int64_t, int64_t>>* iv,
                      int64_t lo, int64_t hi) {
  std::sort(iv->begin(), iv->end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (auto [s, e] : *iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer* SpanRecorder::Local() {
  if (t_cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(4096);
    t_cache.generation = generation_;
    t_cache.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(t_cache.buffer);
}

void SpanRecorder::Record(const char* name, int64_t start_ns, int64_t end_ns,
                          uint32_t window, uint64_t parent, uint64_t id) {
  Buffer* buffer = Local();
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.window = window;
  span.thread = buffer->thread;
  buffer->spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    LayerTime& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.count;
    t.total_s += dur;
    auto it = children.find(s.id);
    t.self_s += it == children.end()
                    ? dur
                    : dur - CoveredSeconds(&it->second, s.start_ns, s.end_ns);
  }
  return out;
}

double TotalSeconds(const std::vector<Span>& spans, const char* name) {
  const std::string key = name;
  int64_t total = 0;
  for (const Span& s : spans) {
    if (key == s.name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  const std::string key = name;
  std::vector<double> out;
  for (const Span& s : spans) {
    if (key == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

double WindowedWallSeconds(const std::vector<Span>& spans, const char* name) {
  const std::string key = name;
  std::map<uint32_t, std::pair<int64_t, int64_t>> extent;
  for (const Span& s : spans) {
    if (key != s.name) continue;
    auto [it, inserted] =
        extent.emplace(s.window, std::make_pair(s.start_ns, s.end_ns));
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  int64_t total = 0;
  for (const auto& [window, e] : extent) total += e.second - e.first;
  return static_cast<double>(total) * 1e-9;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"window\":%u}}%s\n",
                 s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.window,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
