#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace recurbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_op{1};

struct Buffer {
  std::vector<SpanRecord> spans;
};

std::mutex g_mutex;
std::vector<std::shared_ptr<Buffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<Buffer>>();
  return *buffers;
}

Buffer& LocalBuffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_mutex);
    Buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_op = 0;

}  // namespace

void Tracer::SetEnabled(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t Tracer::NewOp() { return g_next_op.fetch_add(1); }

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& b : Buffers()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

OpScope::OpScope(uint64_t op) : saved_(t_current_op) { t_current_op = op; }
OpScope::~OpScope() { t_current_op = saved_; }

Span::Span(const char* layer, const char* name) {
  if (!Tracer::enabled()) return;
  on_ = true;
  rec_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current_span;
  rec_.op = t_current_op;
  rec_.layer = layer;
  rec_.name = name;
  saved_parent_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = Tracer::NowNs();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = Tracer::NowNs();
  t_current_span = saved_parent_;
  LocalBuffer().spans.push_back(rec_);
}

std::map<uint64_t, int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      child_intervals;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    const int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    const int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (lo < hi) child_intervals[s.parent].emplace_back(lo, hi);
  }
  std::map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = child_intervals.find(s.id);
    if (it != child_intervals.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_lo = iv.front().first, run_hi = iv.front().second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > run_hi) {
          covered += run_hi - run_lo;
          run_lo = iv[i].first;
          run_hi = iv[i].second;
        } else {
          run_hi = std::max(run_hi, iv[i].second);
        }
      }
      covered += run_hi - run_lo;
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, LayerTime> ByLayer(
    const std::vector<SpanRecord>& spans) {
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  std::map<std::string, LayerTime> layers;
  for (const SpanRecord& s : spans) {
    LayerTime& t = layers[s.layer];
    ++t.spans;
    t.total_ns += s.duration_ns();
    t.self_ns += self.at(s.id);
  }
  return layers;
}

std::vector<double> DurationsNs(const std::vector<SpanRecord>& spans,
                                const std::string& layer,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (layer == s.layer && name == s.name) {
      out.push_back(static_cast<double>(s.duration_ns()));
    }
  }
  return out;
}

}  // namespace recurbench
