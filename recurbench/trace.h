// In-memory span tracer for the benchmark's traced pass.
//
// The benchmark wraps each public call it makes into a layer of recur in a
// Span. A span records its layer, name, start, end, the span that was open
// on the same thread when it began (its parent) and the operation id of
// the user-level request it serves. Spans go to per-thread buffers and are
// collected with Drain() after the worker threads have joined; nothing is
// written while a run measures. With tracing disabled a Span is a branch.
#ifndef RECURBENCH_TRACE_H_
#define RECURBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace recurbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t op = 0;      // 0: not part of a user-level operation
  const char* layer = "";
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  // A fresh id for one user-level operation.
  static uint64_t NewOp();
  // Every span recorded so far, from all threads; clears the buffers.
  static std::vector<SpanRecord> Drain();
  static int64_t NowNs();
};

// Marks the calling thread's spans as serving operation `op` while alive.
class OpScope {
 public:
  explicit OpScope(uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint64_t saved_;
};

class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  uint64_t saved_parent_ = 0;
  bool on_ = false;
};

// Self time of each span: its duration minus the part of its interval
// that the union of its children's intervals covers. Children may nest,
// overlap each other (calls on other threads parented here) or run past
// the parent's end; only the covered part inside the parent counts.
std::map<uint64_t, int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

struct LayerTime {
  int64_t spans = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// Total and self time per layer.
std::map<std::string, LayerTime> ByLayer(const std::vector<SpanRecord>& spans);

// Durations of the spans with this layer and name, in nanoseconds.
std::vector<double> DurationsNs(const std::vector<SpanRecord>& spans,
                                const std::string& layer,
                                const std::string& name);

}  // namespace recurbench

#endif  // RECURBENCH_TRACE_H_
