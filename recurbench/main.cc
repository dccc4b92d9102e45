// recurbench: the recur benchmark binary.
//
//   recurbench --workload closure|resident|ingest --seed N --seconds S
//              --trace 0|1 --work-dir DIR [--commit ID]
//   recurbench --self-test
//
// Prints a human-readable report, then, as its last line, "REPORT " and
// the whole report as one JSON object (metrics by name with unit and
// sample count, output checks, stamp). Exit code 0 when every output
// check passed, 1 when one failed, 3 when the run is invalid (an open
// loop whose backlog grew), 2 on a usage or set-up error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"

namespace recurbench {

// ---------------------------------------------------------------- helpers

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what, const recur::Status& s) {
  std::cerr << "recurbench: " << what << " failed: " << s.ToString() << "\n";
  std::exit(2);
}

std::string SortedRowsBytes(const ra::Relation& rel) {
  std::vector<ra::Tuple> rows;
  rows.reserve(rel.size());
  for (ra::TupleRef row : rel.rows()) rows.push_back(row.ToTuple());
  std::sort(rows.begin(), rows.end());
  std::string bytes;
  bytes.reserve(rows.size() * rel.arity() * sizeof(ra::Value));
  for (const ra::Tuple& t : rows) {
    bytes.append(reinterpret_cast<const char*>(t.data()),
                 t.size() * sizeof(ra::Value));
  }
  return bytes;
}

eval::EdbDeltas OneTuple(SymbolId pred, ra::Value a, ra::Value b,
                         bool insert) {
  eval::EdbDeltas deltas;
  eval::EdbDelta d(2);
  (insert ? d.inserts : d.deletes).Insert({a, b});
  deltas.emplace(pred, std::move(d));
  return deltas;
}

// ---------------------------------------------------------------- report

void Report::E2e(const std::string& name, const std::string& unit,
                 std::optional<double> value, size_t samples,
                 const std::string& note) {
  e2e.push_back({name, unit, value, samples, note});
}

void Report::Layer(const std::string& name, const std::string& unit,
                   std::optional<double> value, size_t samples,
                   const std::string& note) {
  layers.push_back({name, unit, value, samples, note});
}

void Report::AddCheck(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.push_back({name, ok, detail});
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp.emplace_back(key, value);
}

void Report::Invalidate(const std::string& reason) {
  if (invalid_reason.empty()) invalid_reason = reason;
}

void Report::Kind(const std::string& name, std::optional<double> p50_us) {
  kinds.emplace_back(name, p50_us);
}

bool Report::all_checks_ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

std::optional<double> Report::KindGeoMean() const {
  std::vector<std::optional<double>> xs;
  for (const auto& k : kinds) xs.push_back(k.second);
  return GeoMean(xs);
}

void AddTail(Report* report, const std::string& name, const std::string& unit,
             const Samples& s, double q) {
  const std::optional<double> v = s.TailQuantile(q);
  report->E2e(name, unit, v, s.size(),
              v ? "" : "absent: fewer than 10 samples beyond it");
}

namespace {

// ---------------------------------------------------------------- output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(std::optional<double> v) {
  if (!v.has_value() || !std::isfinite(*v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples);
    if (!m.note.empty()) out += ", \"note\": " + JsonString(m.note);
    out += "}";
  }
  return out + "}";
}

std::string ReportJson(const RunConfig& cfg, const Report& r) {
  std::string out = "{\"workload\": " + JsonString(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"trace\": " + (cfg.trace ? "true" : "false");
  out += ", \"stamp\": {";
  for (size_t i = 0; i < r.stamp.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.stamp[i].first) + ": " + JsonString(r.stamp[i].second);
  }
  out += "}, \"correct\": ";
  out += r.all_checks_ok() ? "true" : "false";
  out += ", \"invalid\": " +
         (r.invalid_reason.empty() ? std::string("null")
                                   : JsonString(r.invalid_reason));
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed);
  out += ", \"checks\": [";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + JsonString(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + JsonString(c.detail) + "}";
  }
  out += "], \"e2e\": " + MetricsJson(r.e2e);
  out += ", \"layers\": " + MetricsJson(r.layers) + "}";
  return out;
}

std::string Fmt(std::optional<double> v) {
  if (!v.has_value()) return "absent";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", *v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-46s %12s %-8s n=%-6zu %s\n", m.name.c_str(),
                Fmt(m.value).c_str(), m.unit.c_str(), m.samples,
                m.note.c_str());
  }
}

// ---------------------------------------------------------------- self-test

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    std::printf("  FAIL %s\n", what.c_str());
    ++failures;
  }
}

SpanRecord Rec(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.layer = id == 1 ? "outer" : "inner";
  r.name = "x";
  r.start_ns = start;
  r.end_ns = end;
  return r;
}

int SelfTest() {
  // Nearest-rank percentiles on known samples.
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(101 - i);  // 100..1, unsorted
  Expect(*s.Median() == 50, "p50 of 1..100 is 50");
  Expect(*s.Quantile(0.95) == 95, "p95 of 1..100 is 95");
  Expect(*s.Quantile(0.99) == 99, "p99 of 1..100 is 99");
  Expect(*s.Quantile(1.0) == 100, "p100 of 1..100 is 100");
  Expect(SamplesBeyond(100, 0.95) == 5, "5 samples beyond p95 of 100");
  Expect(!s.TailQuantile(0.95).has_value(), "p95 of 100 samples is absent");
  Expect(s.TailQuantile(0.90).value_or(-1) == 90, "p90 of 100 is reportable");
  Samples t;
  for (int i = 1; i <= 200; ++i) t.Add(i);
  Expect(t.TailQuantile(0.95).value_or(-1) == 190, "p95 of 1..200 is 190");
  Expect(!t.TailQuantile(0.99).has_value(), "p99 of 200 samples is absent");
  Samples one;
  one.Add(7);
  Expect(*one.Median() == 7 && *one.Quantile(0.01) == 7, "single sample");
  Expect(!Samples().Median().has_value(), "no samples, no median");
  Samples even;
  for (double v : {4.0, 1.0, 3.0, 2.0}) even.Add(v);
  Expect(*even.Median() == 2, "nearest-rank p50 of 1..4 is 2");

  // The zero-base ratio rule.
  Expect(!Ratio(5, 0).has_value(), "ratio over a zero base is absent");
  Expect(!Ratio(0, 0).has_value(), "0/0 is absent, not 0");
  Expect(Ratio(0, 4).value_or(-1) == 0, "0/4 is 0");
  Expect(Ratio(3, 4).value_or(-1) == 0.75, "3/4");
  Expect(!GeoMean({2.0, std::nullopt}).has_value(), "geomean with an absent");
  Expect(std::abs(GeoMean({2.0, 8.0}).value_or(0) - 4.0) < 1e-12,
         "geomean of 2 and 8");

  // Self time: nested, overlapping and overhanging children.
  {
    // 1 [0,100) with children 2 [10,30) and 3 [20,50) overlapping, and 4
    // [90,130) running past the parent's end; 5 [25,28) nests in 2.
    std::vector<SpanRecord> spans = {Rec(1, 0, 0, 100), Rec(2, 1, 10, 30),
                                     Rec(3, 1, 20, 50), Rec(4, 1, 90, 130),
                                     Rec(5, 2, 25, 28)};
    const auto self = SelfTimes(spans);
    Expect(self.at(1) == 100 - 40 - 10,
           "parent self = 100 - [10,50) - [90,100)");
    Expect(self.at(2) == 20 - 3, "nested child self excludes grandchild");
    Expect(self.at(3) == 30, "leaf self = duration");
    Expect(self.at(5) == 3, "grandchild self");
    const auto layers = ByLayer(spans);
    Expect(layers.at("outer").self_ns == 50, "layer self sum (outer)");
    Expect(layers.at("inner").self_ns == 17 + 30 + 40 + 3,
           "layer self sum (inner)");
    Expect(layers.at("inner").total_ns == 20 + 30 + 40 + 3,
           "layer total sum (inner)");
  }
  {
    // Identical overlapping children cover once; an orphan is a root.
    std::vector<SpanRecord> spans = {Rec(1, 0, 0, 10), Rec(2, 1, 2, 6),
                                     Rec(3, 1, 2, 6), Rec(4, 99, 0, 5)};
    const auto self = SelfTimes(spans);
    Expect(self.at(1) == 6, "duplicate children cover once");
    Expect(self.at(4) == 5, "span with unknown parent keeps its time");
  }
  {
    // Live tracer: nesting and op ids.
    Tracer::Drain();
    Tracer::SetEnabled(true);
    {
      OpScope op(42);
      Span a("outer", "a");
      Span b("inner", "b");
    }
    Tracer::SetEnabled(false);
    { Span c("outer", "off"); }
    const auto spans = Tracer::Drain();
    Expect(spans.size() == 2, "two spans recorded while enabled");
    if (spans.size() == 2) {
      Expect(spans[1].parent == spans[0].id, "inner span's parent is outer");
      Expect(spans[0].op == 42 && spans[1].op == 42, "op id propagates");
      Expect(spans[0].start_ns <= spans[1].start_ns &&
                 spans[1].end_ns <= spans[0].end_ns,
             "child interval nests in parent");
    }
  }
  std::printf("self-test: %s (%d failure%s)\n", failures ? "FAILED" : "ok",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- main

int Usage() {
  std::fprintf(stderr,
               "usage: recurbench --workload closure|resident|ingest "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--commit ID]\n       recurbench --self-test\n");
  return 2;
}

// Tracing overhead: the traced pass's p50 geomean over the untraced one's.
void AddOverhead(Report* r) {
  const std::optional<double> untraced = r->KindGeoMean();
  const std::optional<double> traced = GeoMean(r->traced_kinds);
  std::optional<double> ratio;
  if (untraced && traced) ratio = Ratio(*traced, *untraced);
  r->Layer("trace.overhead_ratio", "ratio", ratio, r->kinds.size(),
           "traced p50 geomean / untraced");
  if (untraced && traced) {
    r->Layer("trace.overhead_us", "us", *traced - *untraced, r->kinds.size(),
             "traced - untraced p50 geomean");
  }
}

}  // namespace
}  // namespace recurbench

int main(int argc, char** argv) {
  using namespace recurbench;
  RunConfig cfg;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = val;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      return Usage();
    }
  }
  if (!have_workload || cfg.work_dir.empty() || cfg.seconds <= 0) {
    return Usage();
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads_n = static_cast<int>(std::min(4u, hw));
  std::filesystem::create_directories(cfg.work_dir);

  Report report;
  report.Stamp("commit", commit);
  report.Stamp("nproc", std::to_string(hw));
  report.Stamp("build_type", RECURBENCH_BUILD_TYPE);
  report.Stamp("compiler", RECURBENCH_COMPILER);
  report.Stamp("seed", std::to_string(cfg.seed));
  report.Stamp("threads", "1," + std::to_string(cfg.threads_n));
  report.Stamp("seconds", std::to_string(cfg.seconds));
  report.Stamp("trace", cfg.trace ? "1" : "0");

  if (cfg.workload == "closure") {
    report.Stamp("fsync", "n/a (no server)");
    RunClosure(cfg, &report);
  } else if (cfg.workload == "resident") {
    report.Stamp("fsync", "n/a (durability off)");
    RunResident(cfg, &report);
  } else if (cfg.workload == "ingest") {
    report.Stamp("fsync", "kBatch");
    RunIngest(cfg, &report);
  } else {
    return Usage();
  }

  report.E2e("error_rate", "fraction",
             Ratio(static_cast<double>(report.failed),
                   static_cast<double>(report.attempted)),
             report.attempted, "failed, shed or refused ops / attempted");
  report.E2e("op_p50_geomean_us", "us", report.KindGeoMean(),
             report.kinds.size(), "geometric mean of the per-kind p50s");
  if (cfg.trace) {
    AddOverhead(&report);
    std::vector<SpanRecord> spans = report.traced_spans;
    spans.insert(spans.end(), report.probe_spans.begin(),
                 report.probe_spans.end());
    for (const auto& [layer, t] : ByLayer(spans)) {
      report.Layer("self." + layer + "_ms", "ms", t.self_ns / 1e6, t.spans,
                   "self time over the traced pass and probes");
    }
  }

  std::printf("recurbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& [k, v] : report.stamp) {
    std::printf("  stamp %-10s %s\n", k.c_str(), v.c_str());
  }
  PrintTable("end-to-end", report.e2e);
  if (cfg.trace) PrintTable("per-layer (traced run)", report.layers);
  std::printf("checks\n");
  for (const Check& c : report.checks) {
    std::printf("  %-4s %-40s %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }
  if (!report.invalid_reason.empty()) {
    std::printf("INVALID RUN: %s\n", report.invalid_reason.c_str());
  }
  std::printf("REPORT %s\n", ReportJson(cfg, report).c_str());
  std::fflush(stdout);
  if (!report.invalid_reason.empty()) return 3;
  return report.all_checks_ok() ? 0 : 1;
}
