// Shared types of the benchmark binary: the run configuration, the report
// every workload fills in, and the program cases the layer probes use.
#ifndef RECURBENCH_COMMON_H_
#define RECURBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalog/program.h"
#include "eval/maintenance.h"
#include "ra/database.h"
#include "stats.h"
#include "trace.h"
#include "util/result.h"
#include "util/symbol_table.h"

namespace recurbench {

namespace datalog = recur::datalog;
namespace eval = recur::eval;
namespace ra = recur::ra;
using recur::SymbolId;
using recur::SymbolTable;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads_n = 1;          // N = min(4, nproc)
  std::string work_dir;       // scratch space inside the checkout
};

struct Metric {
  std::string name;
  std::string unit;
  // Absent when undefined: a zero base, or too few samples beyond a tail.
  std::optional<double> value;
  size_t samples = 0;
  std::string note;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  void E2e(const std::string& name, const std::string& unit,
           std::optional<double> value, size_t samples,
           const std::string& note = "");
  void Layer(const std::string& name, const std::string& unit,
             std::optional<double> value, size_t samples,
             const std::string& note = "");
  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  void Stamp(const std::string& key, const std::string& value);
  // Marks the run invalid: its latencies are not reported as measured.
  void Invalidate(const std::string& reason);
  // A timing kind of this workload: its exact p50 (in us) goes into the
  // op_p50_geomean_us end-to-end metric.
  void Kind(const std::string& name, std::optional<double> p50_us);

  bool all_checks_ok() const;
  std::optional<double> KindGeoMean() const;

  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> stamp;
  std::vector<std::pair<std::string, std::optional<double>>> kinds;
  // Traced run: the p50s (us) of the traced pass, by kind, and its spans
  // plus those of the layer probes.
  std::vector<std::optional<double>> traced_kinds;
  std::vector<SpanRecord> traced_spans;
  std::vector<SpanRecord> probe_spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  std::string invalid_reason;  // non-empty: the run is invalid
};

// Records the exact q-quantile of `s` as the end-to-end metric `name`,
// or as absent when fewer than kMinTailSamples samples lie beyond it.
void AddTail(Report* report, const std::string& name, const std::string& unit,
             const Samples& s, double q);

// One program with its data, as the layer probes see it.
struct ProgramCase {
  std::string name;
  std::string text;
  SymbolTable* symbols = nullptr;
  datalog::Program program;
  ra::Database edb;
  ra::Database idb;            // the fixpoint of edb
  SymbolId main_pred = 0;      // IDB predicate the probes examine
  SymbolId edge_pred = 0;      // EDB relation the maintenance probe edits
};

// Runs the generic layer probes over each case and adds their metrics.
// Spans are recorded under the "probe" layer around each call.
void RunLayerProbes(const RunConfig& cfg,
                    const std::vector<const ProgramCase*>& cases,
                    Report* report);

// Breaks a server's set-up time into analysis, bootstrap and the rest.
void ProbeCreate(const datalog::Program& program, const ra::Database& edb,
                 double setup_s, Report* report);

// Workloads. Each fills `report` (metrics, checks, attempted/failed).
void RunClosure(const RunConfig& cfg, Report* report);
void RunResident(const RunConfig& cfg, Report* report);
void RunIngest(const RunConfig& cfg, Report* report);

double Seconds();  // steady clock, seconds
// v * k, or absent when v is.
inline std::optional<double> Scaled(std::optional<double> v, double k) {
  if (!v) return std::nullopt;
  return *v * k;
}
// The relation's rows, sorted, as raw bytes: equal sets give equal bytes.
std::string SortedRowsBytes(const ra::Relation& rel);
// A batch that inserts (or deletes) the one binary tuple pred(a, b).
eval::EdbDeltas OneTuple(SymbolId pred, ra::Value a, ra::Value b, bool insert);

// Fails hard (exit 2) on a library error outside the timed operations:
// the benchmark's own set-up must never fail.
[[noreturn]] void Die(const std::string& what, const recur::Status& s);
inline void MustOk(const recur::Status& s, const char* what) {
  if (!s.ok()) Die(what, s);
}
template <typename T>
T Must(recur::Result<T> r, const char* what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(*r);
}

}  // namespace recurbench

#endif  // RECURBENCH_COMMON_H_
