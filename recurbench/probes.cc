// Layer probes of the traced run: each calls one lower-layer entry point
// of recur directly, on the workload's own program and data, inside a
// span named after the call. The per-layer metrics are read off those
// spans (and off the stats structs the calls fill in).
#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "classify/program_analysis.h"
#include "common.h"
#include "datalog/parser.h"
#include "eval/plan/plan_cache.h"
#include "eval/query.h"
#include "eval/seminaive.h"
#include "gen.h"
#include "server/durability.h"
#include "util/io.h"

namespace recurbench {
namespace {

namespace fs = std::filesystem;
namespace plan = recur::eval::plan;
namespace server = recur::server;

constexpr int kRepeats = 5;
constexpr int kFilterQueries = 200;
constexpr int kWalAppends = 40;
constexpr size_t kMaintainBatches = 4;

// A metric summed (or pooled) over the workload's program cases: the
// aggregate of a time or count is the sum of the per-case values, that of
// a ratio is sum(num) / sum(base).
struct Agg {
  std::string unit;
  double num = 0;
  double base = 0;   // ratios only
  bool ratio = false;
  size_t samples = 0;
};

class Aggregates {
 public:
  void Sum(const std::string& name, const std::string& unit, double v,
           size_t samples) {
    Agg& a = aggs_[name];
    a.unit = unit;
    a.num += v;
    a.samples += samples;
    order(name);
  }
  void Ratio(const std::string& name, const std::string& unit, double num,
             double base, size_t samples) {
    Agg& a = aggs_[name];
    a.unit = unit;
    a.ratio = true;
    a.num += num;
    a.base += base;
    a.samples += samples;
    order(name);
  }
  void Emit(Report* report) const {
    for (const std::string& name : names_) {
      const Agg& a = aggs_.at(name);
      report->Layer(name, a.unit,
                    a.ratio ? recurbench::Ratio(a.num, a.base)
                            : std::optional<double>(a.num),
                    a.samples);
    }
  }

 private:
  void order(const std::string& name) {
    if (std::find(names_.begin(), names_.end(), name) == names_.end()) {
      names_.push_back(name);
    }
  }
  std::map<std::string, Agg> aggs_;
  std::vector<std::string> names_;
};

// Median duration, in the given unit, of the spans (layer, name).
double MedianOf(const std::vector<SpanRecord>& spans, const char* layer,
                const char* name, double ns_per_unit, size_t* n) {
  Samples s;
  for (double d : DurationsNs(spans, layer, name)) s.Add(d / ns_per_unit);
  *n = s.size();
  return s.Median().value_or(0);
}

const ra::Relation* Lookup(const ProgramCase& c, SymbolId pred) {
  if (const ra::Relation* r = c.idb.Find(pred)) return r;
  return c.edb.Find(pred);
}

// The last rule of the main predicate whose body reads an IDB predicate.
const datalog::Rule* RecursiveRule(const ProgramCase& c) {
  const datalog::Rule* found = nullptr;
  for (const datalog::Rule& rule : c.program.rules()) {
    if (rule.head().predicate() != c.main_pred) continue;
    for (const datalog::Atom& atom : rule.body()) {
      if (c.idb.Find(atom.predicate()) != nullptr) found = &rule;
    }
  }
  return found;
}

struct FixpointRun {
  double wall_ms = 0;
  eval::EvalStats stats;
};

FixpointRun Fixpoint(const ProgramCase& c, int threads) {
  eval::FixpointOptions options;
  options.num_threads = threads;
  options.collect_stats = true;
  FixpointRun run;
  const double t0 = Seconds();
  {
    Span span("eval", "SemiNaiveEvaluate");
    Must(eval::SemiNaiveEvaluate(c.program, c.edb, options, &run.stats),
         "probe fixpoint");
  }
  run.wall_ms = (Seconds() - t0) * 1e3;
  return run;
}

struct ProbeBatches {
  std::vector<eval::EdbDeltas> inserts, deletes;
};

// Writer-shaped single-tuple batches on the case's final EDB: deletes of
// present edges and inserts of absent ones between present endpoints.
ProbeBatches MakeProbeBatches(const ProgramCase& c, Rng& rng) {
  const ra::Relation& edges = *c.edb.Find(c.edge_pred);
  std::vector<ra::Value> ends;
  for (ra::TupleRef row : edges.rows()) ends.push_back(row[1]);
  ProbeBatches out;
  while (out.deletes.size() < kMaintainBatches) {
    const ra::TupleRef e = edges.rows()[rng.Below(edges.size())];
    out.deletes.push_back(OneTuple(c.edge_pred, e[0], e[1], false));
  }
  while (out.inserts.size() < kMaintainBatches) {
    const ra::Value a = ends[rng.Below(ends.size())];
    const ra::Value b = ends[rng.Below(ends.size())];
    if (a == b || edges.Contains({a, b})) continue;
    out.inserts.push_back(OneTuple(c.edge_pred, a, b, true));
  }
  return out;
}

void ProbeCase(const RunConfig& cfg, const ProgramCase& c, Aggregates* agg,
               Report* report) {
  const ra::Relation& main = *c.idb.Find(c.main_pred);
  Rng rng(cfg.seed ^ 0x5eed);
  const ProbeBatches batches = MakeProbeBatches(c, rng);
  const std::string tag = "{" + c.name + "}";
  auto detail = [&](const std::string& name, const std::string& unit,
                    std::optional<double> v, size_t n) {
    report->Layer(name + tag, unit, v, n);
  };

  // datalog: parse; classify: program analysis.
  for (int i = 0; i < kRepeats; ++i) {
    SymbolTable symbols = *c.symbols;
    Span probe("probe", "parse");
    Span span("datalog", "ParseProgram");
    Must(datalog::ParseProgram(c.text, &symbols), "parse");
  }
  for (int i = 0; i < kRepeats; ++i) {
    Span probe("probe", "analyze");
    Span span("classify", "AnalyzeProgram");
    Must(recur::classify::AnalyzeProgram(c.program), "analyze");
  }

  // eval.plan: compile every rule on a fresh cache; the probe strategies.
  const eval::PlanRelationLookup lookup = [&c](SymbolId p) {
    return Lookup(c, p);
  };
  std::unique_ptr<plan::PlanCache> cache;
  for (int i = 0; i < kRepeats; ++i) {
    cache = std::make_unique<plan::PlanCache>();
    Span probe("probe", "compile");
    for (const datalog::Rule& rule : c.program.rules()) {
      Span span("eval.plan", "GetOrCompile");
      Must(cache->GetOrCompile(rule, lookup, plan::PlannerOptions()),
           "compile");
    }
  }
  size_t probes = 0, sort_merge = 0;
  for (const auto& p : cache->Plans()) {
    for (const plan::ComponentPlan& comp : p->components) {
      for (const plan::Op& op : comp.ops) {
        if (op.kind != plan::OpKind::kHashJoinProbe) continue;
        ++probes;
        if (op.strategy == plan::ProbeStrategy::kSortMerge) ++sort_merge;
      }
    }
  }
  agg->Ratio("eval.plan.sort_merge_share", "fraction",
             static_cast<double>(sort_merge), static_cast<double>(probes),
             probes);
  detail("eval.plan.sort_merge_share", "fraction",
         recurbench::Ratio(sort_merge, probes), probes);

  // eval.plan: one execution of the recursive rule on the final relations.
  if (const datalog::Rule* rule = RecursiveRule(c)) {
    for (int i = 0; i < 3; ++i) {
      eval::ConjunctiveOptions copts;
      copts.plan_cache = cache.get();
      const eval::RelationLookup rl = [&c](SymbolId p) { return Lookup(c, p); };
      Span probe("probe", "exec");
      Span span("eval.plan", "EvaluateRule");
      Must(eval::EvaluateRule(*rule, rl, copts), "exec");
    }
  }

  // eval: the fixpoint with per-round stats at 1 and N threads.
  const FixpointRun t1 = Fixpoint(c, 1);
  const FixpointRun tn = Fixpoint(c, cfg.threads_n);
  for (const FixpointRun* run : {&t1, &tn}) {
    const std::string th =
        run == &t1 ? "t1" : "t" + std::to_string(cfg.threads_n);
    double eval_ms = 0, merge_ms = 0;
    for (const eval::RoundStats& r : run->stats.rounds) {
      eval_ms += r.eval_seconds * 1e3;
      merge_ms += r.merge_seconds * 1e3;
    }
    const std::string t = "{" + c.name + "," + th + "}";
    report->Layer("eval.rounds" + t, "count", run->stats.iterations, 1);
    report->Layer("eval.round.eval_ms" + t, "ms", eval_ms, 1);
    report->Layer("eval.round.merge_ms" + t, "ms", merge_ms, 1);
    report->Layer("ra.bloom_skip_ratio" + t, "fraction",
                  recurbench::Ratio(run->stats.bloom_skips,
                                    run->stats.bloom_probes),
                  run->stats.bloom_probes);
    if (run == &t1) {
      agg->Sum("eval.rounds", "count", run->stats.iterations, 1);
      agg->Sum("eval.round.eval_ms", "ms", eval_ms, 1);
      agg->Sum("eval.round.merge_ms", "ms", merge_ms, 1);
      agg->Ratio("eval.derive_ratio", "fraction",
                 static_cast<double>(run->stats.tuples_produced),
                 static_cast<double>(run->stats.tuples_considered), 1);
      agg->Ratio("ra.bloom_skip_ratio", "fraction",
                 static_cast<double>(run->stats.bloom_skips),
                 static_cast<double>(run->stats.bloom_probes),
                 run->stats.bloom_probes);
      detail("eval.derive_ratio", "fraction",
             recurbench::Ratio(run->stats.tuples_produced,
                               run->stats.tuples_considered),
             1);
    }
  }
  agg->Ratio("eval.parallel.speedup", "x", t1.wall_ms, tn.wall_ms, 1);
  detail("eval.parallel.speedup", "x",
         recurbench::Ratio(t1.wall_ms, tn.wall_ms), 1);

  // ra: bulk insert, first index build, erase, copy-on-write fork.
  const ra::Value* rows = main.size() > 0 ? main.rows()[0].data() : nullptr;
  for (int i = 0; i < 3; ++i) {
    ra::Relation fresh(main.arity());
    Span probe("probe", "insert_batch");
    Span span("ra", "Relation.InsertBatch");
    fresh.InsertBatch(rows, main.size());
  }
  for (int i = 0; i < kRepeats; ++i) {
    ra::Relation fresh(main.arity());
    fresh.InsertBatch(rows, main.size());
    const ra::Value key = main.rows()[rng.Below(main.size())][0];
    Span probe("probe", "index_build");
    Span span("ra", "Relation.RowsWithKey");
    fresh.RowsWithKey({0}, &key);
  }

  // eval: maintenance replay on copies, through the same calls Apply makes.
  plan::PlanCache maint_cache;
  eval::MaintenanceOptions mopts;
  mopts.plan_cache = &maint_cache;
  auto replay = [&](const std::vector<eval::EdbDeltas>& batches,
                    const char* probe_name, bool timed,
                    std::vector<eval::EvalStats>* stats) {
    for (const eval::EdbDeltas& batch : batches) {
      ra::Database new_edb = c.edb;
      ra::Database idb = c.idb;
      eval::EvalStats s;
      std::optional<Span> probe;
      if (timed) probe.emplace("probe", probe_name);
      {
        Span span("eval", "ApplyDeltasToEdb");
        MustOk(eval::ApplyDeltasToEdb(batch, &new_edb), "apply deltas");
      }
      {
        Span span("eval", "MaintainDeltas");
        MustOk(eval::MaintainDeltas(c.program, c.edb, new_edb, batch, &idb,
                                    mopts, &s),
               "maintain");
      }
      probe.reset();
      if (stats != nullptr) stats->push_back(s);
    }
  };
  // One untimed replay warms the plan cache, as a running server's is.
  {
    const bool was = Tracer::enabled();
    Tracer::SetEnabled(false);
    replay(batches.inserts, "", false, nullptr);
    replay(batches.deletes, "", false, nullptr);
    Tracer::SetEnabled(was);
  }
  std::vector<eval::EvalStats> ins_stats, del_stats;
  replay(batches.inserts, "maintain.insert", true, &ins_stats);
  replay(batches.deletes, "maintain.delete", true, &del_stats);
  Samples del_probes, del_rebuilds, del_produced;
  for (const eval::EvalStats& s : del_stats) {
    del_probes.Add(static_cast<double>(s.join_probes));
    del_rebuilds.Add(static_cast<double>(s.index_rebuilds));
    del_produced.Add(static_cast<double>(s.tuples_produced));
  }
  agg->Sum("eval.maintain.delete_probes", "count",
           del_probes.Median().value_or(0), del_probes.size());
  agg->Sum("eval.maintain.delete_index_rebuilds", "count",
           del_rebuilds.Median().value_or(0), del_rebuilds.size());

  // ra: erase a victim set the size of the delete's overestimate, sized by
  // the tuples the delete pass derived (at least 1% of the relation).
  const size_t victims_n = std::min(
      main.size(),
      std::max<size_t>(static_cast<size_t>(del_produced.Median().value_or(0)),
                       main.size() / 100 + 1));
  ra::Relation victims(main.arity());
  const size_t stride = std::max<size_t>(1, main.size() / victims_n);
  for (size_t i = 0; i < main.size() && victims.size() < victims_n;
       i += stride) {
    victims.Insert(main.rows()[i]);
  }
  for (int i = 0; i < kRepeats; ++i) {
    ra::Relation fresh(main.arity());
    fresh.InsertBatch(rows, main.size());
    Span probe("probe", "erase_rows");
    Span span("ra", "Relation.EraseRows");
    fresh.EraseRows(victims);
  }
  detail("ra.erase_rows.victims", "count", victims.size(), 1);

  for (int i = 0; i < kRepeats; ++i) {
    Span probe("probe", "fork");
    ra::Database copy = [&] {
      Span span("ra", "Database.copy");
      return c.idb;
    }();
    Span span("ra", "Database.FindMutable");
    copy.FindMutable(c.main_pred);
  }

  // eval: Query::Filter with a bound first argument.
  for (int i = 0; i < kFilterQueries; ++i) {
    eval::Query q;
    q.pred = c.main_pred;
    q.bindings.assign(main.arity(), std::nullopt);
    q.bindings[0] = main.rows()[rng.Below(main.size())][0];
    Span probe("probe", "filter");
    Span span("eval", "Query.Filter");
    Must(q.Filter(main), "filter");
  }

  // util.io: WAL appends of encoded single-tuple batches, fsync on each.
  const std::string wal_dir = cfg.work_dir + "/wal_probe_" + c.name;
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  const std::string wal_path = wal_dir + "/wal.log";
  {
    auto log = Must(recur::util::io::AppendLog::Open(wal_path), "wal open");
    double user_bytes = 0;
    for (int i = 0; i < kWalAppends; ++i) {
      const eval::EdbDeltas& batch =
          batches.inserts[i % batches.inserts.size()];
      for (const auto& [pred, d] : batch) {
        user_bytes += 8.0 * d.inserts.arity() *
                      static_cast<double>(d.inserts.size() + d.deletes.size());
      }
      std::string payload;
      {
        Span span("server", "EncodeWalRecord");
        payload = Must(server::EncodeWalRecord(i + 1, batch, *c.symbols),
                       "encode wal");
      }
      Span probe("probe", "wal_append");
      Span span("util.io", "AppendLog.Append");
      MustOk(log.Append(payload, /*sync=*/true), "wal append");
    }
    agg->Ratio("io.wal.bytes_per_user_byte", "ratio",
               static_cast<double>(fs::file_size(wal_path)), user_bytes,
               kWalAppends);
  }
  fs::remove_all(wal_dir);

  // server: snapshot encode / decode of the case's EDB and IDB.
  server::SnapshotImage image;
  image.program_text = c.text;
  image.epoch = 1;
  image.edb = c.edb;
  image.idb = c.idb;
  std::string payload;
  for (int i = 0; i < 3; ++i) {
    Span probe("probe", "snapshot_encode");
    Span span("server", "EncodeSnapshot");
    payload = Must(server::EncodeSnapshot(image, *c.symbols), "encode");
  }
  for (int i = 0; i < 3; ++i) {
    SymbolTable symbols = *c.symbols;
    Span probe("probe", "snapshot_decode");
    Span span("server", "DecodeSnapshot");
    Must(server::DecodeSnapshot(payload, &symbols), "decode");
  }
  const double tuples =
      static_cast<double>(c.edb.TotalTuples() + c.idb.TotalTuples());
  agg->Ratio("server.snapshot.bytes_per_tuple", "bytes",
             static_cast<double>(payload.size()), tuples, 1);

  // Read the timed probes back off the spans.
  const std::vector<SpanRecord> spans = Tracer::Drain();
  report->probe_spans.insert(report->probe_spans.end(), spans.begin(),
                             spans.end());
  struct FromSpan {
    const char* metric;
    const char* unit;
    const char* probe;
    double ns_per_unit;
  };
  const FromSpan from_spans[] = {
      {"datalog.parse_us", "us", "parse", 1e3},
      {"classify.analyze_us", "us", "analyze", 1e3},
      {"eval.plan.compile_us", "us", "compile", 1e3},
      {"eval.plan.exec_ms", "ms", "exec", 1e6},
      {"ra.index_build_ms", "ms", "index_build", 1e6},
      {"ra.erase_rows_ms", "ms", "erase_rows", 1e6},
      {"ra.fork_us", "us", "fork", 1e3},
      {"eval.maintain.insert_ms", "ms", "maintain.insert", 1e6},
      {"eval.maintain.delete_ms", "ms", "maintain.delete", 1e6},
      {"eval.query.filter_us", "us", "filter", 1e3},
      {"io.wal.append_us", "us", "wal_append", 1e3},
      {"server.snapshot.encode_ms", "ms", "snapshot_encode", 1e6},
      {"server.snapshot.decode_ms", "ms", "snapshot_decode", 1e6},
  };
  for (const FromSpan& f : from_spans) {
    size_t n = 0;
    const double v = MedianOf(spans, "probe", f.probe, f.ns_per_unit, &n);
    if (n == 0) continue;
    agg->Sum(f.metric, f.unit, v, n);
    detail(f.metric, f.unit, v, n);
  }
  size_t n = 0;
  const double insert_ns = MedianOf(spans, "probe", "insert_batch", 1, &n);
  agg->Ratio("ra.insert_batch_ns_per_row", "ns", insert_ns,
             static_cast<double>(main.size()), n);
  const double del_ms = MedianOf(spans, "probe", "maintain.delete", 1e6, &n);
  agg->Ratio("eval.maintain.delete_vs_recompute", "ratio", del_ms, t1.wall_ms,
             n);
  detail("eval.maintain.delete_vs_recompute", "ratio",
         recurbench::Ratio(del_ms, t1.wall_ms), n);
}

}  // namespace

void ProbeCreate(const datalog::Program& program, const ra::Database& edb,
                 double setup_s, Report* report) {
  Samples analyze_ms, bootstrap_ms;
  for (int i = 0; i < 3; ++i) {
    double t0 = Seconds();
    Must(recur::classify::AnalyzeProgram(program), "analyze");
    analyze_ms.Add((Seconds() - t0) * 1e3);
    eval::EdbDeltas all;
    for (const auto& [pred, rel] : edb.relations()) {
      eval::EdbDelta d(rel->arity());
      d.inserts.InsertAll(*rel);
      all.emplace(pred, std::move(d));
    }
    ra::Database empty, idb;
    plan::PlanCache fresh;
    eval::MaintenanceOptions mopts;
    mopts.plan_cache = &fresh;
    t0 = Seconds();
    MustOk(eval::MaintainDeltas(program, empty, edb, all, &idb, mopts),
           "bootstrap");
    bootstrap_ms.Add((Seconds() - t0) * 1e3);
  }
  report->Layer("server.create.bootstrap_ms", "ms", bootstrap_ms.Median(), 3,
                "MaintainDeltas from an empty IDB");
  report->Layer("server.create.other_ms", "ms",
                setup_s * 1e3 - *analyze_ms.Median() - *bootstrap_ms.Median(),
                3, "set-up - analysis - bootstrap");
}

void RunLayerProbes(const RunConfig& cfg,
                    const std::vector<const ProgramCase*>& cases,
                    Report* report) {
  Aggregates agg;
  const bool was = Tracer::enabled();
  Tracer::SetEnabled(true);
  for (const ProgramCase* c : cases) ProbeCase(cfg, *c, &agg, report);
  Tracer::SetEnabled(was);
  agg.Emit(report);
}

}  // namespace recurbench
