// resident: one shared server::Database with durability off.
//
// The program has one IDB predicate per dispatch route:
//   sg - same-generation, class A1       -> iterate-selection
//   b  - the paper's s10, class D rank 2 -> bounded-inline
//   tc - non-linear transitive closure   -> resident filter
// Closed loop: two reader threads issue bound-first-argument queries
// round-robin over the three predicates while one writer thread applies
// single-tuple insert and delete batches to tc's edge relation, 1:1,
// through Database::Apply. The working set fits in L2. At the end the
// resident IDB must be byte-identical to a recomputation of the final
// EDB, and sampled answers must equal Query::Filter over it.
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "classify/program_analysis.h"
#include "common.h"
#include "datalog/parser.h"
#include "eval/compiled_eval.h"
#include "eval/plan/plan_cache.h"
#include "eval/seminaive.h"
#include "gen.h"
#include "server/database.h"

namespace recurbench {
namespace {

namespace server = recur::server;
using server::RouteKind;

constexpr char kProgram[] =
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).\n"
    "b(X, Y) :- e(X, Y).\n"
    "b(X, Y) :- bb(Y), c(X, Y1), b(X1, Y1).\n"
    "tc(X, Y) :- g(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n";

constexpr int kTreeNodes = 200;
constexpr size_t kTreeSgTarget = 8700;  // about the median over seeds
constexpr int kTreeDraws = 32;
constexpr int kBNodes = 60;
// tc's graph: average out-degree 2.5 puts most nodes in one strongly
// connected component, so |tc| (and the cost of a delete) varies little
// across seeds.
constexpr int kGraphNodes = 64;
constexpr int kGraphEdges = 160;
constexpr size_t kGraphTcTarget = 3300;  // about the median over seeds
constexpr int kGraphDraws = 32;
constexpr int kReaders = 2;
constexpr int kSetupRepeats = 15;
constexpr int kSampledQueries = 30;
constexpr int kProbeQueries = 300;

const char* const kPreds[3] = {"sg", "b", "tc"};

struct Inputs {
  ra::Database edb;
  std::vector<ra::Value> domain[3];  // bindable first-argument values
};

void Put(ra::Database* db, SymbolTable* symbols, const char* name,
         const ra::Relation& rows) {
  Must(db->GetOrCreate(symbols->Intern(name), rows.arity()), "edb")
      ->InsertAll(rows);
}

std::vector<ra::Value> Column0(const ra::Relation& rel) {
  std::set<ra::Value> vals;
  for (ra::TupleRef row : rel.rows()) vals.insert(row[0]);
  return {vals.begin(), vals.end()};
}

Inputs MakeInputs(uint64_t seed, SymbolTable* symbols) {
  Rng rng(seed);
  Rng tree_rng = rng.Fork(1), b_rng = rng.Fork(2), g_rng = rng.Fork(3);
  Inputs in;
  const ra::Relation up =
      PaTreeUpNear(kTreeNodes, kTreeSgTarget, kTreeDraws, tree_rng);
  Put(&in.edb, symbols, "up", up);
  Put(&in.edb, symbols, "down", Swapped(up));
  Put(&in.edb, symbols, "flat", Diagonal(up));
  const ra::Relation e = RandomEdges(kBNodes, kBNodes, b_rng);
  Put(&in.edb, symbols, "e", e);
  Put(&in.edb, symbols, "c", RandomEdges(kBNodes, kBNodes, b_rng));
  ra::Relation bb(1);
  for (int i = 0; i < kBNodes; i += 3) bb.Insert({i});
  Put(&in.edb, symbols, "bb", bb);
  const ra::Relation g = RandomEdgesNear(kGraphNodes, kGraphEdges,
                                         kGraphTcTarget, kGraphDraws, g_rng);
  Put(&in.edb, symbols, "g", g);
  in.domain[0] = Column0(Diagonal(up));
  for (int i = 0; i < kBNodes; ++i) in.domain[1].push_back(i);
  for (int i = 0; i < kGraphNodes; ++i) in.domain[2].push_back(i);
  return in;
}

eval::Query BoundFirst(SymbolId pred, ra::Value v) {
  eval::Query q;
  q.pred = pred;
  q.bindings = {v, std::nullopt};
  return q;
}

struct PassSamples {
  Samples route[3];  // iter, inline, filter (us)
  Samples all;       // every query (us)
  Samples insert, del;
  Samples pin_ns;
  uint64_t attempted = 0, failed = 0;
};

int RouteIndex(RouteKind k) {
  return k == RouteKind::kIterateSelection ? 0
         : k == RouteKind::kBoundedInline  ? 1
                                           : 2;
}

// One closed-loop pass: kReaders readers and one writer for `seconds`.
void Pass(server::Database* db, const Inputs& in, const SymbolId preds[3],
          SymbolId g, std::set<std::pair<ra::Value, ra::Value>>* edges,
          uint64_t seed, double seconds, bool traced, PassSamples* out) {
  Tracer::SetEnabled(traced);
  std::atomic<bool> stop{false};
  std::vector<PassSamples> reader_out(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed * 131 + r);
      PassSamples& mine = reader_out[r];
      for (uint64_t i = r; !stop.load(std::memory_order_relaxed); ++i) {
        const int p = static_cast<int>(i % 3);
        const std::vector<ra::Value>& dom = in.domain[p];
        const eval::Query q = BoundFirst(preds[p], dom[rng.Below(dom.size())]);
        OpScope op(Tracer::NewOp());
        if (traced) {
          const int64_t t0 = Tracer::NowNs();
          Span span("server", "snapshot");
          server::Database::Snapshot snap = db->snapshot();
          mine.pin_ns.Add(static_cast<double>(Tracer::NowNs() - t0));
        }
        ++mine.attempted;
        const double t0 = Seconds();
        recur::Result<server::QueryResult> res = [&] {
          Span span("server", "Query");
          return db->Query(q);
        }();
        const double us = (Seconds() - t0) * 1e6;
        if (!res.ok()) {
          ++mine.failed;
          continue;
        }
        mine.route[RouteIndex(res->route)].Add(us);
        mine.all.Add(us);
      }
    });
  }
  // The writer: insert a fresh edge, then delete a random present one.
  Rng rng(seed * 977 + 7);
  std::vector<std::pair<ra::Value, ra::Value>> present(edges->begin(),
                                                       edges->end());
  const double end = Seconds() + seconds;
  for (uint64_t i = 0; Seconds() < end; ++i) {
    const bool insert = i % 2 == 0;
    std::pair<ra::Value, ra::Value> e;
    if (insert) {
      do {
        e = {static_cast<ra::Value>(rng.Below(kGraphNodes)),
             static_cast<ra::Value>(rng.Below(kGraphNodes))};
      } while (e.first == e.second || edges->count(e) > 0);
    } else {
      const size_t k = rng.Below(present.size());
      e = present[k];
      present[k] = present.back();
      present.pop_back();
    }
    const eval::EdbDeltas batch = OneTuple(g, e.first, e.second, insert);
    OpScope op(Tracer::NewOp());
    ++out->attempted;
    const double t0 = Seconds();
    const recur::Status st = [&] {
      Span span("server", "Apply");
      return db->Apply(batch);
    }();
    const double us = (Seconds() - t0) * 1e6;
    if (!st.ok()) {
      ++out->failed;
      if (!insert) present.push_back(e);
      continue;
    }
    if (insert) {
      edges->insert(e);
      present.push_back(e);
      out->insert.Add(us);
    } else {
      edges->erase(e);
      out->del.Add(us);
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  Tracer::SetEnabled(false);
  for (const PassSamples& r : reader_out) {
    for (int k = 0; k < 3; ++k) out->route[k].Append(r.route[k]);
    out->all.Append(r.all);
    out->pin_ns.Append(r.pin_ns);
    out->attempted += r.attempted;
    out->failed += r.failed;
  }
}

}  // namespace

void RunResident(const RunConfig& cfg, Report* report) {
  SymbolTable symbols;
  const datalog::Program program =
      Must(datalog::ParseProgram(kProgram, &symbols), "parse");
  const Inputs in = MakeInputs(cfg.seed, &symbols);
  SymbolId preds[3];
  for (int p = 0; p < 3; ++p) preds[p] = symbols.Lookup(kPreds[p]);
  const SymbolId g = symbols.Lookup("g");

  // Set-up: Database::Create (analysis, routes, bootstrap), timed several
  // times before the run and again after it.
  Samples setup;
  auto create = [&] {
    const double t0 = Seconds();
    auto created =
        Must(server::Database::Create(program, in.edb, &symbols), "create");
    setup.Add(Seconds() - t0);
    return created;
  };
  for (int i = 1; i < kSetupRepeats; ++i) create();
  std::unique_ptr<server::Database> db = create();

  const RouteKind want[3] = {RouteKind::kIterateSelection,
                             RouteKind::kBoundedInline,
                             RouteKind::kResidentFilter};
  for (int p = 0; p < 3; ++p) {
    const server::Route* route = db->FindRoute(preds[p]);
    const bool ok = route != nullptr && route->kind == want[p];
    report->AddCheck(std::string("route.") + kPreds[p], ok,
                     route ? server::ToString(route->kind) + std::string(": ") +
                                 route->detail
                           : "no route");
  }

  std::set<std::pair<ra::Value, ra::Value>> edges;
  for (ra::TupleRef row : in.edb.Find(g)->rows()) {
    edges.insert({row[0], row[1]});
  }

  PassSamples s;
  Pass(db.get(), in, preds, g, &edges, cfg.seed,
       cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, &s);
  report->attempted += s.attempted;
  report->failed += s.failed;
  for (int i = 0; i < kSetupRepeats; ++i) create();
  report->setup_s = *setup.Median();
  report->E2e("setup_s", "s", setup.Median(), setup.size());
  const char* route_names[3] = {"iter", "inline", "filter"};
  for (int k = 0; k < 3; ++k) {
    report->E2e(std::string("query_") + route_names[k] + "_p50_us", "us",
                s.route[k].Median(), s.route[k].size());
    report->Kind(std::string("query_") + route_names[k], s.route[k].Median());
  }
  AddTail(report, "query_p99_us", "us", s.all, 0.99);
  report->E2e("insert_p50_us", "us", s.insert.Median(), s.insert.size());
  report->E2e("delete_p50_us", "us", s.del.Median(), s.del.size());
  AddTail(report, "delete_p95_us", "us", s.del, 0.95);
  report->Kind("insert", s.insert.Median());
  report->Kind("delete", s.del.Median());

  // Output checks against a recomputation of the final EDB.
  const server::Database::Snapshot final_snap = db->snapshot();
  const eval::IdbRelations recomputed =
      Must(eval::SemiNaiveEvaluate(program, final_snap.edb()), "recompute");
  bool idb_ok = true;
  std::string idb_detail;
  for (const auto& [pred, rel] : recomputed) {
    const ra::Relation* resident = final_snap.idb().Find(pred);
    const bool same = resident != nullptr &&
                      SortedRowsBytes(*resident) == SortedRowsBytes(rel);
    idb_ok = idb_ok && same;
    idb_detail += symbols.NameOf(pred) + "=" + std::to_string(rel.size()) +
                  (same ? " " : "(MISMATCH) ");
  }
  report->AddCheck("resident_idb.equals_recomputation", idb_ok,
                   "epoch " + std::to_string(final_snap.epoch()) + ": " +
                       idb_detail);
  bool edges_ok = final_snap.edb().Find(g)->size() == edges.size();
  for (const auto& e : edges) {
    edges_ok =
        edges_ok && final_snap.edb().Find(g)->Contains({e.first, e.second});
  }
  report->AddCheck("edb.equals_acknowledged_writes", edges_ok,
                   std::to_string(edges.size()) + " edges in g");
  Rng sample_rng(cfg.seed ^ 0xa11);
  int sampled = 0, matched = 0;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < kSampledQueries; ++i) {
      const std::vector<ra::Value>& dom = in.domain[p];
      const eval::Query q =
          BoundFirst(preds[p], dom[sample_rng.Below(dom.size())]);
      auto got = db->Query(q);
      auto want_rows = q.Filter(recomputed.at(preds[p]));
      ++sampled;
      if (got.ok() && want_rows.ok() &&
          SortedRowsBytes(got->rows) == SortedRowsBytes(*want_rows)) {
        ++matched;
      }
    }
  }
  report->AddCheck("sampled_queries.equal_filter_of_recomputation",
                   matched == sampled,
                   std::to_string(matched) + "/" + std::to_string(sampled) +
                       " answers identical");

  if (!cfg.trace) return;

  // Traced pass.
  PassSamples t;
  Pass(db.get(), in, preds, g, &edges, cfg.seed + 1, cfg.seconds / 2, true,
       &t);
  report->traced_kinds = {t.route[0].Median(), t.route[1].Median(),
                          t.route[2].Median(), t.insert.Median(),
                          t.del.Median()};
  report->traced_spans = Tracer::Drain();
  report->Layer("server.snapshot_pin_ns", "ns", t.pin_ns.Median(),
                t.pin_ns.size(), "snapshot() beside the running writer");
  const auto cache = db->plan_cache_stats();
  report->Layer("eval.plan.cache_hit_ratio", "fraction",
                Ratio(static_cast<double>(cache.hits),
                      static_cast<double>(cache.hits + cache.misses)),
                cache.hits + cache.misses);

  // server: what Create spends beyond analysis and bootstrap.
  const server::Database::Snapshot snap = db->snapshot();
  ProbeCreate(program, in.edb, report->setup_s, report);

  // Route layers called directly, against server.Query on the same queries.
  Rng qrng(cfg.seed ^ 0xbeef);
  Samples layer_us[3], overhead_us[3];
  recur::eval::plan::PlanCache inline_cache;
  const server::Route* routes[3];
  for (int p = 0; p < 3; ++p) routes[p] = db->FindRoute(preds[p]);
  auto idb_lookup = [&snap](SymbolId pred) -> const ra::Relation* {
    if (const ra::Relation* rel = snap.idb().Find(pred)) return rel;
    return snap.edb().Find(pred);
  };
  Tracer::SetEnabled(true);
  for (int i = 0; i < kProbeQueries; ++i) {
    const int p = i % 3;
    const std::vector<ra::Value>& dom = in.domain[p];
    const eval::Query q = BoundFirst(preds[p], dom[qrng.Below(dom.size())]);
    double t0 = Seconds();
    {
      Span span("server", "Query");
      Must(db->Query(q), "query");
    }
    const double query_us = (Seconds() - t0) * 1e6;
    t0 = Seconds();
    if (p == 0) {
      Span span("eval", "StableEvaluator.Answer");
      Must(routes[0]->stable->Answer(q, snap.edb()), "stable answer");
    } else if (p == 1) {
      Span span("eval", "EvaluateRule.inline");
      for (const datalog::Rule& rule : routes[1]->inline_rules) {
        std::unordered_map<SymbolId, ra::Value> bindings;
        const datalog::Term& x = rule.head().args()[0];
        if (x.IsConstant()) {
          if (static_cast<ra::Value>(x.symbol()) != *q.bindings[0]) continue;
        } else {
          bindings.emplace(x.symbol(), *q.bindings[0]);
        }
        eval::ConjunctiveOptions copts;
        copts.bindings = &bindings;
        copts.plan_cache = &inline_cache;
        Must(eval::EvaluateRule(rule, idb_lookup, copts), "inline rule");
      }
    } else {
      Span span("eval", "Query.Filter");
      Must(q.Filter(*snap.idb().Find(preds[2])), "filter");
    }
    const double layer = (Seconds() - t0) * 1e6;
    layer_us[p].Add(layer);
    overhead_us[p].Add(query_us - layer);
  }
  Tracer::SetEnabled(false);
  report->probe_spans = Tracer::Drain();
  report->Layer("eval.stable.answer_us", "us", layer_us[0].Median(),
                layer_us[0].size());
  report->Layer("eval.inline.answer_us", "us", layer_us[1].Median(),
                layer_us[1].size());
  for (int p = 0; p < 3; ++p) {
    report->Layer(std::string("server.query.overhead_us{") + route_names[p] +
                      "}",
                  "us", overhead_us[p].Median(), overhead_us[p].size(),
                  "median of Query - layer call, same query");
  }

  ProgramCase c;
  c.name = "resident";
  c.text = kProgram;
  c.symbols = &symbols;
  c.program = program;
  c.edb = snap.edb();
  c.idb = snap.idb();
  c.main_pred = preds[2];
  c.edge_pred = g;
  RunLayerProbes(cfg, {&c}, report);
}

}  // namespace recurbench
