// closure: batch fixpoints through eval::SemiNaiveEvaluate, no server.
//
// Two programs, each at 1 and at N = min(4, nproc) threads:
//   grid - linear transitive closure over a 32x32 grid (277 760 tuples):
//          many rounds with small deltas, so per-round fixed costs
//          (plan-cache lookups, sharding, dedup, pool dispatch) dominate;
//   sg   - same-generation (the paper's s2a shape, class A1) over a
//          preferential-attachment tree: multi-probe bodies over skewed
//          buckets.
// The working set exceeds a core's L2. Every fixpoint's cardinality and
// order-independent row digest must equal a reference computed once.
#include <algorithm>
#include <cstdio>
#include <string>

#include "common.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "gen.h"

namespace recurbench {
namespace {

constexpr char kGridProgram[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
constexpr char kSgProgram[] =
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).\n";

constexpr int kGridSide = 32;
constexpr int kTreeNodes = 1200;
// Same-generation size the tree is drawn near (the median over seeds of a
// 1200-node preferential-attachment tree is about 254 000).
constexpr size_t kTreeSgTarget = 254000;
constexpr int kTreeDraws = 32;
constexpr int kSetupRepeats = 21;
constexpr int kMinRounds = 3;

struct Inputs {
  ra::Relation edge, up, down, flat;
};

struct Loaded {
  SymbolTable symbols;
  datalog::Program grid, sg;
  ra::Database grid_edb, sg_edb;
};

void Put(ra::Database* db, SymbolTable* symbols, const char* name,
         const ra::Relation& rows) {
  ra::Relation* rel =
      Must(db->GetOrCreate(symbols->Intern(name), rows.arity()), "edb");
  rel->InsertAll(rows);
}

std::unique_ptr<Loaded> Load(const Inputs& in) {
  auto l = std::make_unique<Loaded>();
  l->grid = Must(datalog::ParseProgram(kGridProgram, &l->symbols), "parse");
  l->sg = Must(datalog::ParseProgram(kSgProgram, &l->symbols), "parse");
  Put(&l->grid_edb, &l->symbols, "edge", in.edge);
  Put(&l->sg_edb, &l->symbols, "up", in.up);
  Put(&l->sg_edb, &l->symbols, "down", in.down);
  Put(&l->sg_edb, &l->symbols, "flat", in.flat);
  return l;
}

struct Config {
  const char* name;   // metric prefix
  int program;        // 0 grid, 1 sg
  int threads;
};

struct Reference {
  size_t size = 0;
  uint64_t digest = 0;
};

}  // namespace

void RunClosure(const RunConfig& cfg, Report* report) {
  Rng rng(cfg.seed);
  Inputs in;
  Rng grid_rng = rng.Fork(1), tree_rng = rng.Fork(2);
  in.edge = GridEdges(kGridSide, kGridSide, grid_rng);
  in.up = PaTreeUpNear(kTreeNodes, kTreeSgTarget, kTreeDraws, tree_rng);
  in.down = Swapped(in.up);
  in.flat = Diagonal(in.up);

  // Set-up: parse both programs and load the EDBs. Timed up front and
  // again after every fixpoint of the untraced pass, so that its median
  // covers the whole run rather than one instant of it.
  Samples setup;
  auto load = [&] {
    const double t0 = Seconds();
    std::unique_ptr<Loaded> fresh = Load(in);
    setup.Add(Seconds() - t0);
    return fresh;
  };
  std::unique_ptr<Loaded> l;
  for (int i = 0; i < kSetupRepeats; ++i) l = load();

  const datalog::Program* programs[2] = {&l->grid, &l->sg};
  const ra::Database* edbs[2] = {&l->grid_edb, &l->sg_edb};
  const SymbolId preds[2] = {l->symbols.Lookup("tc"), l->symbols.Lookup("sg")};
  const int n = cfg.threads_n;
  const Config configs[4] = {{"grid_t1", 0, 1}, {"grid_tN", 0, n},
                             {"sg_t1", 1, 1}, {"sg_tN", 1, n}};

  // The reference, computed once at one thread; it also warms the
  // allocator and the code paths.
  Reference ref[2];
  eval::IdbRelations final_idb[2];
  for (int p = 0; p < 2; ++p) {
    eval::FixpointOptions options;
    auto idb = Must(eval::SemiNaiveEvaluate(*programs[p], *edbs[p], options),
                    "reference fixpoint");
    ref[p] = {idb.at(preds[p]).size(), RowDigest(idb.at(preds[p]))};
    final_idb[p] = std::move(idb);
  }

  int mismatches[2] = {0, 0};
  auto pass = [&](double seconds, bool traced, Samples* out) {
    Tracer::SetEnabled(traced);
    const double end = Seconds() + seconds;
    for (int round = 0; round < kMinRounds || Seconds() < end; ++round) {
      for (int k = 0; k < 4; ++k) {
        const int idx = (k + round) % 4;
        const Config& c = configs[idx];
        eval::FixpointOptions options;
        options.num_threads = c.threads;
        ++report->attempted;
        const uint64_t op = Tracer::NewOp();
        OpScope scope(op);
        const double t0 = Seconds();
        recur::Result<eval::IdbRelations> idb = [&] {
          Span span("eval", "SemiNaiveEvaluate");
          return eval::SemiNaiveEvaluate(*programs[c.program],
                                         *edbs[c.program], options);
        }();
        const double ms = (Seconds() - t0) * 1e3;
        if (!idb.ok()) {
          ++report->failed;
          report->AddCheck(std::string(c.name) + ".status", false,
                           idb.status().ToString());
          continue;
        }
        const ra::Relation& rel = idb->at(preds[c.program]);
        const Reference got{rel.size(), RowDigest(rel)};
        if (got.size != ref[c.program].size ||
            got.digest != ref[c.program].digest) {
          ++mismatches[c.program];
        }
        out[idx].Add(ms);
        if (!traced) load();
      }
    }
    Tracer::SetEnabled(false);
  };

  Samples ms[4];
  pass(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, ms);
  report->setup_s = *setup.Median();
  report->E2e("setup_s", "s", setup.Median(), setup.size());
  for (int k = 0; k < 4; ++k) {
    report->E2e(std::string(configs[k].name) + "_ms", "ms", ms[k].Median(),
                ms[k].size(), "median wall time of one fixpoint");
    report->Kind(configs[k].name, Scaled(ms[k].Median(), 1e3));
  }
  auto add_checks = [&] {
    for (int p = 0; p < 2; ++p) {
      report->AddCheck(
          std::string(p == 0 ? "grid" : "sg") + ".matches_reference",
          mismatches[p] == 0,
          std::to_string(mismatches[p]) + " fixpoints at 1 or " +
              std::to_string(n) + " threads differ from the reference |" +
              (p == 0 ? "tc" : "sg") + "| = " + std::to_string(ref[p].size) +
              " and its row digest");
    }
  };
  if (!cfg.trace) {
    add_checks();
    return;
  }

  // Traced pass: the same loop with a span around every fixpoint.
  Samples traced[4];
  pass(cfg.seconds / 2, true, traced);
  add_checks();
  for (int k = 0; k < 4; ++k) {
    report->traced_kinds.push_back(Scaled(traced[k].Median(), 1e3));
  }
  report->traced_spans = Tracer::Drain();

  ProgramCase cases[2];
  for (int p = 0; p < 2; ++p) {
    ProgramCase& c = cases[p];
    c.name = p == 0 ? "grid" : "sg";
    c.text = p == 0 ? kGridProgram : kSgProgram;
    c.symbols = &l->symbols;
    c.program = *programs[p];
    c.edb = *edbs[p];
    for (auto& [pred, rel] : final_idb[p]) {
      Must(c.idb.GetOrCreate(pred, rel.arity()), "idb")->InsertAll(rel);
    }
    c.main_pred = preds[p];
  }
  cases[0].edge_pred = l->symbols.Lookup("edge");
  cases[1].edge_pred = l->symbols.Lookup("up");
  RunLayerProbes(cfg, {&cases[0], &cases[1]}, report);
}

}  // namespace recurbench
