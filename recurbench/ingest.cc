// ingest: a durable shared server, admission on, FsyncPolicy::kBatch.
//
// The program is single-source reachability, which is cheap to maintain,
// so per-commit fixed costs show: the copy-on-write fork, the WAL append
// and fsync, and publishing. Open loop: one generator thread calls
// SubmitAsync with small insert batches at a fixed rate, and a waiter
// thread times each batch from when it was due until Ticket::Wait
// returns. The rate is capped, and lowered on hosts whose durable commit
// is slow, so that the committer stays mostly idle. A run whose committer
// backlog grew and stayed is flagged invalid instead of reporting its
// inflated latencies; a short stall (an fsync hiccup) that drains is only
// seen in the tail and the queue high water. The run ends with repeated warm
// OpenOrRecover restarts from a snapshot plus a WAL suffix; every
// acknowledged batch must be present after each one.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "gen.h"
#include "server/database.h"

namespace recurbench {
namespace {

namespace fs = std::filesystem;
namespace server = recur::server;

constexpr char kProgram[] =
    "reach(Y) :- start(Y).\n"
    "reach(Y) :- reach(X), link(X, Y).\n";

constexpr int kNodes = 3000;
constexpr int kEdges = 7500;
constexpr int kBatchEdges = 2;
// Batches per second at most. At this rate the committer of a 4-core
// 2.1 GHz VM is busy about a fifth to a third of the time (see
// server.commit.busy_share in the traced run), and group commit absorbs
// bursts above that.
constexpr double kMaxRatePerSecond = 300;
// Where one durable commit takes longer than kBusyShare / kMaxRatePerSecond
// (2.5 ms: a slow disk; the 4-core VM above reads 0.5-1.7 ms), the rate is
// lowered to kBusyShare / that commit time, measured as the median of
// kCalibrationBatches closed-loop Submits before the run. kBusyShare is the
// committer's busy share were it never to group batches; grouping keeps the
// real share well below it.
constexpr double kBusyShare = 0.75;
constexpr int kCalibrationBatches = 200;
// Deep enough that a stall of several seconds queues rather than sheds.
constexpr size_t kMaxQueueDepth = 4096;
constexpr size_t kMaxGroupBatches = 8;
// A pass is invalid when its median backlog (batches submitted and not yet
// acknowledged) over its second half exceeds this: the committer fell
// behind and did not catch up.
constexpr size_t kBacklogLimit = 2 * kMaxGroupBatches;
constexpr int kSetupRepeats = 15;
constexpr int kSuffixBatches = 64;
constexpr int kRestarts = 25;

struct Pending {
  server::GroupCommitter::Ticket ticket;
  double due = 0;
  std::vector<std::pair<ra::Value, ra::Value>> edges;
};

struct PassResult {
  Samples commit_us;
  Samples late_us;  // generator lateness: submit time - due time
  Samples late_backlog;  // backlog at each submission in the second half
  uint64_t attempted = 0, failed = 0;
  double seconds = 0;
};

// Draws batches of fresh edges; `edges` holds every edge submitted so far.
class EdgeSource {
 public:
  EdgeSource(uint64_t seed, std::set<std::pair<ra::Value, ra::Value>>* edges)
      : rng_(seed), edges_(edges) {}
  std::vector<std::pair<ra::Value, ra::Value>> Next() {
    std::vector<std::pair<ra::Value, ra::Value>> out;
    while (out.size() < kBatchEdges) {
      const std::pair<ra::Value, ra::Value> e = {
          static_cast<ra::Value>(rng_.Below(kNodes)),
          static_cast<ra::Value>(rng_.Below(kNodes))};
      if (e.first == e.second || !edges_->insert(e).second) continue;
      out.push_back(e);
    }
    return out;
  }

 private:
  Rng rng_;
  std::set<std::pair<ra::Value, ra::Value>>* edges_;
};

eval::EdbDeltas Batch(SymbolId link,
                      const std::vector<std::pair<ra::Value, ra::Value>>& es) {
  eval::EdbDeltas deltas;
  eval::EdbDelta d(2);
  for (const auto& e : es) d.inserts.Insert({e.first, e.second});
  deltas.emplace(link, std::move(d));
  return deltas;
}

// One open-loop pass of `seconds` at `rate` batches per second.
void Pass(server::Database* db, SymbolId link, EdgeSource* source,
          std::set<std::pair<ra::Value, ra::Value>>* acked, double rate,
          double seconds, bool traced, PassResult* out) {
  Tracer::SetEnabled(traced);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<uint64_t, Pending>> queue;
  bool done = false;
  std::atomic<uint64_t> completed{0};

  std::thread waiter([&] {
    for (;;) {
      std::pair<uint64_t, Pending> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      OpScope op(item.first);
      const recur::Status st = [&] {
        Span span("server", "Ticket.Wait");
        return item.second.ticket.Wait();
      }();
      const double now = Seconds();
      completed.fetch_add(1);
      if (!st.ok()) {
        ++out->failed;
        continue;
      }
      out->commit_us.Add((now - item.second.due) * 1e6);
      acked->insert(item.second.edges.begin(), item.second.edges.end());
    }
  });

  const double start = Seconds();
  uint64_t submitted = 0;
  for (uint64_t i = 0;; ++i) {
    const double due = start + static_cast<double>(i) / rate;
    if (due >= start + seconds) break;
    Pending p;
    p.due = due;
    p.edges = source->Next();
    eval::EdbDeltas batch = Batch(link, p.edges);
    const double now = Seconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    out->late_us.Add(std::max(0.0, Seconds() - due) * 1e6);
    const uint64_t op_id = Tracer::NewOp();
    OpScope op(op_id);
    {
      Span span("server", "SubmitAsync");
      p.ticket = db->committer()->SubmitAsync(std::move(batch));
    }
    ++submitted;
    if (due >= start + seconds / 2) {
      out->late_backlog.Add(static_cast<double>(submitted - completed.load()));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(op_id, std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  waiter.join();
  out->seconds = Seconds() - start;
  out->attempted += submitted;
  Tracer::SetEnabled(false);
}

}  // namespace

void RunIngest(const RunConfig& cfg, Report* report) {
  SymbolTable symbols;
  const datalog::Program program =
      Must(datalog::ParseProgram(kProgram, &symbols), "parse");
  const SymbolId link = symbols.Intern("link");
  const SymbolId reach = symbols.Lookup("reach");
  Rng rng(cfg.seed);
  Rng graph_rng = rng.Fork(1);
  ra::Database edb;
  Must(edb.GetOrCreate(link, 2), "edb")
      ->InsertAll(RandomEdges(kNodes, kEdges, graph_rng));
  ra::Relation* start =
      Must(edb.GetOrCreate(symbols.Intern("start"), 1), "edb");
  for (int i = 0; i < 8; ++i) {
    start->Insert({static_cast<ra::Value>(graph_rng.Below(kNodes))});
  }

  const std::string dir = cfg.work_dir + "/ingest_db";
  server::ServerOptions options;
  options.durability.dir = dir;
  options.durability.program_text = kProgram;
  options.durability.fsync = server::FsyncPolicy::kBatch;

  // Set-up: Create (analysis, routes, bootstrap) plus the first snapshot,
  // timed several times before the run and again after it.
  Samples setup;
  const std::string setup_dir = cfg.work_dir + "/ingest_setup";
  auto create = [&](const std::string& where) {
    fs::remove_all(where);
    server::ServerOptions opts = options;
    opts.durability.dir = where;
    const double t0 = Seconds();
    auto created = Must(
        server::Database::Create(program, edb, &symbols, opts), "create");
    setup.Add(Seconds() - t0);
    return created;
  };
  for (int i = 1; i < kSetupRepeats; ++i) create(setup_dir);
  std::unique_ptr<server::Database> db = create(dir);
  server::AdmissionOptions admission;
  admission.max_queue_depth = kMaxQueueDepth;
  admission.max_group_batches = kMaxGroupBatches;
  db->EnableAdmission(admission);

  std::set<std::pair<ra::Value, ra::Value>> submitted, acked;
  for (ra::TupleRef row : edb.Find(link)->rows()) {
    submitted.insert({row[0], row[1]});
    acked.insert({row[0], row[1]});
  }
  EdgeSource source(cfg.seed * 31 + 5, &submitted);

  // Warm-up and calibration: closed-loop durable commits of single batches.
  Samples calibration_s;
  for (int i = 0; i < kCalibrationBatches; ++i) {
    const auto es = source.Next();
    ++report->attempted;
    const double t0 = Seconds();
    const recur::Status st = db->Submit(Batch(link, es));
    if (!st.ok()) {
      ++report->failed;
      continue;
    }
    calibration_s.Add(Seconds() - t0);
    acked.insert(es.begin(), es.end());
  }
  const double rate =
      std::min(kMaxRatePerSecond,
               kBusyShare / calibration_s.Median().value_or(1.0));

  PassResult r;
  Pass(db.get(), link, &source, &acked, rate,
       cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, &r);
  PassResult traced;
  if (cfg.trace) {
    Pass(db.get(), link, &source, &acked, rate, cfg.seconds / 2, true,
         &traced);
  }
  for (int i = 0; i < kSetupRepeats; ++i) create(setup_dir);
  fs::remove_all(setup_dir);
  report->setup_s = *setup.Median();
  report->E2e("setup_s", "s", setup.Median(), setup.size());
  const server::ServerStats stats = db->overload_stats();
  report->attempted += r.attempted + traced.attempted;
  report->failed += r.failed + traced.failed;

  report->E2e("commit_p50_us", "us", r.commit_us.Median(), r.commit_us.size(),
              "due time to Ticket::Wait returning");
  AddTail(report, "commit_p95_us", "us", r.commit_us, 0.95);
  report->E2e("generator_late_p50_us", "us", r.late_us.Median(),
              r.late_us.size(), "submit time - due time");
  report->E2e("generator_late_max_us", "us", r.late_us.Quantile(1.0),
              r.late_us.size());
  report->E2e("queue_high_water", "batches",
              static_cast<double>(stats.queue_high_water), 1,
              "deepest committer queue seen");
  report->E2e("offered_rate", "1/s", rate, 1,
              "min(" + std::to_string(static_cast<int>(kMaxRatePerSecond)) +
                  ", busy share / calibrated commit time)");
  report->E2e("calibration_commit_p50_us", "us",
              Scaled(calibration_s.Median(), 1e6), calibration_s.size(),
              "closed-loop Submit of one batch, before the run");
  report->E2e("late_backlog_p50", "batches", r.late_backlog.Median(),
              r.late_backlog.size(),
              "unacknowledged batches, second half of the pass");
  report->Kind("commit", r.commit_us.Median());
  const double backlog = std::max(r.late_backlog.Median().value_or(0),
                                  traced.late_backlog.Median().value_or(0));
  if (backlog > static_cast<double>(kBacklogLimit) || stats.sheds > 0) {
    report->Invalidate(
        "committer backlog grew: median " + std::to_string(backlog) +
        " batches unacknowledged over the second half, queue high water " +
        std::to_string(stats.queue_high_water) + ", sheds " +
        std::to_string(stats.sheds));
  }

  // A fresh snapshot, then a fixed WAL suffix, then shut down.
  MustOk(db->SaveSnapshot(), "snapshot");
  for (int i = 0; i < kSuffixBatches; ++i) {
    const auto es = source.Next();
    ++report->attempted;
    const recur::Status st = db->Submit(Batch(link, es));
    if (!st.ok()) {
      ++report->failed;
      continue;
    }
    acked.insert(es.begin(), es.end());
  }
  const uint64_t final_epoch = db->epoch();
  const size_t final_reach = db->snapshot().idb().Find(reach)->size();
  const eval::IdbRelations recomputed =
      Must(eval::SemiNaiveEvaluate(program, db->snapshot().edb()), "recompute");
  report->AddCheck("idb.equals_recomputation",
                   SortedRowsBytes(*db->snapshot().idb().Find(reach)) ==
                       SortedRowsBytes(recomputed.at(reach)),
                   "|reach| = " + std::to_string(final_reach) + " at epoch " +
                       std::to_string(final_epoch));
  const auto cache = db->plan_cache_stats();
  db.reset();

  // Warm restarts; in the traced run half of them are traced.
  auto restarts = [&](int n, bool trace_on, Samples* ms,
                      std::unique_ptr<server::Database>* keep) {
    for (int i = 0; i < n; ++i) {
      Tracer::SetEnabled(trace_on);
      server::RecoveryInfo info;
      const double t0 = Seconds();
      recur::Result<std::unique_ptr<server::Database>> reopened = [&] {
        Span span("server", "OpenOrRecover");
        return server::Database::OpenOrRecover(dir, kProgram, &symbols,
                                               options, &info);
      }();
      const double elapsed = (Seconds() - t0) * 1e3;
      Tracer::SetEnabled(false);
      ++report->attempted;
      if (!reopened.ok()) {
        ++report->failed;
        report->AddCheck("restart.status", false,
                         reopened.status().ToString());
        continue;
      }
      ms->Add(elapsed);
      const ra::Relation& links = *(*reopened)->snapshot().edb().Find(link);
      size_t missing = 0;
      for (const auto& e : acked) {
        if (!links.Contains({e.first, e.second})) ++missing;
      }
      const bool ok = missing == 0 && info.warm_start &&
                      (*reopened)->epoch() == final_epoch &&
                      (*reopened)->snapshot().idb().Find(reach)->size() ==
                          final_reach;
      if (!ok || i == 0) {
        report->AddCheck(
            "restart.acknowledged_batches_present", ok,
            std::to_string(acked.size()) + " acknowledged edges, " +
                std::to_string(missing) + " missing; replayed " +
                std::to_string(info.replayed_batches) +
                " WAL batches to epoch " +
                std::to_string((*reopened)->epoch()));
      }
      if (keep != nullptr && i == n - 1) *keep = std::move(*reopened);
    }
  };
  Samples restart_ms, traced_restart_ms;
  restarts(kRestarts, false, &restart_ms, nullptr);
  report->E2e("restart_ms", "ms", restart_ms.Median(), restart_ms.size(),
              "warm OpenOrRecover: snapshot + " +
                  std::to_string(kSuffixBatches) + "-batch WAL suffix");
  report->Kind("restart", Scaled(restart_ms.Median(), 1e3));

  if (!cfg.trace) {
    fs::remove_all(dir);
    return;
  }
  std::unique_ptr<server::Database> recovered;
  restarts(kRestarts, true, &traced_restart_ms, &recovered);
  report->traced_kinds = {traced.commit_us.Median(),
                          Scaled(traced_restart_ms.Median(), 1e3)};
  report->traced_spans = Tracer::Drain();

  // Admission and commit layers.
  const double per_group = stats.groups > 0 ? static_cast<double>(
                                                  stats.committed_batches) /
                                                  stats.groups
                                            : 0;
  report->Layer("server.admission.batches_per_group", "batches",
                Ratio(static_cast<double>(stats.committed_batches),
                      static_cast<double>(stats.groups)),
                stats.groups);
  report->Layer("server.admission.queue_high_water", "batches",
                static_cast<double>(stats.queue_high_water), 1);
  report->Layer("server.admission.sheds", "count",
                static_cast<double>(stats.sheds), stats.submitted);
  report->Layer("eval.plan.cache_hit_ratio", "fraction",
                Ratio(static_cast<double>(cache.hits),
                      static_cast<double>(cache.hits + cache.misses)),
                cache.hits + cache.misses);
  // A direct Apply of one group-sized batch on a twin durable server.
  {
    const std::string twin_dir = cfg.work_dir + "/ingest_twin";
    fs::remove_all(twin_dir);
    server::ServerOptions twin_options = options;
    twin_options.durability.dir = twin_dir;
    auto twin = Must(server::Database::Create(program, edb, &symbols,
                                              twin_options),
                     "twin create");
    std::set<std::pair<ra::Value, ra::Value>> twin_edges = submitted;
    EdgeSource twin_source(cfg.seed * 37 + 11, &twin_edges);
    const int group = std::max(1, static_cast<int>(per_group + 0.5));
    Samples apply_ms;
    for (int i = 0; i < 40; ++i) {
      std::vector<std::pair<ra::Value, ra::Value>> es;
      for (int b = 0; b < group; ++b) {
        const auto more = twin_source.Next();
        es.insert(es.end(), more.begin(), more.end());
      }
      const eval::EdbDeltas batch = Batch(link, es);
      const double t0 = Seconds();
      MustOk(twin->Apply(batch), "twin apply");
      apply_ms.Add((Seconds() - t0) * 1e3);
    }
    twin.reset();
    fs::remove_all(twin_dir);
    report->Layer("server.commit.apply_ms", "ms", apply_ms.Median(),
                  apply_ms.size(),
                  "direct Apply of a " + std::to_string(group) +
                      "-batch group, durable twin");
    if (r.commit_us.Median() && apply_ms.Median()) {
      report->Layer("server.admission.wait_us", "us",
                    *r.commit_us.Median() - *apply_ms.Median() * 1e3,
                    r.commit_us.size(), "commit p50 - apply");
      report->Layer("server.commit.busy_share", "fraction",
                    static_cast<double>(stats.groups) * *apply_ms.Median() /
                        1e3 / (r.seconds + traced.seconds),
                    stats.groups, "groups x apply / wall time, estimated");
    }
  }
  ProbeCreate(program, edb, report->setup_s, report);

  ProgramCase c;
  c.name = "ingest";
  c.text = kProgram;
  c.symbols = &symbols;
  c.program = program;
  c.edb = recovered->snapshot().edb();
  c.idb = recovered->snapshot().idb();
  c.main_pred = reach;
  c.edge_pred = link;
  RunLayerProbes(cfg, {&c}, report);
  recovered.reset();
  fs::remove_all(dir);
}

}  // namespace recurbench
