/// \file collab.cc
/// \brief collab-adhoc: the paper's Fig. 8 mix measured in wall time. One
/// analyst runs a closed loop (one query in flight) of seeded Type 1-4
/// queries; every query runs on all four strategies, whose results must agree.
#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "harness.h"
#include "workload/testbed.h"

namespace perfbench {

using dl2sql::Rng;
using dl2sql::Stopwatch;
using dl2sql::engines::CollaborativeEngine;
using dl2sql::engines::Dl2SqlEngine;
using dl2sql::engines::QueryCost;
using dl2sql::workload::Testbed;
using dl2sql::workload::TestbedOptions;

namespace {

/// The standard small testbed of the repo's benches (bench/bench_util.h) on
/// the paper's edge device (one pool thread).
TestbedOptions CollabTestbedOptions(bool smoke) {
  TestbedOptions o;
  o.dataset.video_rows = smoke ? 150 : 1500;
  o.dataset.keyframe_size = smoke ? 8 : 16;
  o.dataset.keyframe_channels = 3;
  o.model_base_channels = smoke ? 2 : 4;
  o.histogram_samples = smoke ? 8 : 32;
  o.device = dl2sql::DeviceKind::kEdgeCpu;
  return o;
}

/// Per-strategy accumulators over the mix.
struct StrategyTally {
  Samples ms;
  Samples ms_by_type[4];
  QueryCost modeled;
  double input_load_s = 0;
  double sql_infer_s = 0;
  dl2sql::CostAccumulator clauses;
};

/// Builds a fresh testbed (dataset generation, model build and deployment on
/// all four engines) into `tb` and records how long it took.
bool SetUp(bool smoke, std::unique_ptr<Testbed>* tb, Samples* setup_s) {
  tb->reset();
  Stopwatch watch;
  auto created = Testbed::Create(CollabTestbedOptions(smoke));
  if (!created.ok()) {
    std::fprintf(stderr, "testbed set-up failed: %s\n",
                 created.status().ToString().c_str());
    return false;
  }
  *tb = std::move(created).ValueOrDie();
  setup_s->Add(watch.ElapsedSeconds());
  return true;
}

/// Pins the calling thread to one core of those the process may use, in
/// turn, so that each run samples every core alike. On a shared 4-core VM
/// the cores ran up to 30% apart in speed, changing from minute to minute,
/// and the lone analyst thread stayed on the core it started on, so a run's
/// figures followed that one core: over ten seeds the latency metrics spread
/// by 0.20-0.27 (quartile distance over median), and by 0.10-0.13 with the
/// thread moved for every query, which costs ~10% more time per query.
class CoreRotation {
 public:
  CoreRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cores_.push_back(c);
    }
  }
  ~CoreRotation() {
    if (!cores_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Pins the calling thread to the k-th core, modulo the number of cores.
  void MoveTo(size_t k) {
    if (cores_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cores_[k % cores_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cores_;
};

/// The strategies, in the order of kStrategyKeys.
constexpr size_t kStrategies = 4;

/// Runs every query of the sequence on each engine in turn, tallies the
/// measured and modeled costs, and checks the engines' results against the
/// last engine's (DB-PyTorch). Query q runs on engine e on core q + e, so
/// every strategy visits every core.
void RunPass(const std::vector<CollaborativeEngine*>& engines,
             const std::vector<std::string>& sqls,
             const std::vector<int>& types, Tracer* tracer,
             CoreRotation* cores, std::vector<StrategyTally>* tally,
             Outcome* outcome) {
  for (size_t q = 0; q < sqls.size(); ++q) {
    std::vector<std::vector<std::string>> rows(engines.size());
    std::vector<bool> ok(engines.size(), false);
    for (size_t e = 0; e < engines.size(); ++e) {
      QueryCost cost;
      cores->MoveTo(q + e);
      Stopwatch watch;
      dl2sql::Result<dl2sql::db::Table> result = [&] {
        Tracer::Scope span(tracer, "engines.execute_collaborative");
        return engines[e]->ExecuteCollaborative(sqls[q], &cost);
      }();
      const double ms = watch.ElapsedSeconds() * 1e3;
      ++outcome->attempted;
      (*tally)[e].ms.Add(ms);
      (*tally)[e].ms_by_type[types[q] - 1].Add(ms);
      (*tally)[e].modeled += cost;
      if (auto* d = dynamic_cast<Dl2SqlEngine*>(engines[e])) {
        const auto& stats = d->last_pipeline_stats();
        (*tally)[e].input_load_s += stats.load_seconds;
        (*tally)[e].sql_infer_s += stats.infer_seconds;
        (*tally)[e].clauses.Merge(stats.clause_costs);
      }
      if (!result.ok()) {
        std::fprintf(stderr, "%s failed: %s\n  SQL: %s\n", engines[e]->name(),
                     result.status().ToString().c_str(), sqls[q].c_str());
        continue;
      }
      ok[e] = true;
      rows[e] = CanonicalRows(*result);
    }
    const size_t ref = engines.size() - 1;
    for (size_t e = 0; e < engines.size(); ++e) {
      if (ok[e] && ok[ref] && rows[e] == rows[ref]) continue;
      ++outcome->failed;
      if (ok[e]) {
        std::fprintf(stderr, "%s disagrees with %s on: %s\n",
                     engines[e]->name(), engines[ref]->name(),
                     sqls[q].c_str());
      }
    }
  }
}

}  // namespace

Outcome RunCollabAdhoc(const RunOptions& opts, Tracer* tracer,
                       Report* report) {
  Outcome outcome;
  // Set-up runs fifteen times, as it takes only tens of milliseconds; setup_s
  // is the median over these and the set-ups of later passes. The last one
  // serves the first pass.
  CoreRotation cores;
  std::unique_ptr<Testbed> tb;
  Samples setup_s;
  for (int i = 0; i < 15; ++i) {
    cores.MoveTo(static_cast<size_t>(i));
    if (!SetUp(opts.smoke, &tb, &setup_s)) {
      outcome.correct = false;
      outcome.attempted = outcome.failed = 1;
      return outcome;
    }
  }

  // The seeded query sequence: `rounds` rounds of one query per type, in a
  // shuffled order. Every query gets its own F.humidity window holding
  // exactly three fabric rows (disjoint rank slots, seeded permutation) and
  // a random classify label.
  const size_t rounds = opts.smoke ? 1 : 12;
  auto humidity = SortedHumidity(&tb->master_db());
  const size_t slot_rows = 3;
  if (!humidity.ok() || humidity->size() / slot_rows < 4u * rounds) {
    std::fprintf(stderr, "not enough fabric rows for %zu disjoint windows\n",
                 4 * rounds);
    outcome.correct = false;
    outcome.attempted = outcome.failed = 1;
    return outcome;
  }
  Rng rng(opts.seed);
  std::vector<int> types;
  for (size_t r = 0; r < rounds; ++r) {
    for (int t = 1; t <= 4; ++t) types.push_back(t);
  }
  rng.Shuffle(&types);
  std::vector<size_t> slots(humidity->size() / slot_rows);
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  rng.Shuffle(&slots);
  std::vector<std::string> sqls;
  for (size_t q = 0; q < types.size(); ++q) {
    const auto [lo, hi] = RankWindow(*humidity, slots[q] * slot_rows, slot_rows);
    const std::string label = "class_" + std::to_string(rng.UniformInt(0, 9));
    sqls.push_back(CollabQuery(types[q], lo, hi, label));
  }
  // The mix runs in passes of the same sequence, each on a fresh testbed, so
  // every pass starts with cold nUDF caches and does the same work. A pass
  // takes 16-25 s on a 4-core box; a run makes one pass per 18 s of
  // --seconds, at least one, so the work is fixed for a given --seconds.
  const int passes =
      opts.smoke ? 1 : std::max(1, static_cast<int>(opts.seconds / 18));
  std::printf("collab-adhoc: %d passes of %zu queries x 4 strategies, edge "
              "device, %lld video rows\n",
              passes, sqls.size(),
              static_cast<long long>(
                  CollabTestbedOptions(opts.smoke).dataset.video_rows));

  std::vector<StrategyTally> tally(kStrategies);
  RegistryDelta delta;
  double mix_s = 0;
  std::vector<std::string> names;
  for (int pass = 0; pass < passes; ++pass) {
    if (pass > 0) {
      delta.Stop();
      if (!SetUp(opts.smoke, &tb, &setup_s)) {
        ++outcome.attempted;
        ++outcome.failed;
        break;
      }
      delta.Start();
    }
    // Reporting order of metric keys; DB-PyTorch (native, outside the
    // database) is the reference the other three must agree with.
    const std::vector<CollaborativeEngine*> engines = {
        tb->dl2sql(), tb->dl2sql_op(), tb->udf(), tb->independent()};
    if (pass == 0) {
      for (CollaborativeEngine* e : engines) names.push_back(e->name());
    }
    Stopwatch mix_watch;
    RunPass(engines, sqls, types, tracer, &cores, &tally, &outcome);
    mix_s += mix_watch.ElapsedSeconds();
  }
  delta.Stop();
  outcome.correct = outcome.failed == 0;

  // End-to-end: geometric means, so each strategy's (and each query type's)
  // relative change weighs the same whatever its absolute cost. The
  // quantiles are taken per strategy x type cell: the query types form
  // separate latency modes, and a quantile taken across them would jump
  // between modes from one seed to the next.
  std::vector<double> means, cell_p50s, cell_p75s;
  int64_t above_p75 = 0;
  for (const StrategyTally& t : tally) {
    means.push_back(t.ms.Mean());
    for (const Samples& cell : t.ms_by_type) {
      cell_p50s.push_back(cell.Quantile(0.5));
      cell_p75s.push_back(cell.Quantile(0.75));
      above_p75 += cell.CountAbove(0.75);
    }
  }
  const int64_t per_strategy = tally[0].ms.count();
  const std::string cells = "geomean over 16 strategy x type cells";
  report->Add("setup_s", setup_s.Quantile(0.5), "s", setup_s.count());
  report->Add("mean_ms", GeoMean(means), "ms", per_strategy,
              "geomean over 4 strategies of the mean");
  report->Add("p50_ms", GeoMean(cell_p50s), "ms", per_strategy,
              cells + " of the median");
  report->Add("tail_ms", GeoMean(cell_p75s), "ms", per_strategy,
              cells + " of p75 (" + std::to_string(above_p75) +
                  " samples above)");
  report->Add("max_rate_qps",
              static_cast<double>(outcome.attempted) / mix_s, "1/s",
              outcome.attempted,
              "closed loop, queries / wall time of the passes");

  // engines + dl2sql layers.
  AddIdleEngineLayers(report);
  for (size_t e = 0; e < kStrategies; ++e) {
    const StrategyTally& t = tally[e];
    const std::string p = std::string("engines.") + kStrategyKeys[e];
    const int64_t n = t.ms.count();
    report->Add(p + ".mean_ms", t.ms.Mean(), "ms", n);
    report->Add(p + ".p50_ms", t.ms.Quantile(0.5), "ms", n);
    report->Add(p + ".loading_modeled_s", t.modeled.loading_seconds, "s", n,
                "modeled, summed over the passes");
    report->Add(p + ".inference_modeled_s", t.modeled.inference_seconds, "s",
                n, "modeled, summed over the passes");
    report->Add(p + ".relational_modeled_s", t.modeled.relational_seconds,
                "s", n, "modeled, summed over the passes");
    if (e < 2) {
      const std::string d = std::string("dl2sql.") + kStrategyKeys[e];
      report->Add(d + ".input_load_s", t.input_load_s, "s", n);
      report->Add(d + ".sql_infer_s", t.sql_infer_s, "s", n);
      for (const char* clause :
           {"scan", "filter", "project", "join", "groupby", "sort"}) {
        report->Add(d + ".clause." + clause + "_s", t.clauses.Get(clause),
                    "s", n);
      }
    }
  }
  AddRegistryLayers(delta, mix_s, /*pool_threads=*/1, report);
  AddIdleServingLayers(report);

  std::printf("\n%-12s %10s %10s %10s %12s %12s %12s\n", "strategy",
              "mean_ms", "p50_ms", "max_ms", "load_mod_s", "infer_mod_s",
              "rel_mod_s");
  for (size_t e = 0; e < kStrategies; ++e) {
    const StrategyTally& t = tally[e];
    std::printf("%-12s %10.2f %10.2f %10.2f %12.4f %12.4f %12.4f\n",
                names[e].c_str(), t.ms.Mean(), t.ms.Quantile(0.5),
                t.ms.Quantile(1.0), t.modeled.loading_seconds,
                t.modeled.inference_seconds, t.modeled.relational_seconds);
  }
  std::printf("wall time of %d passes %.3f s; measured vs modeled: see "
              "engines.*\n\n",
              passes, mix_s);
  return outcome;
}

}  // namespace perfbench
