/// \file harness.h
/// \brief Shared plumbing of the perfbench workloads: run options, the metric
/// report, the in-memory span tracer, sample statistics, metrics-registry
/// deltas and the canonical result rendering used by the correctness gates.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "db/database.h"
#include "db/table.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Tiny sizes: checks that every metric name appears and that the
  /// correctness gate runs, in a few seconds.
  bool smoke = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Microseconds on the steady clock since the first call in this process.
int64_t NowMicros();

/// \brief One named measurement with its unit, sample count and, for ratios,
/// the base the ratio was taken over.
struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
  std::string base;
};

/// \brief Every metric a run produced, by name. Printed as one human-readable
/// line per metric and as the final JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples, const std::string& base = "");
  /// A ratio `num / den`, recorded with its base spelled out.
  void AddRatio(const std::string& name, double num, double den,
                const std::string& num_label, const std::string& den_label);

  void PrintHuman() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string ToJson(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// \brief In-memory span recorder for the traced run. Spans are recorded only
/// around the benchmark's own calls into the program; nothing inside the
/// program is instrumented. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t trace_id = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
    int tid = 0;
  };

  /// \brief RAII span; nests under the calling thread's open span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    uint64_t prev_open_ = 0;
    uint64_t prev_trace_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int64_t span_count() const;
  /// Sum of durations (seconds) and count of the spans named `name` that
  /// started at or after `since_us` (NowMicros() time).
  double TotalSeconds(const std::string& name, int64_t* count,
                      int64_t since_us = 0) const;
  /// Chrome trace ("X" events, one row per thread).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Record(Span span);

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Samples in milliseconds or any other unit; quantiles by nearest rank.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  int64_t count() const { return static_cast<int64_t>(v_.size()); }
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;
  /// Samples strictly above Quantile(q).
  int64_t CountAbove(double q) const;

 private:
  std::vector<double> v_;
};

/// Geometric mean of positive values (0 if any is not positive).
double GeoMean(const std::vector<double>& values);

/// Counter / histogram deltas of the program's MetricsRegistry, summed over
/// one or more measured intervals of the run. The first starts at
/// construction.
class RegistryDelta {
 public:
  RegistryDelta() { Start(); }
  /// Starts an interval.
  void Start() { before_ = dl2sql::MetricsRegistry::Global().Snapshot(); }
  /// Ends the interval and adds its change to the sums.
  void Stop();
  int64_t Counter(const std::string& name) const;
  int64_t HistCount(const std::string& name) const;
  int64_t HistSum(const std::string& name) const;
  /// Bucket upper-bound estimate of the q-quantile (microseconds or bytes).
  int64_t HistQuantile(const std::string& name, double q) const;

 private:
  dl2sql::MetricsSnapshot before_;
  dl2sql::MetricsSnapshot delta_;
};

/// Order-insensitive multiset rendering of a result: one string per row,
/// FLOAT64 cells as %.6g, sorted (the rule of tests/engines/engines_test.cc).
std::vector<std::string> CanonicalRows(const dl2sql::db::Table& t);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// What a workload reports besides its metrics: operations attempted and
/// failed (errors, refusals, timeouts and wrong results), and whether every
/// correctness check passed.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
};

/// The strategies of the paper, in the order metric names use them.
inline const char* const kStrategyKeys[] = {"dl2sql", "dl2sql_op", "db_udf",
                                            "db_pytorch"};

/// collab-adhoc: the Fig. 8 mix, one analyst, all four strategies.
Outcome RunCollabAdhoc(const RunOptions& opts, Tracer* tracer, Report* report);
/// serve-dashboard (ingest = false) and serve-ingest (ingest = true).
Outcome RunServe(const RunOptions& opts, bool ingest, Tracer* tracer,
                 Report* report);

/// Zero-valued entries for the per-layer metrics of the engines/dl2sql layers
/// (serve-* run no collaborative strategy) or of the nn/tensor/server/client
/// layers (collab-adhoc serves nothing), so every run names every metric.
void AddIdleEngineLayers(Report* report);
void AddIdleServingLayers(Report* report);

/// Per-layer metrics read as deltas of the program's own counters and
/// histograms (db, accel), over `wall_seconds` of measured time on a pool of
/// `pool_threads` threads.
void AddRegistryLayers(const RegistryDelta& d, double wall_seconds,
                       int pool_threads, Report* report);

/// SQL string literal for arbitrary bytes (quotes doubled).
std::string SqlQuote(const std::string& bytes);

/// The fabric table's humidity values, sorted (for rank-exact windows).
dl2sql::Result<std::vector<double>> SortedHumidity(dl2sql::db::Database* db);

/// Bounds (lo, hi) of an open F.humidity window holding exactly the rows of
/// ranks [first, first + count) of `sorted`: each bound is the midpoint to
/// the neighbouring value, or 0 / 100 at the ends of the range.
std::pair<double, double> RankWindow(const std::vector<double>& sorted,
                                     size_t first, size_t count);

/// One collaborative query of Table I's type 1..4 over the IoT schema, with
/// the relational predicates of workload/queries.cc except that F.humidity
/// is bounded to the window (lo, hi) instead of one threshold, so a run can
/// hand every query its own disjoint window. `label` is the class the
/// classify-style Type 1 predicate tests.
std::string CollabQuery(int type, double lo, double hi,
                        const std::string& label);

}  // namespace perfbench
