#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

thread_local uint64_t tls_open_span = 0;
thread_local uint64_t tls_trace_id = 0;

int ThreadIndex() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int64_t NowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------- Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples,
                 const std::string& base) {
  metrics_[name] = Metric{value, unit, samples, base};
}

void Report::AddRatio(const std::string& name, double num, double den,
                      const std::string& num_label,
                      const std::string& den_label) {
  std::ostringstream base;
  base << num_label << "=" << static_cast<int64_t>(num) << " / " << den_label
       << "=" << static_cast<int64_t>(den);
  Add(name, den > 0 ? num / den : 0.0, "ratio", static_cast<int64_t>(den),
      base.str());
}

void Report::PrintHuman() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-44s %14.6g %-6s n=%lld%s%s\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples),
                m.base.empty() ? "" : "  base: ", m.base.c_str());
  }
}

std::string Report::ToJson(bool correct, int64_t attempted,
                           int64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
  }
  span_.name = name;
  span_.parent = tls_open_span;
  span_.trace_id = tls_trace_id != 0 ? tls_trace_id : span_.id;
  span_.tid = ThreadIndex();
  prev_open_ = tls_open_span;
  prev_trace_ = tls_trace_id;
  tls_open_span = span_.id;
  tls_trace_id = span_.trace_id;
  span_.start_us = NowMicros();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_us = NowMicros();
  tls_open_span = prev_open_;
  tls_trace_id = prev_trace_;
  tracer_->Record(std::move(span_));
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

int64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

double Tracer::TotalSeconds(const std::string& name, int64_t* count,
                            int64_t since_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  int64_t n = 0;
  for (const Span& s : spans_) {
    if (s.name != name || s.start_us < since_us) continue;
    total += static_cast<double>(s.end_us - s.start_us) * 1e-6;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << s.tid << ", \"ts\": " << s.start_us
        << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {\"id\": "
        << s.id << ", \"parent\": " << s.parent
        << ", \"trace_id\": " << s.trace_id << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- Samples

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(q * static_cast<double>(s.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::Mean() const {
  return v_.empty() ? 0 : Sum() / static_cast<double>(v_.size());
}

double Samples::Sum() const {
  double t = 0;
  for (double v : v_) t += v;
  return t;
}

int64_t Samples::CountAbove(double q) const {
  const double cut = Quantile(q);
  return std::count_if(v_.begin(), v_.end(), [&](double v) { return v > cut; });
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (v <= 0) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// ---------------------------------------------------------- RegistryDelta

void RegistryDelta::Stop() {
  const dl2sql::MetricsSnapshot d = dl2sql::MetricsRegistry::SnapshotDelta(
      before_, dl2sql::MetricsRegistry::Global().Snapshot());
  for (const auto& [name, v] : d.counters) delta_.counters[name] += v;
  for (const auto& [name, h] : d.histograms) {
    auto& sum = delta_.histograms[name];
    sum.count += h.count;
    sum.sum_micros += h.sum_micros;
    for (int b = 0; b < dl2sql::Histogram::kNumBuckets; ++b) {
      sum.buckets[b] += h.buckets[b];
    }
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = delta_.counters.find(name);
  return it == delta_.counters.end() ? 0 : it->second;
}

int64_t RegistryDelta::HistCount(const std::string& name) const {
  auto it = delta_.histograms.find(name);
  return it == delta_.histograms.end() ? 0 : it->second.count;
}

int64_t RegistryDelta::HistSum(const std::string& name) const {
  auto it = delta_.histograms.find(name);
  return it == delta_.histograms.end() ? 0 : it->second.sum_micros;
}

int64_t RegistryDelta::HistQuantile(const std::string& name, double q) const {
  auto it = delta_.histograms.find(name);
  if (it == delta_.histograms.end() || it->second.count == 0) return 0;
  return it->second.Quantile(q);
}

// ------------------------------------------------------- layer metrics

void AddRegistryLayers(const RegistryDelta& d, double wall_seconds,
                       int pool_threads, Report* r) {
  auto us = [&](const std::string& hist, double q) {
    return static_cast<double>(d.HistQuantile(hist, q));
  };
  const double misses = static_cast<double>(d.Counter("cache.nudf.misses"));
  const double hits = static_cast<double>(d.Counter("cache.nudf.hits"));
  const double batches = static_cast<double>(d.Counter("nudf.batches"));
  const int64_t batch_n = d.HistCount("nudf.batch_us");

  // db: nUDF evaluation, caches, vector kernels, per-query accounting, joins.
  r->Add("db.nudf.invocations", d.Counter("nudf.invocations"), "count", 1);
  r->Add("db.nudf.batches", batches, "count", 1);
  r->AddRatio("db.nudf.rows_per_batch", misses, batches, "model_rows",
              "batches");
  r->Add("db.nudf.batch_us.p50", us("nudf.batch_us", 0.5), "us", batch_n);
  r->Add("db.nudf.batch_us.p99", us("nudf.batch_us", 0.99), "us", batch_n);
  r->AddRatio("db.nudf_cache.hit_ratio", hits, hits + misses, "hits",
              "lookups");
  const double plan_hits = static_cast<double>(d.Counter("cache.plan.hits"));
  const double plan_lookups =
      plan_hits + static_cast<double>(d.Counter("cache.plan.misses"));
  r->AddRatio("db.plan_cache.hit_ratio", plan_hits, plan_lookups, "hits",
              "lookups");
  const double vec_rows = static_cast<double>(d.Counter("db.vector.rows"));
  r->Add("db.vector.rows", vec_rows, "count", 1);
  r->AddRatio("db.vector.selectivity",
              static_cast<double>(d.Counter("db.vector.selected")), vec_rows,
              "selected", "rows");
  const int64_t queries = d.HistCount("dl2sql.query.cpu_us");
  r->Add("db.query.cpu_us.p50", us("dl2sql.query.cpu_us", 0.5), "us", queries);
  // Query memory peaks pass the histogram's top finite bucket (~8 MiB) on
  // served queries; the quantile is then unbounded, so the mean is shown.
  const int64_t mem_n = d.HistCount("dl2sql.query.mem_peak_bytes");
  const double mem_p50 = us("dl2sql.query.mem_peak_bytes", 0.5);
  r->Add("db.query.mem_peak_bytes.p50",
         mem_p50 >= 0 || mem_n == 0
             ? mem_p50
             : static_cast<double>(d.HistSum("dl2sql.query.mem_peak_bytes")) /
                   static_cast<double>(mem_n),
         "bytes", mem_n,
         mem_p50 >= 0 ? "" : "above the top histogram bucket: mean shown");
  r->Add("db.query.lock_wait_us.p99", us("dl2sql.query.lock_wait_us", 0.99),
         "us", d.HistCount("dl2sql.query.lock_wait_us"));
  r->Add("db.query.pool_queue_wait_us.p99",
         us("dl2sql.query.pool_queue_wait_us", 0.99), "us",
         d.HistCount("dl2sql.query.pool_queue_wait_us"));
  r->Add("db.symmetric_joins", d.Counter("db.symmetric_joins"), "count", 1);
  r->Add("db.index_joins", d.Counter("db.index_joins"), "count", 1);
  r->Add("dl2sql.model_deployments", d.Counter("dl2sql.model_deployments"),
         "count", 1);

  // accel: the morsel pool.
  const double busy_s = static_cast<double>(d.HistSum("pool.morsel_us")) * 1e-6;
  const int64_t morsels = d.HistCount("pool.morsel_us");
  r->Add("pool.morsels", d.Counter("pool.morsels"), "count", 1);
  r->Add("pool.busy_s", busy_s, "s", morsels);
  r->Add("pool.morsel_us.p99", us("pool.morsel_us", 0.99), "us", morsels);
  r->Add("pool.utilization",
         wall_seconds > 0 ? busy_s / (pool_threads * wall_seconds) : 0.0,
         "ratio", morsels,
         "busy_s / (" + std::to_string(pool_threads) + " threads x " +
             std::to_string(wall_seconds) + " s wall)");

  // server: admission queue, execution, rejections, the batch coalescer.
  const int64_t served = d.HistCount("server.exec_us");
  r->Add("server.queue_us.p50", us("server.queue_us", 0.5), "us",
         d.HistCount("server.queue_us"));
  r->Add("server.queue_us.p99", us("server.queue_us", 0.99), "us",
         d.HistCount("server.queue_us"));
  r->Add("server.exec_us.p50", us("server.exec_us", 0.5), "us", served);
  r->Add("server.exec_us.p99", us("server.exec_us", 0.99), "us", served);
  r->Add("server.rejected",
         d.Counter("server.rejected_queue_full") +
             d.Counter("server.rejected_timeout"),
         "count", 1);
  r->Add("server.coalesce.merged_batches",
         d.Counter("server.coalesce.merged_batches"), "count", 1);
  r->AddRatio("server.coalesce.rows_per_call",
              static_cast<double>(d.Counter("server.coalesce.rows")),
              static_cast<double>(d.Counter("server.coalesce.flush_cap") +
                                  d.Counter("server.coalesce.flush_window")),
              "coalesced_rows", "flushed_groups");
  r->Add("server.coalesce.wait_us.p99", us("server.coalesce.wait_us", 0.99),
         "us", d.HistCount("server.coalesce.wait_us"));
  r->Add("server.coalesce.bypass", d.Counter("server.coalesce.bypass"),
         "count", 1);
}

void AddIdleEngineLayers(Report* r) {
  for (const char* s : kStrategyKeys) {
    const std::string p = std::string("engines.") + s;
    for (const char* m : {".mean_ms", ".p50_ms"}) r->Add(p + m, 0, "ms", 0);
    for (const char* m : {".loading_modeled_s", ".inference_modeled_s",
                          ".relational_modeled_s"}) {
      r->Add(p + m, 0, "s", 0);
    }
  }
  for (const char* s : {"dl2sql", "dl2sql_op"}) {
    const std::string p = std::string("dl2sql.") + s;
    for (const char* m : {".input_load_s", ".sql_infer_s", ".clause.scan_s",
                          ".clause.filter_s", ".clause.project_s",
                          ".clause.join_s", ".clause.groupby_s",
                          ".clause.sort_s"}) {
      r->Add(p + m, 0, "s", 0);
    }
  }
}

void AddIdleServingLayers(Report* r) {
  r->Add("nn.predict_calls", 0, "count", 0);
  r->Add("nn.predict_s", 0, "s", 0);
  r->Add("tensor.decode_s", 0, "s", 0);
  r->Add("client.lateness_ms.p99", 0, "ms", 0);
  r->Add("client.backlog_max", 0, "count", 0);
  r->Add("write.p50_ms", 0, "ms", 0);
}

// ------------------------------------------------------------------ misc

std::vector<std::string> CanonicalRows(const dl2sql::db::Table& t) {
  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      const dl2sql::db::Value v = t.column(c).GetValue(r);
      if (v.type() == dl2sql::db::DataType::kFloat64) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.float_value());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string SqlQuote(const std::string& bytes) {
  std::string out = "'";
  for (char c : bytes) {
    if (c == '\'') out += '\'';
    out += c;
  }
  out += "'";
  return out;
}

dl2sql::Result<std::vector<double>> SortedHumidity(dl2sql::db::Database* db) {
  DL2SQL_ASSIGN_OR_RETURN(dl2sql::db::Table t,
                          db->Execute("SELECT humidity FROM fabric"));
  std::vector<double> out;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    DL2SQL_ASSIGN_OR_RETURN(double v, t.column(0).GetValue(r).AsDouble());
    out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<double, double> RankWindow(const std::vector<double>& sorted,
                                     size_t first, size_t count) {
  const size_t end = first + count;
  const double lo = first == 0 ? 0.0 : (sorted[first - 1] + sorted[first]) / 2;
  const double hi =
      end >= sorted.size() ? 100.0 : (sorted[end - 1] + sorted[end]) / 2;
  return {lo, hi};
}

std::string CollabQuery(int type, double lo, double hi,
                        const std::string& label) {
  char window[320];
  std::snprintf(window, sizeof(window),
                "F.humidity > %.9f and F.humidity < %.9f and F.temperature > "
                "0.0 and F.printdate > '2021-01-01' and F.printdate < "
                "'2021-12-31' and V.date > '2021-01-01' and V.date < "
                "'2021-12-31'",
                lo, hi);
  const std::string join =
      " FROM fabric F, video V WHERE F.transID = V.transID and ";
  switch (type) {
    case 1:
      return "SELECT sum(meter)" + join + window +
             " and nUDF_classify(V.keyframe) = '" + label + "'";
    case 2:
      return "SELECT patternID, count(nUDF_detect(V.keyframe) = TRUE) / "
             "sum(meter)" +
             join + window + " GROUP BY patternID";
    case 3:
      return "SELECT patternID, count(*)" + join + window +
             " and nUDF_detect(V.keyframe) = FALSE GROUP BY patternID";
    default:
      return "SELECT patternID" + join + window +
             " and F.patternID != nUDF_recog(V.keyframe)";
  }
}

}  // namespace perfbench
