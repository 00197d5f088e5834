/// \file serve.cc
/// \brief serve-dashboard and serve-ingest: served traffic on four Sessions of
/// one QueryService, driven as an open loop over a fixed ladder of arrival
/// rates. Each request is timed from the moment it was due to be sent.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <thread>

#include "common/timer.h"
#include "harness.h"
#include "nn/serialize.h"
#include "server/session.h"
#include "tensor/tensor_blob.h"
#include "workload/dataset.h"
#include "workload/testbed.h"

namespace perfbench {

using dl2sql::Device;
using dl2sql::DeviceProfile;
using dl2sql::Result;
using dl2sql::Rng;
using dl2sql::Status;
using dl2sql::Stopwatch;
using dl2sql::Tensor;
namespace db = dl2sql::db;
namespace server = dl2sql::server;

namespace {

constexpr int kSessions = 4;
/// The database pool has one thread, so each statement runs its morsels
/// inline on its session thread and the four sessions use the four cores.
/// With a multi-thread pool, concurrent statements abort the process now and
/// then (about one 40 s run in fourteen): in ThreadPool::ParallelForMorsel
/// the last worker decrements `remaining` before it locks the caller's
/// `done_mu`, so the caller can return and free that mutex first.
constexpr int kPoolThreads = 1;
/// The repo's slow-query threshold (IntrospectionOptions::slow_query_ms).
constexpr double kLatencyLimitMs = 250.0;
/// Arrival-rate ladder (statements/s) and the reference rung whose latency
/// is reported. Rungs run in ascending order; the ones above the reference
/// run only while the previous rung met the limit, so headroom above today's
/// capacity costs nothing until a change reaches it. The reference rate is
/// low enough (~1/7 of serve-dashboard's and ~1/4 of serve-ingest's capacity
/// on a 4-core box) that a read seldom waits for another: at twice the rate
/// the heavy reads ran into the next arrival about half of the time, and the
/// rung's mean and p95 swung by 20-30% with small changes in service time.
constexpr double kLadder[] = {10, 20, 30, 40, 50, 60, 70, 80, 100, 120};
constexpr int kReferenceRung = 0;
/// Share of --seconds the reference rung lasts, so it leaves at least ten
/// samples above its p95; the other rungs share the rest equally.
constexpr double kReferenceShare = 0.65;
/// A rung's backlog "grew" when more than this many requests still waited
/// for a session at its last arrival.
constexpr int64_t kBacklogBound = 2 * kSessions;
/// Arrival jitter, as a share of the 1/rate slot.
constexpr double kJitter = 0.1;

double RungSeconds(size_t k, double seconds) {
  return seconds * (static_cast<int>(k) == kReferenceRung
                        ? kReferenceShare
                        : (1 - kReferenceShare) / (std::size(kLadder) - 1));
}

/// A model served as a native, thread-safe nUDF with a batch body, the way
/// examples/demo_model.h deploys one: one exclusive model instance behind a
/// mutex on its own one-thread device.
struct ServedModel {
  enum class Output { kBool, kLabel, kClassId };
  dl2sql::nn::Model model;
  std::shared_ptr<Device> device;
  Output output = Output::kBool;
  Tracer* tracer = nullptr;
  std::mutex mu;

  Result<std::vector<db::Value>> PredictBatch(
      const std::vector<std::vector<db::Value>>& rows) {
    std::vector<Tensor> inputs;
    inputs.reserve(rows.size());
    for (const auto& row : rows) {
      if (row.size() != 1 || (row[0].type() != db::DataType::kBlob &&
                              row[0].type() != db::DataType::kString)) {
        return Status::InvalidArgument("nUDF expects one keyframe blob");
      }
      Tracer::Scope span(tracer, "tensor.decode");
      DL2SQL_ASSIGN_OR_RETURN(Tensor t,
                              dl2sql::DecodeTensorBlob(row[0].string_value()));
      inputs.push_back(std::move(t));
    }
    std::vector<db::Value> out;
    out.reserve(rows.size());
    std::lock_guard<std::mutex> lock(mu);
    for (const Tensor& input : inputs) {
      Tracer::Scope span(tracer, "nn.predict");
      DL2SQL_ASSIGN_OR_RETURN(int64_t cls,
                              model.Predict(input, device.get()));
      switch (output) {
        case Output::kBool:
          out.push_back(db::Value::Bool(cls == 1));
          break;
        case Output::kLabel:
          out.push_back(
              db::Value::String(model.classes()[static_cast<size_t>(cls)]));
          break;
        case Output::kClassId:
          out.push_back(db::Value::Int(cls));
          break;
      }
    }
    return out;
  }
};

/// One served database: pool device, IoT tables (whose UDF registry owns the
/// deployed models) and the QueryService in front. Members are destroyed in
/// reverse order, so the service goes before the database and the database
/// before the device.
struct Serving {
  std::unique_ptr<Device> device;
  std::unique_ptr<db::Database> db;
  std::unique_ptr<server::QueryService> service;
};

/// The served IoT tables. The base rows are the repo's standard dataset
/// (fixed seed); the run's seed drives the statements and inserted rows.
dl2sql::workload::DatasetOptions ServeDataset(bool smoke) {
  dl2sql::workload::DatasetOptions d;
  d.video_rows = smoke ? 600 : 10000;
  d.keyframe_size = 16;
  d.keyframe_channels = 3;
  return d;
}

Status Deploy(Serving* s, const dl2sql::workload::DatasetOptions& dataset,
              Tracer* tracer) {
  dl2sql::workload::TestbedOptions shape;
  shape.dataset = dataset;
  struct Spec {
    const char* name;
    int64_t classes;
    ServedModel::Output output;
    db::DataType type;
  };
  const Spec specs[] = {
      {"nUDF_detect", 2, ServedModel::Output::kBool, db::DataType::kBool},
      {"nUDF_classify", 10, ServedModel::Output::kLabel,
       db::DataType::kString},
      {"nUDF_recog", dataset.num_patterns, ServedModel::Output::kClassId,
       db::DataType::kInt64},
  };
  uint64_t seed = 8;  // the Testbed's model seeds (model_seed 7 + 1..3)
  for (const Spec& spec : specs) {
    auto m = std::make_shared<ServedModel>();
    m->model =
        dl2sql::workload::BuildRepositoryModel(shape, spec.classes, seed++);
    DeviceProfile profile = Device::ServerCpuProfile();
    profile.num_threads = 1;
    m->device = std::make_shared<Device>(profile);
    m->output = spec.output;
    m->tracer = tracer;
    db::NUdfInfo info;
    info.model_name = m->model.name();
    info.num_parameters = m->model.NumParameters();
    DL2SQL_ASSIGN_OR_RETURN(info.fingerprint,
                            dl2sql::nn::ModelFingerprint(m->model));
    s->db->udfs().RegisterNeural(
        spec.name, spec.type,
        [m](const std::vector<db::Value>& args) -> Result<db::Value> {
          DL2SQL_ASSIGN_OR_RETURN(std::vector<db::Value> v,
                                  m->PredictBatch({args}));
          return v[0];
        },
        info,
        [m](const std::vector<std::vector<db::Value>>& rows) {
          return m->PredictBatch(rows);
        },
        /*arity=*/1, /*parallel_safe=*/true);
  }
  return Status::OK();
}

/// One scheduled statement of the open loop.
struct Request {
  int64_t due_us = 0;  ///< relative to the rung start
  std::string sql;
  bool write = false;
  int64_t fabric_rows = 0;  ///< rows a write appends to fabric / video
  int64_t video_rows = 0;
  int dashboard_index = -1;  ///< reference result to compare with, if any
  // Filled in by the session that ran it.
  double latency_ms = 0;
  bool ok = false;
};

struct RungResult {
  double rate = 0;
  Samples read_ms, write_ms, lateness_ms;
  /// Reads by third of the rung (by due time).
  Samples read_ms_by_third[3];
  int64_t attempted = 0, failed = 0;
  int64_t backlog_max = 0, backlog_end = 0;
  bool Passed() const {
    return failed == 0 && backlog_end <= kBacklogBound &&
           read_ms.Quantile(0.95) <= kLatencyLimitMs;
  }
  /// The read p95, raised to at least the limit when the rung failed on
  /// errors, and in proportion when its backlog passed the bound, so a rung
  /// over any of the three conditions reads as over the latency limit.
  double EffectiveP95() const {
    double p = read_ms.Quantile(0.95);
    if (failed > 0) p = std::max(p, kLatencyLimitMs);
    return std::max(p, kLatencyLimitMs * static_cast<double>(backlog_end) /
                           static_cast<double>(kBacklogBound));
  }
};

/// Statements per block of the dashboard stream, by Zipf rank: Zipf(s = 1)
/// proportions over the 8 statements, rounded to a block of 40.
constexpr int kDashboardBlock[] = {15, 7, 5, 4, 3, 2, 2, 2};
/// Reads per block of the ingest stream, by type 1..4, next to one fabric
/// and one video INSERT (10% writes). Types 1 and 3, which scan every video
/// row, get two thirds of the reads, so the read median sits inside their
/// latency mode instead of on the edge between two modes.
constexpr int kIngestReadBlock[] = {6, 3, 6, 3};
/// Fabric rows in a window (1% of the table).
constexpr int64_t kWindowRows = 10;

/// The classify model's labels, least frequent first, as it labels the
/// video table. Random-weight models are heavily skewed (the default
/// classifier gives one label to almost every row), so whether a Type 1
/// read's label is the frequent one decides whether its filter passes
/// almost all rows or almost none; the statement mix fixes that share.
Result<std::vector<std::string>> LabelsByFrequency(db::Database* db) {
  DL2SQL_ASSIGN_OR_RETURN(db::Table t,
                          db->Execute("SELECT nUDF_classify(keyframe) FROM video"));
  std::map<std::string, int64_t> freq;
  for (int k = 0; k < 10; ++k) freq["class_" + std::to_string(k)] = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    ++freq[t.column(0).GetValue(r).string_value()];
  }
  std::vector<std::pair<int64_t, std::string>> order;
  for (const auto& [label, n] : freq) order.emplace_back(n, label);
  std::sort(order.begin(), order.end());
  std::vector<std::string> labels;
  for (const auto& [n, label] : order) labels.push_back(label);
  return labels;
}

/// A seeded label from the less frequent half of `labels`.
std::string RareLabel(Rng* rng, const std::vector<std::string>& labels) {
  return labels[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(labels.size()) / 2 - 1))];
}

/// The eight dashboard statements: Types 1-4 over two fixed windows of
/// kWindowRows fabric rows, at the first and third quartile of humidity. A
/// dashboard's statements are fixed; the windows are not seeded because the
/// Type 2-4 reads of some windows cost twice as much as those of others,
/// which moved the whole mix with the seed. The Zipf rank is fixed by
/// position (type-major within window), so every seed has the same mix; the
/// hot window's Type 1 tests a seeded rare label, the other window's the most
/// frequent one.
std::vector<std::string> DashboardStatements(
    uint64_t seed, const std::vector<double>& humidity,
    const std::vector<std::string>& labels) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t w = 0; w < 2; ++w) {
    const auto [lo, hi] =
        RankWindow(humidity, (1 + 2 * w) * humidity.size() / 4, kWindowRows);
    const std::string label = w == 0 ? RareLabel(&rng, labels) : labels.back();
    for (int type = 1; type <= 4; ++type) {
      out.push_back(CollabQuery(type, lo, hi, label));
    }
  }
  return out;
}

/// Generates the seeded statement stream in blocks that hold the mix's exact
/// proportions, shuffled within each block, so the load a rung offers does
/// not drift with the draw. Ingest reads get a fresh window and label.
class StatementSource {
 public:
  StatementSource(uint64_t seed, bool ingest,
                  const dl2sql::workload::DatasetOptions& dataset,
                  const std::vector<std::string>& dashboard,
                  const std::vector<double>& humidity,
                  const std::vector<std::string>& labels)
      : ingest_(ingest),
        dataset_(dataset),
        dashboard_(dashboard),
        humidity_(humidity),
        labels_(labels),
        rng_(seed * 7919 + 17),
        next_trans_id_(static_cast<int64_t>(humidity.size()) + 1) {}

  Request Next() {
    if (block_.empty()) Refill();
    Request r = std::move(block_.back());
    block_.pop_back();
    return r;
  }

 private:
  void Refill() {
    if (!ingest_) {
      for (size_t k = 0; k < std::size(kDashboardBlock); ++k) {
        for (int i = 0; i < kDashboardBlock[k]; ++i) {
          Request r;
          r.dashboard_index = static_cast<int>(k);
          r.sql = dashboard_[k];
          block_.push_back(std::move(r));
        }
      }
    } else {
      block_.push_back(FabricInsert());
      block_.push_back(VideoInsert());
      for (int type = 1; type <= 4; ++type) {
        for (int i = 0; i < kIngestReadBlock[type - 1]; ++i) {
          const auto [lo, hi] = RankWindow(
              humidity_,
              static_cast<size_t>(rng_.UniformInt(
                  0, static_cast<int64_t>(humidity_.size()) - kWindowRows)),
              kWindowRows);
          // One Type 1 read per block tests the classifier's most frequent
          // label (its filter passes most rows); the rest test a seeded rare
          // label, so the share of heavy reads is the same in every block.
          Request r;
          r.sql = CollabQuery(type, lo, hi,
                              i == 0 ? labels_.back() : RareLabel(&rng_, labels_));
          block_.push_back(std::move(r));
        }
      }
    }
    rng_.Shuffle(&block_);
  }

  Request FabricInsert() {
    Request r;
    r.write = true;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "INSERT INTO fabric VALUES (%lld, %lld, %.3f, %.4f, %.3f, "
                  "'2021-%02d-%02d')",
                  static_cast<long long>(next_trans_id_++),
                  static_cast<long long>(rng_.UniformInt(0, 9)),
                  rng_.UniformReal(1.0, 100.0), rng_.UniformReal(0.0, 100.0),
                  rng_.UniformReal(0.0, 40.0),
                  static_cast<int>(rng_.UniformInt(1, 12)),
                  static_cast<int>(rng_.UniformInt(1, 28)));
    r.sql = buf;
    r.fabric_rows = 1;
    return r;
  }

  Request VideoInsert() {
    Request r;
    r.write = true;
    r.sql = "INSERT INTO video VALUES ";
    for (int i = 0; i < 2; ++i) {
      char head[96];
      std::snprintf(head, sizeof(head), "(%lld, '2021-%02d-%02d', ",
                    static_cast<long long>(rng_.UniformInt(
                        1, static_cast<int64_t>(humidity_.size()))),
                    static_cast<int>(rng_.UniformInt(1, 12)),
                    static_cast<int>(rng_.UniformInt(1, 28)));
      const Tensor kf = dl2sql::workload::MakeKeyframe(dataset_, &rng_);
      r.sql += std::string(i > 0 ? ", " : "") + head +
               SqlQuote(dl2sql::EncodeTensorBlob(kf)) + ")";
    }
    r.video_rows = 2;
    return r;
  }

  const bool ingest_;
  const dl2sql::workload::DatasetOptions dataset_;
  const std::vector<std::string>& dashboard_;
  const std::vector<double>& humidity_;
  const std::vector<std::string>& labels_;
  Rng rng_;
  int64_t next_trans_id_;
  std::vector<Request> block_;
};

/// Four session threads draining one FIFO; the generator (caller) pushes
/// requests at their due times.
class SessionPool {
 public:
  /// `reference` holds the dashboard statements' expected results (empty
  /// for ingest).
  SessionPool(server::QueryService* service, Tracer* tracer,
              std::vector<std::vector<std::string>> reference)
      : tracer_(tracer), reference_(std::move(reference)) {
    for (int i = 0; i < kSessions; ++i) {
      threads_.emplace_back(
          [this, session = service->CreateSession()] { Loop(session.get()); });
    }
  }
  ~SessionPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Runs one rung: pushes every request at `start + due`, then waits until
  /// all have completed.
  void RunRung(std::vector<Request>* requests, RungResult* out) {
    const auto start = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      start_ = start;
      pending_ = static_cast<int64_t>(requests->size());
    }
    for (Request& r : *requests) {
      const auto due = start + std::chrono::microseconds(r.due_us);
      std::this_thread::sleep_until(due);
      const double late_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - due)
              .count();
      out->lateness_ms.Add(late_ms);
      int64_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(&r);
        depth = static_cast<int64_t>(queue_.size());
      }
      cv_.notify_one();
      out->backlog_max = std::max(out->backlog_max, depth);
    }
    std::unique_lock<std::mutex> lock(mu_);
    out->backlog_end = static_cast<int64_t>(queue_.size());
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }

 private:
  void Loop(server::Session* session) {
    while (true) {
      Request* r = nullptr;
      std::chrono::steady_clock::time_point start;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        r = queue_.front();
        queue_.pop_front();
        start = start_;
      }
      bool ok = false;
      {
        Tracer::Scope span(tracer_, "server.session_execute");
        auto result = session->Execute(r->sql);
        ok = result.ok();
        if (!ok) {
          std::fprintf(stderr, "statement failed: %s\n",
                       result.status().ToString().c_str());
        } else if (r->dashboard_index >= 0 &&
                   CanonicalRows(*result) !=
                       reference_[static_cast<size_t>(r->dashboard_index)]) {
          std::fprintf(stderr, "dashboard statement %d returned a result "
                               "different from its reference\n",
                       r->dashboard_index);
          ok = false;
        }
      }
      const auto due = start + std::chrono::microseconds(r->due_us);
      r->latency_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - due)
                          .count();
      r->ok = ok;
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  Tracer* const tracer_;
  const std::vector<std::vector<std::string>> reference_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::deque<Request*> queue_;
  std::chrono::steady_clock::time_point start_;
  int64_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Builds one serving set-up: tables, models and the service in front.
Result<std::unique_ptr<Serving>> SetUp(bool smoke, Tracer* tracer) {
  auto s = std::make_unique<Serving>();
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.num_threads = kPoolThreads;
  s->device = std::make_unique<Device>(profile);
  s->db = std::make_unique<db::Database>();
  s->db->set_exec_options(
      {s->device.get(), dl2sql::ThreadPool::kDefaultMorselSize});
  const auto dataset = ServeDataset(smoke);
  DL2SQL_RETURN_NOT_OK(dl2sql::workload::PopulateDatabase(s->db.get(), dataset));
  DL2SQL_RETURN_NOT_OK(Deploy(s.get(), dataset, tracer));
  s->service = std::make_unique<server::QueryService>(s->db.get(),
                                                      server::ServiceOptions());
  return s;
}

/// Runs every dashboard statement once through a session (warming the plan
/// and nUDF caches) and records the single-session reference results.
Status WarmUp(Serving* s, const std::vector<std::string>& dashboard,
              std::vector<std::vector<std::string>>* reference) {
  auto session = s->service->CreateSession();
  reference->clear();
  for (const std::string& sql : dashboard) {
    DL2SQL_ASSIGN_OR_RETURN(db::Table t, session->Execute(sql));
    reference->push_back(CanonicalRows(t));
  }
  return Status::OK();
}

Result<int64_t> CountRows(server::QueryService* service,
                          const std::string& table) {
  auto session = service->CreateSession();
  DL2SQL_ASSIGN_OR_RETURN(db::Table t,
                          session->Execute("SELECT count(*) FROM " + table));
  if (t.num_rows() != 1) return Status::InternalError("count(*) shape");
  return t.column(0).GetValue(0).AsInt();
}

}  // namespace

Outcome RunServe(const RunOptions& opts, bool ingest, Tracer* tracer,
                 Report* report) {
  Outcome outcome;
  // Set-up three times (tables, models, service, warm-up); setup_s is the
  // median and the last one serves. The first also derives the statements.
  std::unique_ptr<Serving> serving;
  std::vector<double> humidity;
  std::vector<std::string> labels;
  std::vector<std::string> dashboard;
  std::vector<std::vector<std::string>> reference;
  Samples setup_s;
  for (int i = 0; i < 3; ++i) {
    serving.reset();
    Stopwatch watch;
    auto s = SetUp(opts.smoke, tracer);
    Status st = s.status();
    if (st.ok() && dashboard.empty()) {
      auto h = SortedHumidity((*s)->db.get());
      auto l = LabelsByFrequency((*s)->db.get());
      st = h.ok() ? l.status() : h.status();
      if (st.ok()) {
        humidity = std::move(h).ValueOrDie();
        labels = std::move(l).ValueOrDie();
        dashboard = DashboardStatements(opts.seed, humidity, labels);
      }
    }
    if (st.ok()) st = WarmUp(s->get(), dashboard, &reference);
    if (!st.ok()) {
      std::fprintf(stderr, "serving set-up failed: %s\n", st.ToString().c_str());
      outcome.correct = false;
      outcome.attempted = outcome.failed = 1;
      return outcome;
    }
    serving = std::move(s).ValueOrDie();
    setup_s.Add(watch.ElapsedSeconds());
  }

  // The seeded schedule of every rung: paced arrivals, one per 1/rate slot
  // with a seeded jitter of up to a tenth of the slot. Every rung offers
  // exactly its rate; random arrival bursts (Poisson, or jitter across the
  // whole slot) made the p95 and max_rate_qps of one run swing by 20-25%.
  StatementSource source(opts.seed, ingest, ServeDataset(opts.smoke),
                         dashboard, humidity, labels);
  Rng arrivals(opts.seed * 104729 + 3);
  const size_t rungs = std::size(kLadder);
  std::vector<std::vector<Request>> schedule(rungs);
  for (size_t k = 0; k < rungs; ++k) {
    const int64_t n =
        static_cast<int64_t>(RungSeconds(k, opts.seconds) * kLadder[k]);
    for (int64_t i = 0; i < n; ++i) {
      Request r = source.Next();
      r.due_us = static_cast<int64_t>(
          (static_cast<double>(i) + arrivals.UniformReal(0.0, kJitter)) /
          kLadder[k] * 1e6);
      schedule[k].push_back(std::move(r));
    }
  }

  std::printf("%s: %d sessions, pool %d threads, %lld video rows, ladder",
              ingest ? "serve-ingest" : "serve-dashboard", kSessions,
              kPoolThreads,
              static_cast<long long>(ServeDataset(opts.smoke).video_rows));
  for (size_t k = 0; k < rungs; ++k) {
    std::printf(" %g%s", kLadder[k],
                static_cast<int>(k) == kReferenceRung ? "(ref)" : "");
  }
  std::printf(" stmt/s\n");

  std::vector<RungResult> results(rungs);
  int64_t acked_fabric = 0, acked_video = 0;
  const int64_t trace_from = NowMicros();
  RegistryDelta delta;
  double measured_s = 0;
  size_t ran = 0;
  {
    SessionPool pool(serving->service.get(), tracer, reference);
    for (size_t k = 0; k < rungs; ++k) {
      // Above the reference, a rung runs only if the one below met the limit.
      if (static_cast<int>(k) > kReferenceRung && !results[k - 1].Passed()) {
        break;
      }
      RungResult& rr = results[k];
      rr.rate = kLadder[k];
      Stopwatch watch;
      pool.RunRung(&schedule[k], &rr);
      measured_s += watch.ElapsedSeconds();
      const double rung_us = RungSeconds(k, opts.seconds) * 1e6;
      for (const Request& r : schedule[k]) {
        ++rr.attempted;
        if (!r.ok) ++rr.failed;
        (r.write ? rr.write_ms : rr.read_ms).Add(r.latency_ms);
        if (!r.write) {
          const size_t third = std::min<size_t>(
              2, static_cast<size_t>(3.0 * static_cast<double>(r.due_us) / rung_us));
          rr.read_ms_by_third[third].Add(r.latency_ms);
        }
        if (r.write && r.ok) {
          acked_fabric += r.fabric_rows;
          acked_video += r.video_rows;
        }
      }
      outcome.attempted += rr.attempted;
      outcome.failed += rr.failed;
      std::printf("rung %5.1f/s: %4lld stmts, read p50 %7.1f p95 %7.1f ms, "
                  "backlog max %lld end %lld, failed %lld -> %s\n",
                  rr.rate, static_cast<long long>(rr.attempted),
                  rr.read_ms.Quantile(0.5), rr.read_ms.Quantile(0.95),
                  static_cast<long long>(rr.backlog_max),
                  static_cast<long long>(rr.backlog_end),
                  static_cast<long long>(rr.failed),
                  rr.Passed() ? "meets the limit" : "misses the limit");
      ran = k + 1;
    }
  }
  delta.Stop();

  if (!ingest) {
    std::printf("reference rung by dashboard statement (rank: n, p50, p95 ms):");
    for (size_t i = 0; i < dashboard.size(); ++i) {
      Samples s;
      for (const Request& r : schedule[kReferenceRung]) {
        if (r.dashboard_index == static_cast<int>(i)) s.Add(r.latency_ms);
      }
      std::printf(" %zu: %lld, %.1f, %.1f;", i + 1,
                  static_cast<long long>(s.count()), s.Quantile(0.5),
                  s.Quantile(0.95));
    }
    std::printf("\n");
  }

  // serve-ingest gate: every acknowledged INSERT is visible.
  if (ingest) {
    const auto sizes = dl2sql::workload::ComputeSizes(ServeDataset(opts.smoke));
    const std::pair<const char*, int64_t> expected[] = {
        {"fabric", sizes.fabric + acked_fabric},
        {"video", sizes.video + acked_video}};
    for (const auto& [table, want] : expected) {
      auto got = CountRows(serving->service.get(), table);
      ++outcome.attempted;
      if (!got.ok() || *got != want) {
        ++outcome.failed;
        std::fprintf(stderr, "%s holds %lld rows, expected %lld\n", table,
                     got.ok() ? static_cast<long long>(*got) : -1LL,
                     static_cast<long long>(want));
      }
    }
    std::printf("ingest: %lld fabric + %lld video rows acknowledged and "
                "visible\n",
                static_cast<long long>(acked_fabric),
                static_cast<long long>(acked_video));
  }
  outcome.correct = outcome.failed == 0;

  // max_rate_qps: the highest rung that meets the latency limit with no
  // failure and a bounded backlog, interpolated on the effective p95 toward
  // the next rung, which missed (so the figure moves smoothly with latency
  // instead of by whole rungs). With no passing rung it scales the lowest
  // rate down by how far its effective p95 overshoots.
  int best = -1;
  for (size_t k = 0; k < ran; ++k) {
    if (results[k].Passed()) best = static_cast<int>(k);
  }
  double max_rate = 0;
  if (best < 0) {
    max_rate = kLadder[0] * kLatencyLimitMs / results[0].EffectiveP95();
  } else {
    const RungResult& pass = results[static_cast<size_t>(best)];
    max_rate = pass.rate;
    if (static_cast<size_t>(best) + 1 < ran) {
      const RungResult& over = results[static_cast<size_t>(best) + 1];
      const double p_pass = pass.read_ms.Quantile(0.95);
      const double p_over = over.EffectiveP95();
      const double frac =
          p_over > p_pass ? (kLatencyLimitMs - p_pass) / (p_over - p_pass) : 1;
      max_rate += (over.rate - pass.rate) * std::clamp(frac, 0.0, 1.0);
    }
  }

  const RungResult& ref = results[kReferenceRung];
  Samples lateness, writes;
  int64_t backlog_max = 0;
  for (const RungResult& rr : results) {
    lateness.Append(rr.lateness_ms);
    writes.Append(rr.write_ms);
    backlog_max = std::max(backlog_max, rr.backlog_max);
  }
  const int64_t reads = ref.read_ms.count();
  const std::string at_ref =
      "reads at " + std::to_string(static_cast<int>(kLadder[kReferenceRung])) +
      " stmt/s, from scheduled send";
  report->Add("setup_s", setup_s.Quantile(0.5), "s", setup_s.count());
  // The mean and p95 are the median over the rung's three thirds, so one
  // transient stall (a page-fault storm, a descheduled session) moves one
  // third, not the figure.
  auto median_of_thirds = [&](auto stat) {
    Samples per_third;
    for (const Samples& s : ref.read_ms_by_third) per_third.Add(stat(s));
    return per_third.Quantile(0.5);
  };
  int64_t above_p95 = 0;
  for (const Samples& s : ref.read_ms_by_third) above_p95 += s.CountAbove(0.95);
  report->Add("p50_ms", ref.read_ms.Quantile(0.5), "ms", reads, at_ref);
  report->Add("mean_ms",
              median_of_thirds([](const Samples& s) { return s.Mean(); }),
              "ms", reads, "median over thirds of the rung of the mean of " + at_ref);
  report->Add("tail_ms",
              median_of_thirds([](const Samples& s) { return s.Quantile(0.95); }),
              "ms", reads,
              "median over thirds of the rung of the p95 of " + at_ref + ", " +
                  std::to_string(above_p95) + " samples above");
  report->Add("max_rate_qps", max_rate, "1/s", static_cast<int64_t>(ran),
              "p95 <= 250 ms, no failure, backlog <= " +
                  std::to_string(kBacklogBound));

  AddIdleEngineLayers(report);
  AddRegistryLayers(delta, measured_s, kPoolThreads, report);
  report->Add("write.p50_ms", writes.Quantile(0.5), "ms", writes.count(),
              "all rungs, from scheduled send");
  report->Add("client.lateness_ms.p99", lateness.Quantile(0.99), "ms",
              lateness.count());
  report->Add("client.backlog_max", static_cast<double>(backlog_max), "count",
              lateness.count());
  int64_t calls = 0;
  const double predict_s = tracer->TotalSeconds("nn.predict", &calls, trace_from);
  report->Add("nn.predict_calls", static_cast<double>(calls), "count", 1,
              "traced runs only");
  report->Add("nn.predict_s", predict_s, "s", calls, "traced runs only");
  int64_t decodes = 0;
  report->Add("tensor.decode_s",
              tracer->TotalSeconds("tensor.decode", &decodes, trace_from), "s",
              decodes, "traced runs only");
  if (reads < 200) {
    std::fprintf(stderr, "warning: %lld reads at the reference rate leave "
                         "fewer than ten samples above p95\n",
                 static_cast<long long>(reads));
  }
  return outcome;
}

}  // namespace perfbench
