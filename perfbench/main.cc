/// \file main.cc
/// \brief perfbench: the repository benchmark. One process runs one workload
/// (collab-adhoc, serve-dashboard or serve-ingest) through the program's
/// public entry points, checks every result, and prints every metric by name
/// and unit, then one JSON line with all of them. perfbench/run.py builds this
/// binary and selects the metrics BENCHMARK.json names.
///
/// Usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///                  [--smoke] [--out-dir DIR] [--git-sha SHA]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload collab-adhoc|serve-dashboard|"
               "serve-ingest [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR] [--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, opts.smoke ? 1 : 0);
  std::printf("nproc=%u build_type=%s git_sha=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              git_sha.c_str());

  perfbench::Tracer tracer(opts.trace);
  perfbench::Report report;
  perfbench::Outcome outcome;
  if (opts.workload == "collab-adhoc") {
    outcome = perfbench::RunCollabAdhoc(opts, &tracer, &report);
  } else if (opts.workload == "serve-dashboard") {
    outcome = perfbench::RunServe(opts, /*ingest=*/false, &tracer, &report);
  } else if (opts.workload == "serve-ingest") {
    outcome = perfbench::RunServe(opts, /*ingest=*/true, &tracer, &report);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MiB", 1);
  report.Add("trace.spans", static_cast<double>(tracer.span_count()), "count",
             1, "traced runs only");
  if (opts.trace) {
    const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }

  report.PrintHuman();
  std::printf("error_ratio %.6g (failed %lld / attempted %lld); correctness "
              "gate %s\n",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) / outcome.attempted
                  : 0.0,
              static_cast<long long>(outcome.failed),
              static_cast<long long>(outcome.attempted),
              outcome.correct ? "passed" : "FAILED");
  std::printf("%s\n", report.ToJson(outcome.correct, outcome.attempted,
                                    outcome.failed)
                          .c_str());
  return outcome.correct ? 0 : 1;
}
