/// IUAD benchmark driver binary (see perfbench/README.md).
///
///   iuad_perfbench --workload fit|serve_mixed --seed N --seconds S
///                  --trace 0|1 --out-dir DIR
///
/// Generates the workload's inputs from the seed, measures for about S
/// seconds, checks the outputs against the correctness oracle, and prints
/// one JSON line last on stdout: {"correct", "attempted", "failed",
/// "metrics"} with every end-to-end metric (--trace 0) or every per-layer
/// metric (--trace 1). The traced run also writes its spans as Chrome
/// trace-event JSON to DIR/<workload>-seed<N>.trace.json. Progress and
/// diagnostics go to stderr.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common.h"
#include "measure.h"

using namespace iuad::perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: iuad_perfbench --workload "
               "fit|serve_mixed --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n",
               why);
  return 2;
}

/// JSON number with all its digits; a non-finite latency (a refused
/// request) prints as the largest double, which misses every limit.
std::string Number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " +
          std::to_string(out.correct ? out.failed : out.attempted);
  json += ", \"metrics\": {";
  if (out.correct) {
    bool first = true;
    for (const MetricSpec& spec : trace ? kPerLayerMetrics : kEndToEndMetrics) {
      auto it = out.metrics.find(spec.name);
      const double value = it != out.metrics.end() ? it->second : 0.0;
      json += first ? "" : ", ";
      json += "\"" + std::string(spec.name) + "\": {\"value\": " +
              Number(value) + ", \"unit\": \"" + spec.unit + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "fit") run = RunFit;
  if (args.workload == "serve_mixed") run = RunServeMixed;
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --out-dir are required");
  }

  args.work_dir = args.out_dir + "/work-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage(("cannot create " + args.work_dir).c_str());

  std::fprintf(stderr, "perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  Outcome out = run(args);
  out.metrics["peak_rss_mb"] = PeakRssMb();
  std::filesystem::remove_all(args.work_dir, ec);

  if (args.trace && !out.trace_json.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    std::ofstream(path) << out.trace_json;
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
  }
  const auto samples = out.metrics.find("bench.latency_samples");
  if (samples != out.metrics.end() &&
      SamplesBeyond(static_cast<size_t>(samples->second), 99) <
          kMinSamplesBeyond) {
    std::fprintf(stderr,
                 "perfbench: warning: %.0f latency samples leave fewer than "
                 "%zu beyond p99; run longer\n",
                 samples->second, kMinSamplesBeyond);
  }
  for (const auto& [name, value] : out.metrics) {
    std::fprintf(stderr, "perfbench:   %-36s %.6g\n", name.c_str(), value);
  }
  PrintResult(out, args.trace);
  return out.correct ? 0 : 1;
}
