// perfbench: runs one benchmark workload from a seed and prints its
// metrics. Normally started through perfbench/run.py, which builds this
// program first; see perfbench/README.md.
//
//   perfbench --workload eval-batch|serve-zipf|serve-swap --seed N
//             --seconds S --trace 0|1 [--data-dir DIR] [--size paper|tiny]
//             [--prepare 1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1. The
// exit code is 0 only when every checked ranking matched its oracle and no
// request failed. --size tiny is the sanitizer smoke configuration: it
// checks outputs and reports no timings. --prepare 1 only writes the
// workload's generated inputs for the seed (run.py calls it first).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, in output order. A layer a workload
// does not exercise reports 0 (e.g. the serving layer on eval-batch).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"qps", "queries/s"},    {"p50_ms", "ms"},
    {"p99_ms", "ms"},      {"peak_rss_mb", "MiB"},  {"swap_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"text.analyze_us", "us"},
    {"entity.link_us", "us"},
    {"entity.empty_frac", "fraction"},
    {"sqe.motif_us", "us"},
    {"sqe.expansion_nodes", "count"},
    {"sqe.build_us", "us"},
    {"sqe.atoms", "count"},
    {"sqe.phrase_atoms", "count"},
    {"retrieval.resolve_us", "us"},
    {"retrieval.score_us", "us"},
    {"retrieval.postings", "count"},
    {"retrieval.wand_frac", "fraction"},
    {"retrieval.wand_skip_frac", "fraction"},
    {"index.postings_mb", "MiB"},
    {"cache.result_hit_frac", "fraction"},
    {"cache.graph_hit_frac", "fraction"},
    {"cache.evictions", "count"},
    {"pool.busy_frac", "fraction"},
    {"serving.queue_ms_p50", "ms"},
    {"serving.queue_ms_p99", "ms"},
    {"serving.service_ms_p50", "ms"},
    {"serving.service_ms_p99", "ms"},
    {"serving.peak_queue_depth", "count"},
    {"serving.rejected", "count"},
    {"serving.expired", "count"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.validate_ms", "ms"},
    {"snapshot.publish_ms", "ms"},
    {"snapshot.retire_ms", "ms"},
    {"snapshot.live_epochs_max", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.sent", "count"},
    {"gen.late_frac", "fraction"},
    {"host.steal_frac", "fraction"},
    {"trace.samples", "count"},
    {"trace.coverage", "fraction"},
    {"trace.unattributed_frac", "fraction"},
    {"trace.qps", "queries/s"},
    {"trace.untraced_qps", "queries/s"},
    {"trace.p50_ms", "ms"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "eval-batch|serve-zipf|serve-swap --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--size paper|tiny] [--prepare 1]\n",
               message);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--prepare") {
      if (value != "0" && value != "1") Usage("--prepare takes 0 or 1");
      options.prepare = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--size") {
      if (value != "paper" && value != "tiny") Usage("--size: paper or tiny");
      options.size = value == "paper" ? Size::kPaper : Size::kTiny;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

// Emits `specs` in order, taking each value from `measured` (0 when the
// workload did not measure it). False when the workload reported a name the
// table does not list, or a unit that disagrees with it.
bool MetricsJson(const std::vector<Metric>& measured,
                 const MetricSpec* specs, size_t count, std::string* out) {
  for (const Metric& m : measured) {
    bool known = false;
    for (size_t i = 0; i < count; ++i) {
      known |= m.name == specs[i].name && m.unit == specs[i].unit;
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return false;
    }
  }
  *out = "{";
  for (size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const Metric& m : measured) {
      if (m.name == specs[i].name) value = m.value;
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    *out += buf;
  }
  *out += "}";
  return true;
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::printf("host: %s\n", HostFingerprintJson().c_str());
  if (options.size == Size::kPaper && !IsTimingBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a non-Release "
                 "or sanitized build\n");
    return 3;
  }

  Report report;
  bool ok = false;
  if (options.prepare) {
    // eval-batch builds its collection in-process as part of its set-up.
    ok = options.workload == "eval-batch" ||
         PrepareServeInputs(options, &report);
    for (const std::string& note : report.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    return ok ? 0 : 1;
  }
  if (options.workload == "eval-batch") {
    ok = RunEvalBatch(options, &report);
  } else if (options.workload == "serve-zipf") {
    ok = RunServe(options, /*with_swaps=*/false, &report);
  } else if (options.workload == "serve-swap") {
    ok = RunServe(options, /*with_swaps=*/true, &report);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s did not complete\n",
                 options.workload.c_str());
    return 1;
  }
  const bool correct = report.mismatched == 0 && report.failed == 0;
  std::printf("failed_frac: %.6g (%llu of %llu; %llu ranking mismatches)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.mismatched));
  if (options.size == Size::kTiny) {
    std::printf("smoke %s: %s\n", options.workload.c_str(),
                correct ? "outputs correct" : "OUTPUT MISMATCH");
    return correct ? 0 : 1;
  }
  std::string metrics;
  const bool listed =
      options.trace
          ? MetricsJson(report.per_layer, kPerLayer, std::size(kPerLayer),
                        &metrics)
          : MetricsJson(report.end_to_end, kEndToEnd, std::size(kEndToEnd),
                        &metrics);
  if (!listed) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
