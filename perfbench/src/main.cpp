// perfbench: runs one named workload of the repository benchmark for one
// seed and prints its metrics as the last line of standard output.
//
//   perfbench --workload lookup-ref --seed 3 --seconds 10 --trace 0
//             [--out DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the run's spans under --out); perfbench/run.py checks them
// against BENCHMARK.json.  The exit code is nonzero on any oracle
// divergence, audit failure, epoch leak or invalid run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{lookup-ref|mixed-cache|ycsb-churn|join-groupby-ref} "
               "--seed N --seconds S --trace {0|1} [--out DIR]\n",
               why);
  return 2;
}

void PrintJson(const Outcome& out, const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const Metric& m : metrics.items()) {
    char value[32] = "null";  // JSON has no inf or nan
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                m.name.c_str(), value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const StealMeter steal;
  Outcome out;
  if (args.workload == "lookup-ref") {
    out = RunLookupRef(args);
  } else if (args.workload == "mixed-cache") {
    out = RunMixedCache(args);
  } else if (args.workload == "ycsb-churn") {
    out = RunYcsbChurn(args);
  } else if (args.workload == "join-groupby-ref") {
    out = RunJoinGroupByRef(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (out.attempted == 0) out.Fail("no query was attempted");
  out.layer.Set("bench.steal_frac", steal.Frac(), "frac");
  std::fprintf(stderr, "host stole %.1f%% of this run's CPU time\n",
               steal.Frac() * 100);

  if (!args.trace && !out.e2e.Has("peak_rss_mb")) {
    out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  const MetricSet& metrics = args.trace ? out.layer : out.e2e;
  for (const Metric& m : metrics.items()) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintJson(out, metrics);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
