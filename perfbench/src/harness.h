// Shared machinery of the repository benchmark: run arguments, the metric
// sets a run reports, the span tracer of traced runs, the closed-loop
// driver, and the environment probes (LLC size, peak RSS).
//
// Everything here lives on the benchmark side of the program's public
// API: spans wrap calls into a layer's public functions (Submit, Wait,
// RunPlan, Executor::Run, builds, audits), never code inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "server/query_scheduler.h"

namespace perfbench {

/// Queries the closed-loop workloads keep outstanding from the driver.
inline constexpr uint32_t kClientWindow = 8;
/// Scheduler team of every serving workload: three pool threads plus the
/// driver thread, which pumps tasks while it blocks in Wait().
inline constexpr uint32_t kWorkers = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in the order they were first set; setting a name again
/// overwrites its value.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one run reports.  `correct` is false on any oracle divergence,
/// audit failure, epoch leak or invalid run; main() then exits nonzero.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet e2e;
  MetricSet layer;

  /// Record a failed check (printed to stderr at once).
  void Fail(const std::string& why);
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder for the driver thread.  A span has a name, a
/// query id shared by every span of one query, start/end in nanoseconds
/// since the tracer started, and the index of its parent span (-1 for a
/// root).  Spans are written out once, after the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t query;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  static constexpr uint64_t kNoQuery = ~0ull;

  Tracer();

  int64_t Begin(const char* name, uint64_t query, int64_t parent);
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  /// Per span name: count, total and self time (duration minus the part
  /// its children cover), printed to stderr and written with the spans.
  void Write(const std::string& path) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; free when `tracer` is null (tracing off).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name,
            uint64_t query = Tracer::kNoQuery, int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, query, parent) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Statistics and environment
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// Last-level cache size from sysfs (largest cache level of cpu0).
uint64_t LlcBytes();
double PeakRssMb();

/// Share of CPU time the hypervisor stole between construction and
/// Frac(), from /proc/stat: how much of a run the host took away.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  double Frac() const;

 private:
  struct Ticks {
    uint64_t steal = 0;
    uint64_t total = 0;
  };
  static Ticks Read();
  Ticks start_;
};

/// Time `build` `reps` times (each call replaces the previous structures)
/// and return the median seconds: the run's setup_s.
double MedianSetupSeconds(int reps, const std::function<void()>& build,
                          Tracer* tracer, const char* span_name);

/// Fails `out` unless `structure_bytes` is at least twice the LLC, so a
/// ref workload cannot drift back into the in-cache regime unnoticed.
void RequireAboveLlc(const char* structure, uint64_t structure_bytes,
                     Outcome* out);

/// ChainedHashTable footprint: bucket array plus used overflow nodes.
uint64_t HashTableBytes(const amac::ChainedHashTable& table);

// ---------------------------------------------------------------------------
// Closed-loop driver
// ---------------------------------------------------------------------------

/// One query of a closed-loop workload: the plan to submit, how to
/// submit it, and how to check the served result against its oracle.
struct Request {
  amac::Plan plan;
  amac::QueryOptions options;
  int kind = 0;  ///< workload-defined, copied into Completed
  uint64_t inputs = 0;
  /// True when the served result equals the solo sequential oracle.
  std::function<bool(const amac::QueryStats&)> verify;
};

/// One finished query; ClosedLoopReport::completed keeps them in
/// submission order, because the loop always waits for the oldest.
struct Completed {
  int kind = 0;
  amac::QueryStats stats;
};

/// A closed loop's result.  Checks (submitted, divergent, not_served)
/// cover every query; the statistics cover the measured window only.
struct ClosedLoopReport {
  uint64_t warmup = 0;  ///< completed[0, warmup) ran before the clock
  uint64_t submitted = 0;
  uint64_t divergent = 0;
  uint64_t not_served = 0;  ///< rejected or shed
  uint64_t served = 0;      ///< measured queries served
  uint64_t inputs = 0;      ///< inputs of measured served queries
  double window_seconds = 0;  ///< first measured submit to last completion
  double wait_seconds = 0;    ///< driver time inside measured Wait() calls
  std::vector<double> latencies;  ///< submit-to-result, measured served
  std::vector<Completed> completed;
  uint64_t rejected = 0;  ///< by admission, in the measured window
  uint64_t shed = 0;      ///< ditto
  uint64_t pending_max = 0;  ///< traced runs poll the admission queue
};

/// Keep kClientWindow queries outstanding on `sched`: wait for the
/// oldest, verify it, submit the next.  Queries [0, warmup) run first and
/// are drained before the clock starts, so one-off costs (the governor's
/// calibration of each query shape, first-touch allocation) stay out of
/// the measured window; they are checked like the rest.  The measured
/// window stops submitting after `seconds` and drains what is
/// outstanding.
ClosedLoopReport RunClosedLoop(
    amac::QueryScheduler& sched, uint64_t warmup, double seconds,
    const std::function<Request(uint64_t index)>& next, Tracer* tracer);

/// The checks of every query of a closed loop (failing `out` on any
/// divergent, rejected or shed one), and the end-to-end metrics of its
/// measured window plus the driver's own share of it.
void ReportClosedLoop(const ClosedLoopReport& r, Outcome* out);

/// Per-layer server/core/adaptive metrics of a closed-loop window.
void ReportServingLayers(const ClosedLoopReport& r, Outcome* out);

/// A traced closed-loop run: checks and counts both halves, reports the
/// traced half's per-layer metrics and the throughput tracing cost.
void ReportTracedHalves(const ClosedLoopReport& plain,
                        const ClosedLoopReport& traced, Outcome* out);

/// server.submit_us (p50 Submit span) and trace.spans of a traced run.
void ReportTrace(const Tracer& tracer, Outcome* out);

/// Operator cycles per input of `plan` run alone on a 1-thread executor
/// under `policy` (the traced run's solo measurements).  The result is
/// checked against `oracle`.
double SoloCyclesPerInput(const amac::Plan& plan, amac::ExecPolicy policy,
                          const amac::RunStats& oracle, Tracer* tracer,
                          const char* span_name, Outcome* out);

/// The schedule-independent result every concurrent run must reproduce:
/// `plan` run once on a solo sequential executor.
amac::RunStats SoloOracle(const amac::Plan& plan);

/// Run `fn(i)` for every i in [0, n) on kWorkers threads (inputs and
/// oracles, before the measured window).
void ForEachIndex(uint64_t n, const std::function<void(uint64_t)>& fn);

// Workload entry points (one file each).
Outcome RunLookupRef(const Args& args);
Outcome RunMixedCache(const Args& args);
Outcome RunYcsbChurn(const Args& args);
Outcome RunJoinGroupByRef(const Args& args);

}  // namespace perfbench
