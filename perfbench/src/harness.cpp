#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "common/cycle_timer.h"
#include "common/thread_pool.h"

namespace perfbench {

using namespace amac;

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return true;
  }
  return false;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 20);
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t query, int64_t parent) {
  const int64_t now = Now();
  spans_.push_back(Span{name, query, parent, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  // Children per parent, to subtract the time they cover from the
  // parent's duration (union of intervals: children may overlap).
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    if (p >= 0) children[static_cast<size_t>(p)].push_back(i);
  }
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> by_name;
  std::ofstream file(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                         std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    const int64_t dur = s.end_ns - s.start_ns;
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
    if (file) {
      file << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"query\":"
           << (s.query == kNoQuery ? -1 : static_cast<int64_t>(s.query))
           << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
           << ",\"end_ns\":" << s.end_ns
           << ",\"self_ns\":" << (dur - covered) << "}\n";
    }
  }
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans_.size(),
               path.c_str());
  std::fprintf(stderr, "  %-28s %10s %12s %12s\n", "span", "count",
               "total_s", "self_s");
  for (const auto& [name, t] : by_name) {
    std::fprintf(stderr, "  %-28s %10llu %12.4f %12.4f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s,
                 t.self_s);
  }
}

// ---------------------------------------------------------------------------
// Statistics and environment
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t LlcBytes() {
  uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(index) + "/size");
    std::string text;
    if (!(f >> text) || text.empty()) continue;
    uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char suffix = text.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    if (suffix == 'G') value <<= 30;
    best = std::max(best, value);
  }
  return best;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

StealMeter::Ticks StealMeter::Read() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  Ticks t;
  f >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealMeter::Frac() const {
  const Ticks now = Read();
  const uint64_t total = now.total - start_.total;
  return total ? static_cast<double>(now.steal - start_.steal) /
                     static_cast<double>(total)
               : 0.0;
}

double MedianSetupSeconds(int reps, const std::function<void()>& build,
                          Tracer* tracer, const char* span_name) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    SpanScope span(tracer, span_name);
    WallTimer timer;
    build();
    times.push_back(timer.ElapsedSeconds());
  }
  return Median(times);
}

void RequireAboveLlc(const char* structure, uint64_t structure_bytes,
                     Outcome* out) {
  const uint64_t llc = LlcBytes();
  std::fprintf(stderr, "llc: %llu bytes; %s: %llu bytes (%.2fx LLC)\n",
               static_cast<unsigned long long>(llc), structure,
               static_cast<unsigned long long>(structure_bytes),
               llc ? static_cast<double>(structure_bytes) / llc : 0.0);
  if (llc == 0) {
    out->Fail("no LLC size under /sys/devices/system/cpu/cpu0/cache");
  } else if (structure_bytes < 2 * llc) {
    out->Fail(std::string(structure) +
              " is smaller than twice the LLC: the ref workload would run "
              "in cache");
  }
}

uint64_t HashTableBytes(const ChainedHashTable& table) {
  return (table.num_buckets() + table.overflow_nodes_used()) *
         sizeof(BucketNode);
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

ClosedLoopReport RunClosedLoop(QueryScheduler& sched, uint64_t warmup,
                               double seconds,
                               const std::function<Request(uint64_t)>& next,
                               Tracer* tracer) {
  struct Outstanding {
    QueryTicket ticket;
    Request request;
    int64_t span = -1;
    uint64_t id = 0;
  };
  ClosedLoopReport report;
  report.warmup = warmup;
  std::deque<Outstanding> window;
  auto submit = [&] {
    Outstanding o;
    o.id = report.submitted++;
    o.request = next(o.id);
    o.span = tracer ? tracer->Begin("query", o.id, -1) : -1;
    {
      SpanScope span(tracer, "Submit", o.id, o.span);
      o.ticket = Submit(sched, o.request.plan, o.request.options);
    }
    window.push_back(std::move(o));
  };
  uint64_t polls = 0;
  // Wait for the oldest query and check it; a measured one also feeds the
  // window's statistics.
  auto finish = [&](bool measured) {
    Outstanding o = std::move(window.front());
    window.pop_front();
    QueryStats stats;
    {
      SpanScope span(tracer, "Wait", o.id, o.span);
      WallTimer waited;
      stats = sched.Wait(o.ticket);
      if (measured) report.wait_seconds += waited.ElapsedSeconds();
    }
    if (stats.outcome != QueryOutcome::kServed) {
      ++report.not_served;
    } else {
      if (measured) {
        ++report.served;
        report.inputs += o.request.inputs;
        report.latencies.push_back(stats.latency_seconds);
      }
      SpanScope span(tracer, "verify", o.id, o.span);
      if (!o.request.verify(stats)) ++report.divergent;
    }
    if (tracer) {
      tracer->End(o.span);
      if (measured && (++polls & 15) == 0) {
        report.pending_max =
            std::max(report.pending_max, sched.serving_stats().pending);
      }
    }
    report.completed.push_back(Completed{o.request.kind, stats});
  };

  while (report.submitted < warmup) {
    if (window.size() == kClientWindow) finish(false);
    submit();
  }
  while (!window.empty()) finish(false);

  const ServingStats before = sched.serving_stats();
  WallTimer wall;
  while (window.size() < kClientWindow) submit();
  while (!window.empty()) {
    finish(true);
    if (wall.ElapsedSeconds() < seconds) submit();
  }
  report.window_seconds = wall.ElapsedSeconds();
  const ServingStats after = sched.serving_stats();
  report.rejected = after.rejected - before.rejected;
  report.shed = after.shed - before.shed;
  return report;
}

void ReportClosedLoop(const ClosedLoopReport& r, Outcome* out) {
  // Checks cover every query, warm-up included.
  out->attempted += r.submitted;
  out->failed += r.not_served + r.divergent;
  if (r.divergent > 0) {
    out->Fail(std::to_string(r.divergent) +
              " served queries diverged from the solo sequential oracle");
  }
  if (r.not_served > 0) {
    out->Fail(std::to_string(r.not_served) +
              " queries were rejected or shed by a closed loop");
  }
  const double window = std::max(r.window_seconds, 1e-9);
  out->e2e.Set("inputs_per_s", static_cast<double>(r.inputs) / window, "1/s");
  out->e2e.Set("latency_p50_ms", Percentile(r.latencies, 0.50) * 1e3, "ms");
  out->e2e.Set("latency_p90_ms", Percentile(r.latencies, 0.90) * 1e3, "ms");
  out->layer.Set("server.latency_p99_ms", Percentile(r.latencies, 0.99) * 1e3,
                 "ms");
  out->layer.Set("driver.busy_frac", 1.0 - r.wait_seconds / window, "frac");
  out->layer.Set("bench.latency_samples",
                 static_cast<double>(r.latencies.size()), "count");
  std::fprintf(stderr,
               "closed loop: %llu warm-up and %llu measured queries (%llu "
               "served) in %.3f s, p90 over %zu samples\n",
               static_cast<unsigned long long>(r.warmup),
               static_cast<unsigned long long>(r.submitted - r.warmup),
               static_cast<unsigned long long>(r.served), r.window_seconds,
               r.latencies.size());
}

void ReportServingLayers(const ClosedLoopReport& r, Outcome* out) {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  uint64_t morsels = 0;
  uint64_t governed = 0;
  uint64_t calibration = 0;
  uint64_t probes = 0;
  uint64_t switches = 0;
  uint64_t hits = 0;
  uint64_t deadline_missed = 0;
  EngineStats e;
  std::map<ExecPolicy, uint64_t> chosen;
  for (size_t i = r.warmup; i < r.completed.size(); ++i) {
    const Completed& c = r.completed[i];
    if (c.stats.outcome != QueryOutcome::kServed) continue;
    deadline_missed += c.stats.deadline_met ? 0 : 1;
    e.Merge(c.stats.run.engine);
    queue_ms.push_back(c.stats.queue_seconds * 1e3);
    exec_ms.push_back(c.stats.run.seconds * 1e3);
    morsels += c.stats.run.morsels;
    const AdaptiveStats& a = c.stats.run.adaptive;
    if (!a.active) continue;
    ++governed;
    calibration += a.calibration_morsels;
    probes += a.probe_morsels;
    switches += a.tuning_switches;
    hits += a.cache_hit ? 1 : 0;
    ++chosen[a.chosen_policy];
  }
  const double served = std::max<double>(1, static_cast<double>(r.served));
  out->layer.Set("server.queue_ms", Mean(queue_ms), "ms");
  out->layer.Set("server.exec_ms", Mean(exec_ms), "ms");
  out->layer.Set("server.morsels_per_query",
                 static_cast<double>(morsels) / served, "count");
  out->layer.Set("server.pending_max", static_cast<double>(r.pending_max),
                 "count");
  out->layer.Set("server.rejected", static_cast<double>(r.rejected),
                 "count");
  out->layer.Set("server.shed", static_cast<double>(r.shed), "count");
  out->layer.Set("server.deadline_missed",
                 static_cast<double>(deadline_missed), "count");

  const double lookups = std::max<double>(1, static_cast<double>(e.lookups));
  out->layer.Set("core.parks_per_input", e.parks / lookups, "count");
  out->layer.Set("core.steps_per_input", e.steps / lookups, "count");
  out->layer.Set("core.retries_per_input", e.retries / lookups, "count");
  out->layer.Set("core.noops_per_input", e.noops / lookups, "count");
  out->layer.Set("core.vec_fallback_frac", e.vec_fallbacks / lookups, "frac");

  if (governed > 0) {
    const double all_morsels =
        std::max<double>(1, static_cast<double>(morsels));
    uint64_t top = 0;
    for (const auto& [policy, n] : chosen) top = std::max(top, n);
    const double g = static_cast<double>(governed);
    out->layer.Set("adaptive.calibration_morsel_frac",
                   static_cast<double>(calibration) / all_morsels, "frac");
    out->layer.Set("adaptive.probe_morsel_frac",
                   static_cast<double>(probes) / all_morsels, "frac");
    out->layer.Set("adaptive.switches_per_query",
                   static_cast<double>(switches) / g, "count");
    out->layer.Set("adaptive.cache_hit_frac", static_cast<double>(hits) / g,
                   "frac");
    out->layer.Set("adaptive.top_policy_share", static_cast<double>(top) / g,
                   "frac");
  }
}

void ReportTracedHalves(const ClosedLoopReport& plain,
                        const ClosedLoopReport& traced, Outcome* out) {
  ReportClosedLoop(plain, out);
  ReportClosedLoop(traced, out);
  ReportServingLayers(traced, out);
  auto rate = [](const ClosedLoopReport& r) {
    return static_cast<double>(r.inputs) / std::max(r.window_seconds, 1e-9);
  };
  out->layer.Set("trace.overhead_frac", 1.0 - rate(traced) / rate(plain),
                 "frac");
}

void ReportTrace(const Tracer& tracer, Outcome* out) {
  out->layer.Set("server.submit_us",
                 Percentile(tracer.Durations("Submit"), 0.5) * 1e6, "us");
  out->layer.Set("trace.spans", static_cast<double>(tracer.spans().size()),
                 "count");
}

RunStats SoloOracle(const Plan& plan) {
  Executor solo(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  return RunPlan(solo, plan).run;
}

double SoloCyclesPerInput(const Plan& plan, ExecPolicy policy,
                          const RunStats& oracle, Tracer* tracer,
                          const char* span_name, Outcome* out) {
  Executor solo(ExecConfig{policy, SchedulerParams{}, 1, 0});
  RunStats run;
  {
    SpanScope span(tracer, span_name);
    run = RunPlan(solo, plan).run;
  }
  if (run.outputs != oracle.outputs || run.checksum != oracle.checksum) {
    out->Fail(std::string(span_name) + " under " + ExecPolicyName(policy) +
              " diverged from the sequential oracle");
  }
  return run.CyclesPerInput();
}

void ForEachIndex(uint64_t n, const std::function<void(uint64_t)>& fn) {
  MorselCursor cursor(n, 1);
  ParallelFor(kWorkers, [&](uint32_t) {
    for (Range r; cursor.Next(&r);) fn(r.begin);
  });
}

}  // namespace perfbench
