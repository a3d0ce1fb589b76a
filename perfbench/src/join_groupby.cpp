// join-groupby-ref: the plan layer at ref scale.  One analytic client
// runs Scan(S).HashJoin(R).GroupBy one query at a time through RunPlan on
// a 4-thread Executor, |R| = |S| = 2^22, with unpinned PlanOptions so the
// optimizer chooses shape, build side and build mode.  The first query on
// a fresh Executor runs the measure fallback; it is the workload's set-up.
// This is the only workload where plan choice, the join build, two-phase
// materialization versus FusedOp and the aggregate table run at ref scale.
#include <cstdio>

#include "harness.h"

namespace perfbench {
namespace {

using namespace amac;

constexpr uint64_t kRows = 1ull << 22;

/// Aggregate-table footprint: one node per group, headers included.
uint64_t AggTableBytes(const AggregateTable& t) {
  uint64_t used_headers = 0;
  for (uint64_t b = 0; b < t.num_buckets(); ++b) {
    used_headers += t.buckets()[b].used ? 1 : 0;
  }
  return (t.num_buckets() + t.CountGroups() - used_headers) *
         sizeof(GroupNode);
}

bool Matches(const PlanResult& res, const RunStats& oracle) {
  return res.run.outputs == oracle.outputs &&
         res.run.checksum == oracle.checksum;
}

struct Query {
  PlanResult result;
  double seconds = 0;
};

Query RunOne(Executor& exec, const Plan& plan, const PlanOptions& options,
             Tracer* tracer, uint64_t id) {
  Query q;
  SpanScope span(tracer, "RunPlan", id);
  WallTimer wall;
  q.result = RunPlan(exec, plan, options);
  q.seconds = wall.ElapsedSeconds();
  return q;
}

}  // namespace

Outcome RunJoinGroupByRef(const Args& args) {
  Outcome out;
  const Relation r = MakeDenseUniqueRelation(kRows, args.seed);
  const Relation s = MakeForeignKeyRelation(kRows, kRows, args.seed + 1);
  const Plan plan = Plan::Scan(s).HashJoin(r).GroupBy(kRows);
  const uint64_t inputs = r.size() + s.size();
  Tracer tracer_store;
  Tracer* tracer = args.trace ? &tracer_store : nullptr;

  // Oracle: the default shape, run unmeasured on a solo sequential
  // executor.  Every shape produces bitwise-identical groups.
  RunStats oracle;
  {
    Executor solo(
        ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
    PlanOptions unmeasured;
    unmeasured.allow_measure = false;
    oracle = RunPlan(solo, plan, unmeasured).run;
  }

  // Set-up: a fresh executor and its first query, which measures every
  // candidate shape before running the winner.  The last one serves.
  std::unique_ptr<Executor> exec;
  uint64_t structure_bytes = 0;
  double space_amp = 0;
  std::vector<double> first_query;
  for (int rep = 0; rep < 3; ++rep) {
    SpanScope span(tracer, "setup");
    WallTimer wall;
    exec = std::make_unique<Executor>(
        ExecConfig{ExecPolicy::kAmac, SchedulerParams{}, kWorkers, 0});
    const Query q =
        RunOne(*exec, plan, PlanOptions{}, tracer, Tracer::kNoQuery);
    first_query.push_back(wall.ElapsedSeconds());
    if (!Matches(q.result, oracle)) out.Fail("first query diverged");
    const uint64_t join_bytes =
        q.result.table ? HashTableBytes(*q.result.table) : 0;
    structure_bytes =
        join_bytes + (q.result.groups ? AggTableBytes(*q.result.groups) : 0);
    space_amp = static_cast<double>(join_bytes) /
                static_cast<double>(kRows * sizeof(Tuple));
  }
  const double setup_s = Median(first_query);
  RequireAboveLlc("join + aggregate tables", structure_bytes, &out);

  auto serve = [&](double seconds, Tracer* t, std::vector<Query>* queries) {
    double busy = 0;
    for (uint64_t id = 0; busy < seconds; ++id) {
      Query q = RunOne(*exec, plan, PlanOptions{}, t, id);
      busy += q.seconds;
      ++out.attempted;
      if (!Matches(q.result, oracle)) {
        ++out.failed;
        out.Fail("query " + std::to_string(id) +
                 " diverged from the solo sequential oracle");
      }
      q.result.table.reset();
      q.result.groups.reset();
      queries->push_back(std::move(q));
    }
    return busy;
  };
  auto rate = [&](const std::vector<Query>& qs, double busy) {
    return static_cast<double>(inputs * qs.size()) / busy;
  };

  std::vector<Query> queries;
  if (!args.trace) {
    const double busy = serve(args.seconds, nullptr, &queries);
    std::vector<double> latencies;
    for (const Query& q : queries) latencies.push_back(q.seconds);
    out.e2e.Set("inputs_per_s", rate(queries, busy), "1/s");
    out.e2e.Set("latency_p50_ms", Percentile(latencies, 0.5) * 1e3, "ms");
    out.e2e.Set("latency_p90_ms", Percentile(latencies, 0.9) * 1e3, "ms");
    out.e2e.Set("space_amp", space_amp, "ratio");
    out.e2e.Set("setup_s", setup_s, "s");
    std::fprintf(stderr, "join-groupby-ref: p90 over %zu samples\n",
                 latencies.size());
    return out;
  }

  std::vector<Query> plain;
  const double plain_busy = serve(args.seconds / 2, nullptr, &plain);
  const double busy = serve(args.seconds / 2, tracer, &queries);
  out.layer.Set("trace.overhead_frac",
                1.0 - rate(queries, busy) / rate(plain, plain_busy), "frac");

  std::vector<double> build_ms, run_ms, outside, est, cpt;
  EngineStats engine;
  uint64_t morsels = 0;
  for (const Query& q : queries) {
    const RunStats& b = q.result.build;
    const RunStats& run = q.result.run;
    build_ms.push_back(b.seconds * 1e3);
    run_ms.push_back(run.seconds * 1e3);
    outside.push_back((q.seconds - b.seconds - run.seconds) / q.seconds);
    if (run.plan.measured_cost_cycles > 0) {
      est.push_back(run.plan.estimated_cost_cycles /
                    run.plan.measured_cost_cycles);
    }
    if (b.inputs > 0) cpt.push_back(b.CyclesPerInput());
    engine.Merge(run.engine);
    morsels += run.morsels + b.morsels;
  }
  out.layer.Set("plan.build_ms", Median(build_ms), "ms");
  out.layer.Set("plan.run_ms", Median(run_ms), "ms");
  out.layer.Set("plan.outside_frac", Median(outside), "frac");
  out.layer.Set("plan.first_query_s", setup_s, "s");
  out.layer.Set("plan.est_over_measured", Median(est), "ratio");
  out.layer.Set("join.build_cycles_per_tuple", Median(cpt), "cycles");
  out.layer.Set("server.exec_ms", Median(run_ms), "ms");
  out.layer.Set("server.morsels_per_query",
                static_cast<double>(morsels) /
                    std::max<double>(1, static_cast<double>(queries.size())),
                "count");
  const double lookups =
      std::max<double>(1, static_cast<double>(engine.lookups));
  out.layer.Set("core.parks_per_input", engine.parks / lookups, "count");
  out.layer.Set("core.steps_per_input", engine.steps / lookups, "count");
  out.layer.Set("core.retries_per_input", engine.retries / lookups, "count");
  out.layer.Set("core.noops_per_input", engine.noops / lookups, "count");
  out.layer.Set("core.vec_fallback_frac", engine.vec_fallbacks / lookups,
                "frac");
  out.layer.Set("bench.latency_samples", static_cast<double>(queries.size()),
                "count");

  std::vector<double> enumerate_us;
  for (int i = 0; i < 5; ++i) {
    SpanScope span(tracer, "PlanCompiler::Enumerate");
    WallTimer wall;
    const auto shapes = PlanCompiler::Enumerate(plan, PlanOptions{}, kWorkers);
    enumerate_us.push_back(wall.ElapsedSeconds() * 1e6);
    if (shapes.empty()) out.Fail("no physical shape enumerated");
  }
  out.layer.Set("plan.enumerate_us", Median(enumerate_us), "us");

  // The plan pinned fused and pinned two-phase, the optimizer choosing the
  // rest (not every build side and mode combines with both shapes): fused
  // throughput over two-phase throughput (>= 1 means fusing pays).
  double pinned[2] = {0, 0};
  const PlanShape shapes[2] = {PlanShape::kFused, PlanShape::kTwoPhase};
  for (int i = 0; i < 2; ++i) {
    PlanOptions pin;
    pin.shape = shapes[i];
    const Query q = RunOne(*exec, plan, pin, tracer, Tracer::kNoQuery);
    if (!Matches(q.result, oracle)) out.Fail("pinned shape diverged");
    pinned[i] = q.seconds;
  }
  out.layer.Set("plan.fused_over_two_phase", pinned[1] / pinned[0], "ratio");
  out.layer.Set("bench.llc_bytes", static_cast<double>(LlcBytes()), "B");
  out.layer.Set("bench.main_structure_bytes",
                static_cast<double>(structure_bytes), "B");
  ReportTrace(tracer_store, &out);
  tracer_store.Write(args.out_dir + "/spans-join-groupby-ref-seed" +
                     std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
