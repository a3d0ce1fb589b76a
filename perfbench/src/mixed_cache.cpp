// mixed-cache: the serving layer's own costs.  Seven query kinds picked
// uniformly (hash, B+-tree, BST and skip-list lookups; random walks;
// group-by; fused probe -> group-by) of 4,096 inputs each, against
// structures of 2^16 keys that fit in the LLC, under kAdaptive.  Per-query
// work is small, so Submit/plan lowering, admission, morsel dispatch,
// governor calibration and FusedOp dominate; this is the only workload
// where the adaptive governor and the fused pipeline run on the serving
// path.  A closed loop keeps 8 queries outstanding.
#include <cstdio>
#include <map>
#include <memory>

#include "bst/bst.h"
#include "btree/btree.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "groupby/agg_table.h"
#include "harness.h"
#include "skiplist/skiplist.h"

namespace perfbench {
namespace {

using namespace amac;

constexpr uint64_t kKeys = 1ull << 16;
constexpr uint64_t kQueryInputs = 4096;
constexpr uint32_t kWalkHops = 8;
constexpr int kKinds = 7;
/// Distinct inputs per kind, cycled in a seeded order.
constexpr uint64_t kWindows = 64;

const char* const kKindNames[kKinds] = {
    "hash", "btree", "bst", "skiplist", "walks", "groupby", "fused"};
const char* const kKindCpi[kKinds] = {
    "hashtable.probe_cpi", "btree.lookup_cpi",  "bst.lookup_cpi",
    "skiplist.lookup_cpi", "graph.walk_cpi",    "groupby.agg_cpi",
    "groupby.fused_probe_agg_cpi"};

bool Aggregates(int kind) { return kind >= 5; }

struct Structures {
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<BinarySearchTree> bst;
  std::unique_ptr<SkipList> skiplist;
  std::unique_ptr<CsrGraph> graph;
};

Structures Build(const Relation& r, uint64_t seed, Tracer* tracer) {
  Structures s;
  {
    SpanScope span(tracer, "BuildTableUnsync");
    s.table =
        std::make_unique<ChainedHashTable>(kKeys, ChainedHashTable::Options{});
    BuildTableUnsync(r, s.table.get());
  }
  {
    SpanScope span(tracer, "BTree");
    s.btree = std::make_unique<BTree>(r);
  }
  {
    SpanScope span(tracer, "BuildBst");
    s.bst = std::make_unique<BinarySearchTree>(BuildBst(r));
  }
  {
    SpanScope span(tracer, "SkipList::InsertUnsync");
    s.skiplist = std::make_unique<SkipList>(r.size());
    Rng rng(seed);
    for (const Tuple& t : r) s.skiplist->InsertUnsync(t.key, t.payload, rng);
  }
  SpanScope span(tracer, "CsrGraph");
  CsrGraph::Options graph;
  graph.num_vertices = kKeys / 4;
  graph.out_degree = 8;
  graph.seed = seed;
  s.graph = std::make_unique<CsrGraph>(graph);
  return s;
}

/// Per-window query inputs: lookup keys (hits and misses), group-by rows
/// and walk seeds.
struct Inputs {
  std::vector<Relation> lookup;
  std::vector<Relation> groupby;
  std::vector<Relation> probe;  ///< fused probe -> group-by input
};

Plan KindPlan(const Structures& s, const Inputs& in, int kind, uint64_t w,
              uint64_t seed, AggregateTable* agg) {
  switch (kind) {
    case 0: return Plan::Scan(in.lookup[w]).Lookup(*s.table);
    case 1: return Plan::Scan(in.lookup[w]).LookupBTree(*s.btree);
    case 2: return Plan::Scan(in.lookup[w]).LookupBst(*s.bst);
    case 3: return Plan::Scan(in.lookup[w]).LookupSkipList(*s.skiplist);
    case 4:
      return Plan::Walks(*s.graph, kQueryInputs, kWalkHops, seed * 131 + w);
    case 5: return Plan::Scan(in.groupby[w]).GroupByInto(agg);
    default: return Plan::Scan(in.probe[w]).Lookup(*s.table).GroupByInto(agg);
  }
}

/// A per-query aggregate table sized to the query, not to the structure:
/// a table sized to 2^16 groups costs the closed-loop thread about a
/// millisecond per query to allocate and check, which would cap the loop.
std::shared_ptr<AggregateTable> QueryAggTable() {
  return std::make_shared<AggregateTable>(kQueryInputs,
                                          AggregateTable::Options{});
}

/// Per kind, how often the governor chose each policy in the measured
/// window (stderr), so a run whose calibration went astray shows.
void PrintChosenPolicies(const ClosedLoopReport& r) {
  std::map<ExecPolicy, uint64_t> chosen[kKinds];
  for (size_t i = r.warmup; i < r.completed.size(); ++i) {
    const Completed& c = r.completed[i];
    if (c.stats.run.adaptive.active) {
      ++chosen[c.kind][c.stats.run.adaptive.chosen_policy];
    }
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    std::fprintf(stderr, "governor chose for %-8s:", kKindNames[kind]);
    for (const auto& [policy, n] : chosen[kind]) {
      std::fprintf(stderr, " %s %llu", ExecPolicyName(policy),
                   static_cast<unsigned long long>(n));
    }
    std::fprintf(stderr, "\n");
  }
}

struct Oracle {
  uint64_t outputs = 0;
  uint64_t checksum = 0;
};

ClosedLoopReport Serve(const Structures& s, const Inputs& in,
                       const std::vector<Oracle>& oracles,
                       const std::vector<uint64_t>& order, uint64_t seed,
                       double seconds, Tracer* tracer) {
  QueryScheduler sched(QuerySchedulerOptions{kWorkers});
  QueryOptions options;
  options.policy = ExecPolicy::kAdaptive;
  // One untimed pass over every (window, kind) query first: the governor
  // calibrates each query shape once per scheduler, and its cached winner
  // then serves every later query of that shape.  Calibrating inside the
  // window would let one preempted calibration fix a poor policy for the
  // whole run.
  ClosedLoopReport report = RunClosedLoop(
      sched, order.size(), seconds,
      [&](uint64_t i) {
        const uint64_t slot = order[i % order.size()];
        const int kind = static_cast<int>(slot % kKinds);
        const uint64_t w = slot / kKinds;
        const Oracle oracle = oracles[slot];
        Request r;
        r.options = options;
        r.kind = kind;
        r.inputs = kQueryInputs;
        if (Aggregates(kind)) {
          auto agg = QueryAggTable();
          r.plan = KindPlan(s, in, kind, w, seed, agg.get());
          r.verify = [agg, oracle](const QueryStats&) {
            return agg->CountGroups() == oracle.outputs &&
                   agg->Checksum() == oracle.checksum;
          };
        } else {
          r.plan = KindPlan(s, in, kind, w, seed, nullptr);
          r.verify = [oracle](const QueryStats& q) {
            return q.run.outputs == oracle.outputs &&
                   q.run.checksum == oracle.checksum;
          };
        }
        return r;
      },
      tracer);
  PrintChosenPolicies(report);
  return report;
}

}  // namespace

Outcome RunMixedCache(const Args& args) {
  Outcome out;
  const Relation r = MakeDenseUniqueRelation(kKeys, args.seed);
  Inputs in;
  for (uint64_t w = 0; w < kWindows; ++w) {
    const uint64_t base = args.seed * 1000003 + w * 16;
    in.lookup.push_back(
        MakeZipfRelation(kQueryInputs, 2 * kKeys, 0.3, base + 1));
    in.groupby.push_back(
        MakeZipfRelation(kQueryInputs, kKeys / 8, 0.6, base + 2));
    in.probe.push_back(MakeForeignKeyRelation(kQueryInputs, kKeys, base + 3));
  }
  // Every (window, kind) pair once per pass, in a seeded order: the kind
  // mix is exactly uniform over a pass.
  std::vector<uint64_t> order(kWindows * kKinds);
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(args.seed ^ 0x3113u);
  for (uint64_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }

  Tracer tracer_store;
  Tracer* tracer = args.trace ? &tracer_store : nullptr;
  Structures s;
  const double setup_s = MedianSetupSeconds(
      15, [&] { s = Build(r, args.seed, tracer); }, tracer, "setup");

  // Solo sequential oracle of every (window, kind) query.  Aggregating
  // plans report their table's groups and checksum through RunStats.
  std::vector<Oracle> oracles(order.size());
  ForEachIndex(order.size(), [&](uint64_t slot) {
    const int kind = static_cast<int>(slot % kKinds);
    auto agg = QueryAggTable();
    const RunStats run =
        SoloOracle(KindPlan(s, in, kind, slot / kKinds, args.seed, agg.get()));
    oracles[slot] = {run.outputs, run.checksum};
  });

  const double space_amp = static_cast<double>(HashTableBytes(*s.table)) /
                           static_cast<double>(kKeys * sizeof(Tuple));
  if (!args.trace) {
    const ClosedLoopReport report =
        Serve(s, in, oracles, order, args.seed, args.seconds, nullptr);
    ReportClosedLoop(report, &out);
    out.e2e.Set("space_amp", space_amp, "ratio");
    out.e2e.Set("setup_s", setup_s, "s");
    return out;
  }

  const ClosedLoopReport plain =
      Serve(s, in, oracles, order, args.seed, args.seconds / 2, nullptr);
  const ClosedLoopReport traced =
      Serve(s, in, oracles, order, args.seed, args.seconds / 2, tracer);
  ReportTracedHalves(plain, traced, &out);

  // Solo cycles per input of every kind under the default static policy.
  for (int kind = 0; kind < kKinds; ++kind) {
    std::vector<double> cpi;
    for (uint64_t w = 0; w < 4; ++w) {
      auto agg = QueryAggTable();
      const Plan plan = KindPlan(s, in, kind, w, args.seed, agg.get());
      const Oracle& o = oracles[w * kKinds + static_cast<uint64_t>(kind)];
      RunStats oracle;
      oracle.outputs = o.outputs;
      oracle.checksum = o.checksum;
      cpi.push_back(SoloCyclesPerInput(plan, ExecPolicy::kAmac, oracle,
                                       tracer, kKindNames[kind], &out));
    }
    out.layer.Set(kKindCpi[kind], Median(cpi), "cycles");
  }
  // The fused kind pinned fused and pinned two-phase on a solo executor:
  // fused throughput over two-phase throughput.
  std::vector<double> fused_over_two_phase;
  for (uint64_t w = 0; w < 4; ++w) {
    double cycles[2] = {0, 0};
    const PlanShape shapes[2] = {PlanShape::kFused, PlanShape::kTwoPhase};
    for (int i = 0; i < 2; ++i) {
      auto agg = QueryAggTable();
      Executor solo(ExecConfig{ExecPolicy::kAmac, SchedulerParams{}, 1, 0});
      PlanOptions pin;
      pin.shape = shapes[i];
      SpanScope span(tracer, "RunPlan pinned");
      const PlanResult res =
          RunPlan(solo, KindPlan(s, in, 6, w, args.seed, agg.get()), pin);
      const Oracle& o = oracles[w * kKinds + 6];
      if (res.run.outputs != o.outputs || res.run.checksum != o.checksum) {
        out.Fail("pinned fused kind diverged from the oracle");
      }
      cycles[i] = static_cast<double>(res.TotalCycles());
    }
    fused_over_two_phase.push_back(cycles[1] / cycles[0]);
  }
  out.layer.Set("plan.fused_over_two_phase", Median(fused_over_two_phase),
                "ratio");
  ReportTrace(tracer_store, &out);
  out.layer.Set("bench.llc_bytes", static_cast<double>(LlcBytes()), "B");
  out.layer.Set("bench.main_structure_bytes",
                static_cast<double>(HashTableBytes(*s.table)), "B");
  tracer_store.Write(args.out_dir + "/spans-mixed-cache-seed" +
                     std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
