// lookup-ref: the paper's regime.  Dependent point lookups against a
// ChainedHashTable (3 queries in 4) and a B+-tree (1 in 4), both holding
// 2^23 dense keys, so the hash table alone is more than twice the LLC and
// nearly every node visit is a DRAM miss.  A closed loop keeps 8 queries
// of 16,384 uniform-random keys outstanding under the default
// QueryOptions (AMAC, inflight 10).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "btree/btree.h"
#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace amac;

constexpr uint64_t kKeys = 1ull << 23;
constexpr uint64_t kQueryInputs = 16384;
/// Distinct query inputs, cycled in a seeded order.  512 x 16,384 keys
/// touch most of the table's 2^22 buckets, so reuse of a window cannot
/// pull the table into cache.
constexpr uint64_t kWindows = 512;
/// Uniform keys of the solo per-policy measurement.
constexpr uint64_t kSoloInputs = 1ull << 20;

bool IsBTreeWindow(uint64_t w) { return w % 4 == 3; }

struct Structures {
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<BTree> btree;
};

uint64_t BTreeBytes(const BTree& tree) {
  const BTreeStats s = tree.ComputeStats();
  return (s.num_leaves + s.num_inner) * sizeof(BTreeNode);
}

Plan WindowPlan(const Structures& s, const Relation& keys, bool btree) {
  return btree ? Plan::Scan(keys).LookupBTree(*s.btree)
               : Plan::Scan(keys).Lookup(*s.table);
}

/// One measured closed-loop window over the shared structures, after two
/// client windows of warm-up.
ClosedLoopReport Serve(const Structures& s,
                       const std::vector<Relation>& windows,
                       const std::vector<RunStats>& oracles,
                       const std::vector<uint64_t>& order, double seconds,
                       Tracer* tracer) {
  QueryScheduler sched(QuerySchedulerOptions{kWorkers});
  return RunClosedLoop(
      sched, 2 * kClientWindow, seconds,
      [&](uint64_t i) {
        const uint64_t w = order[i % order.size()];
        Request r;
        r.plan = WindowPlan(s, windows[w], IsBTreeWindow(w));
        r.inputs = kQueryInputs;
        const RunStats* oracle = &oracles[w];
        r.verify = [oracle](const QueryStats& q) {
          return q.run.outputs == oracle->outputs &&
                 q.run.checksum == oracle->checksum;
        };
        return r;
      },
      tracer);
}

}  // namespace

Outcome RunLookupRef(const Args& args) {
  Outcome out;
  // Inputs: the build relation and the query windows (not timed).
  const Relation r = MakeDenseUniqueRelation(kKeys, args.seed);
  std::vector<Relation> windows(kWindows);
  ForEachIndex(kWindows, [&](uint64_t w) {
    windows[w] = MakeZipfRelation(kQueryInputs, kKeys, 0.0,
                                  args.seed * 1000003 + w);
  });
  std::vector<uint64_t> order(kWindows);
  for (uint64_t w = 0; w < kWindows; ++w) order[w] = w;
  Rng rng(args.seed ^ 0x10c4u);
  for (uint64_t i = kWindows - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }

  Tracer tracer_store;
  Tracer* tracer = args.trace ? &tracer_store : nullptr;
  Structures s;
  const double setup_s = MedianSetupSeconds(
      3,
      [&] {
        s = Structures{};
        s.table = std::make_unique<ChainedHashTable>(
            kKeys, ChainedHashTable::Options{});
        {
          SpanScope span(tracer, "BuildTableParallel");
          BuildTableParallel(r, kWorkers, s.table.get());
        }
        SpanScope span(tracer, "BTree");
        s.btree = std::make_unique<BTree>(r);
      },
      tracer, "setup");
  const uint64_t table_bytes = HashTableBytes(*s.table);
  const uint64_t btree_bytes = BTreeBytes(*s.btree);
  std::fprintf(stderr, "lookup-ref: hash table %llu B, btree %llu B\n",
               static_cast<unsigned long long>(table_bytes),
               static_cast<unsigned long long>(btree_bytes));
  RequireAboveLlc("hash table", table_bytes, &out);

  std::vector<RunStats> oracles(kWindows);
  ForEachIndex(kWindows, [&](uint64_t w) {
    oracles[w] = SoloOracle(WindowPlan(s, windows[w], IsBTreeWindow(w)));
  });

  const double live_bytes = static_cast<double>(kKeys * sizeof(Tuple));
  if (!args.trace) {
    const ClosedLoopReport report =
        Serve(s, windows, oracles, order, args.seconds, nullptr);
    ReportClosedLoop(report, &out);
    out.e2e.Set("space_amp", static_cast<double>(table_bytes) / live_bytes,
                "ratio");
    out.e2e.Set("setup_s", setup_s, "s");
    return out;
  }

  // Traced run: an untraced half, then a traced half (the difference is
  // the tracing overhead), then the solo per-policy and per-operator
  // measurements.
  const ClosedLoopReport plain =
      Serve(s, windows, oracles, order, args.seconds / 2, nullptr);
  const ClosedLoopReport traced =
      Serve(s, windows, oracles, order, args.seconds / 2, tracer);
  ReportTracedHalves(plain, traced, &out);

  const Relation solo_keys =
      MakeZipfRelation(kSoloInputs, kKeys, 0.0, args.seed ^ 0x5010u);
  const Plan probe = Plan::Scan(solo_keys).Lookup(*s.table);
  const RunStats probe_oracle = SoloOracle(probe);
  for (const ExecPolicy policy : kAllExecPolicies) {
    const double cpi = SoloCyclesPerInput(probe, policy, probe_oracle, tracer,
                                          "Executor::Run solo probe", &out);
    out.layer.Set(std::string("core.solo_cpi.") + ExecPolicyName(policy), cpi,
                  "cycles");
    if (policy == ExecPolicy::kAmac) {
      out.layer.Set("hashtable.probe_cpi", cpi, "cycles");
    }
  }
  const Relation btree_keys =
      MakeZipfRelation(kSoloInputs / 4, kKeys, 0.0, args.seed ^ 0xb7eeu);
  const Plan lookup = Plan::Scan(btree_keys).LookupBTree(*s.btree);
  out.layer.Set("btree.lookup_cpi",
                SoloCyclesPerInput(lookup, ExecPolicy::kAmac,
                                   SoloOracle(lookup), tracer,
                                   "Executor::Run solo btree", &out),
                "cycles");
  ReportTrace(tracer_store, &out);
  out.layer.Set("bench.llc_bytes", static_cast<double>(LlcBytes()), "B");
  out.layer.Set("bench.main_structure_bytes", static_cast<double>(table_bytes),
                "B");
  tracer_store.Write(args.out_dir + "/spans-lookup-ref-seed" +
                     std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
