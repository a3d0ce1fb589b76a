// Writing your own AMAC operation: a stage machine driven by the generic
// engine (core/engine.h).  Start() issues the first prefetch, each Step()
// consumes one node and either finishes or prefetches the next and parks;
// the same op then runs under every schedule.
//
// The example data structure is a bucketed directed graph walk: each lookup
// chases `hops` random pointers through a large node array — the purest
// form of the dependent-access chain AMAC targets.
#include <cstdio>
#include <vector>

#include "common/aligned.h"
#include "common/cycle_timer.h"
#include "common/flags.h"
#include "common/prefetch.h"
#include "common/rng.h"
#include "core/engine.h"

namespace {

struct AMAC_CACHE_ALIGNED GraphNode {
  const GraphNode* next = nullptr;
  uint64_t value = 0;
};

/// A random ring over `n` cache lines.
amac::AlignedBuffer<GraphNode> MakeGraph(uint64_t n, uint64_t seed) {
  amac::AlignedBuffer<GraphNode> nodes(n);
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = i;
  amac::Rng rng(seed);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  for (uint64_t i = 0; i < n; ++i) {
    nodes[perm[i]].next = &nodes[perm[(i + 1) % n]];
    nodes[perm[i]].value = i;
  }
  return nodes;
}

/// The lookup as an explicit stage machine.
class GraphWalkOp {
 public:
  struct State {
    const GraphNode* node;
    uint32_t hops_left;
  };

  GraphWalkOp(const GraphNode* starts, uint64_t count, uint64_t stride,
              uint32_t hops, uint64_t* sum)
      : starts_(starts), count_(count), stride_(stride), hops_(hops),
        sum_(sum) {}

  void Start(State& st, uint64_t idx) {
    st.node = &starts_[(idx * stride_) % count_];
    st.hops_left = hops_;
    amac::Prefetch(st.node);
  }

  amac::StepStatus Step(State& st) {
    *sum_ += st.node->value;
    if (--st.hops_left == 0) return amac::StepStatus::kDone;
    st.node = st.node->next;
    amac::Prefetch(st.node);
    return amac::StepStatus::kParked;
  }

 private:
  const GraphNode* starts_;
  uint64_t count_;
  uint64_t stride_;
  uint32_t hops_;
  uint64_t* sum_;
};

}  // namespace

int main(int argc, char** argv) {
  amac::Flags flags;
  flags.DefineInt("lookups", 1 << 18, "number of pointer-chase lookups");
  flags.DefineInt("hops", 8, "dependent accesses per lookup");
  flags.DefineInt("inflight", 10, "in-flight lookups");
  flags.Parse(argc, argv);

  const uint64_t n = 1 << 23;  // 512 MB of nodes: beyond any LLC
  const auto graph = MakeGraph(n, 9);
  const uint64_t lookups = flags.GetInt("lookups");
  const uint32_t hops = static_cast<uint32_t>(flags.GetInt("hops"));
  const uint32_t m = static_cast<uint32_t>(flags.GetInt("inflight"));

  // Sequential schedule = the no-prefetch baseline.
  uint64_t sum_seq = 0;
  GraphWalkOp op_seq(graph.data(), n, 7919, hops, &sum_seq);
  amac::CycleTimer timer;
  amac::RunSequential(op_seq, lookups);
  const uint64_t seq_cycles = timer.Elapsed();

  // AMAC schedule over the same operation.
  uint64_t sum_amac = 0;
  GraphWalkOp op_amac(graph.data(), n, 7919, hops, &sum_amac);
  timer.Restart();
  const amac::EngineStats stats = amac::RunAmac(op_amac, lookups, m);
  const uint64_t amac_cycles = timer.Elapsed();

  std::printf("graph walk: %llu lookups x %u hops\n",
              static_cast<unsigned long long>(lookups), hops);
  std::printf("sequential: %6.1f cycles/lookup\n",
              static_cast<double>(seq_cycles) / lookups);
  std::printf("AMAC:       %6.1f cycles/lookup (%.2fx, %.1f steps/lookup)\n",
              static_cast<double>(amac_cycles) / lookups,
              static_cast<double>(seq_cycles) / amac_cycles,
              stats.StepsPerLookup());
  if (sum_seq != sum_amac) {
    std::fprintf(stderr, "sums disagree!\n");
    return 1;
  }
  return 0;
}
