// Ablation (paper §6 "AMAC automation"): what does generalizing AMAC cost?
// Compares, on the same workloads, the hand-written AMAC and GP kernels
// (paper Listing 1 style) against the generic stage-machine engine
// dispatched through the unified runtime (core/scheduler.h) —
// Run(policy, params, op, n).
#include <cstdio>

#include "bench_util.h"
#include "bst/bst.h"
#include "bst/bst_search.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/ops.h"
#include "join/join_ops.h"
#include "core/scheduler.h"
#include "join/probe_kernels.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

template <typename Fn>
uint64_t MinCycles(uint32_t reps, Fn&& fn) {
  uint64_t best = UINT64_MAX;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    CycleTimer timer;
    fn();
    best = std::min(best, timer.Elapsed());
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/22);
  args.Parse(argc, argv);
  const uint32_t m = args.inflight;

  PrintHeader("Ablation: hand-written kernels vs the generic engine",
              "paper §6 framework discussion; join probe and BST search; "
              "generic columns dispatch through Run(policy, ...)");

  TablePrinter table("engine-implementation ablation: cycles per lookup",
                     {"workload", "hand AMAC", "generic AMAC",
                      "hand GP", "generic GP"});

  {  // Hash join probe, uniform and skewed.
    for (double z : {0.0, 1.0}) {
      const PreparedJoin prepared =
          PrepareJoin(args.scale, args.scale, z, z, 51);
      const double n = static_cast<double>(prepared.s.size());
      // First-match semantics throughout (paper Listing 1).
      constexpr bool kEarly = true;
      const SchedulerParams params{m, 1};  // GP stages = 1 for hash chains
      const uint64_t hand = MinCycles(args.reps, [&] {
        CountChecksumSink sink;
        ProbeAmac<kEarly>(*prepared.table, prepared.s, 0, prepared.s.size(),
                          m, sink);
        Consume(sink);
      });
      const uint64_t generic = MinCycles(args.reps, [&] {
        CountChecksumSink sink;
        ProbeOp<kEarly, CountChecksumSink> op(*prepared.table,
                                                  prepared.s, sink);
        amac::Run(ExecPolicy::kAmac, params, op, prepared.s.size());
        Consume(sink);
      });
      const uint64_t hand_gp = MinCycles(args.reps, [&] {
        CountChecksumSink sink;
        ProbeGroupPrefetch<kEarly>(*prepared.table, prepared.s, 0,
                                   prepared.s.size(), m, 1, sink);
        Consume(sink);
      });
      const uint64_t generic_gp = MinCycles(args.reps, [&] {
        CountChecksumSink sink;
        ProbeOp<kEarly, CountChecksumSink> op(*prepared.table,
                                                  prepared.s, sink);
        amac::Run(ExecPolicy::kGroupPrefetch, params, op,
                  prepared.s.size());
        Consume(sink);
      });
      table.AddRow({std::string("join probe z=") + TablePrinter::Fmt(z, 1),
                    TablePrinter::Fmt(hand / n, 1),
                    TablePrinter::Fmt(generic / n, 1),
                    TablePrinter::Fmt(hand_gp / n, 1),
                    TablePrinter::Fmt(generic_gp / n, 1)});
    }
  }
  {  // BST search.
    const uint64_t n = args.scale;  // must exceed the LLC
    const Relation rel = MakeDenseUniqueRelation(n, 52);
    const BinarySearchTree tree = BuildBst(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 53);
    const double dn = static_cast<double>(n);
    const SchedulerParams amac_params{m, 1};
    const SchedulerParams gp_params{m, 24};
    const uint64_t hand = MinCycles(args.reps, [&] {
      CountChecksumSink sink;
      BstSearchAmac(tree, probe, 0, n, m, sink);
      Consume(sink);
    });
    const uint64_t generic = MinCycles(args.reps, [&] {
      CountChecksumSink sink;
      BstSearchOp<CountChecksumSink> op(tree, probe, sink);
      amac::Run(ExecPolicy::kAmac, amac_params, op, n);
      Consume(sink);
    });
    const uint64_t hand_gp = MinCycles(args.reps, [&] {
      CountChecksumSink sink;
      BstSearchGroupPrefetch(tree, probe, 0, n, m, 24, sink);
      Consume(sink);
    });
    const uint64_t generic_gp = MinCycles(args.reps, [&] {
      CountChecksumSink sink;
      BstSearchOp<CountChecksumSink> op(tree, probe, sink);
      amac::Run(ExecPolicy::kGroupPrefetch, gp_params, op, n);
      Consume(sink);
    });
    table.AddRow({"BST search", TablePrinter::Fmt(hand / dn, 1),
                  TablePrinter::Fmt(generic / dn, 1),
                  TablePrinter::Fmt(hand_gp / dn, 1),
                  TablePrinter::Fmt(generic_gp / dn, 1)});
  }
  table.Print();
  std::printf(
      "reading: the generic engine should sit within ~10%% of the "
      "hand-written kernel of the same schedule; the gap is what the "
      "fully-automated path costs.\n");
  return 0;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
