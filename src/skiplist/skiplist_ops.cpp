#include "skiplist/skiplist_ops.h"

#include <vector>

#include "common/barrier.h"
#include "common/cycle_timer.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "join/sink.h"
#include "skiplist/skiplist_insert.h"
#include "skiplist/skiplist_search.h"

namespace amac {

namespace {

/// Insert kernels: no generic op exists (each in-flight insert carries a
/// ~0.5KB pred/succ vector), so the hand-written schedules run under the
/// executor's team.
template <bool kSync>
uint64_t RunInsertKernel(SkipList& list, const Relation& input,
                         uint64_t begin, uint64_t end, ExecPolicy policy,
                         const SchedulerParams& params, uint64_t seed) {
  switch (policy) {
    case ExecPolicy::kSequential:
    case ExecPolicy::kVectorized:  // no vector insert kernel: sequential
      return SkipInsertBaseline<kSync>(list, input, begin, end, seed);
    case ExecPolicy::kGroupPrefetch:
      return SkipInsertGroupPrefetch<kSync>(list, input, begin, end,
                                            params.inflight, params.stages,
                                            seed);
    case ExecPolicy::kSoftwarePipelined:
      return SkipInsertSoftwarePipelined<kSync>(list, input, begin, end,
                                                params.stages,
                                                params.SppDistance(), seed);
    case ExecPolicy::kAmac:
    // The skip-list insert has no vector kernel (each in-flight insert
    // carries a pred/succ vector); the vector policies take their
    // scheduling-equivalent scalar fallbacks, like Run() does for
    // vector-less ops.
    case ExecPolicy::kVectorizedAmac:
    // kAdaptive is resolved to a static schedule upstream (src/adaptive/);
    // a kernel asked to run it directly gets the work-conserving default.
    case ExecPolicy::kAdaptive:
      return SkipInsertAmac<kSync>(list, input, begin, end, params.inflight,
                                   seed);
  }
  return 0;
}

}  // namespace

RunStats RunSkipListSearch(Executor& exec, const SkipList& list,
                           const Relation& probe) {
  RunStats run;
  const uint32_t threads = exec.num_threads();
  std::vector<CountChecksumSink> sinks(threads);
  if (exec.policy() == ExecPolicy::kSequential) {
    // The paper's Baseline is a plain pointer chase with no prefetches;
    // keep the hand kernel (fig10/ext_btree do the same) so fig11's
    // speedup ratios stay anchored to the no-prefetch chase.
    run.inputs = probe.size();
    run.threads = std::max(1u, threads);
    WallTimer wall;
    CycleTimer cycles;
    if (threads <= 1) {
      SkipSearchBaseline(list, probe, 0, probe.size(), sinks[0]);
    } else {
      SpinBarrier barrier(threads);
      exec.pool().Run([&](uint32_t tid) {
        const Range r = PartitionRange(probe.size(), threads, tid);
        barrier.Wait();
        SkipSearchBaseline(list, probe, r.begin, r.end, sinks[tid]);
        barrier.Wait();
      });
    }
    run.cycles = cycles.Elapsed();
    run.seconds = wall.ElapsedSeconds();
    run.dispatch_seconds = run.seconds;
  } else {
    run = exec.Run(FromOp(probe.size(), [&](uint32_t tid) {
      return SkipSearchOp<CountChecksumSink>(list, probe, sinks[tid]);
    }));
  }
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

RunStats RunSkipListInsert(Executor& exec, SkipList* list,
                           const Relation& input, uint64_t seed) {
  RunStats run;
  run.inputs = input.size();
  const ExecConfig& config = exec.config();
  const uint32_t threads = exec.num_threads();
  run.threads = std::max(1u, threads);
  std::vector<uint64_t> inserted(threads, 0);
  WallTimer wall;
  CycleTimer cycles;
  if (threads <= 1) {
    inserted[0] = RunInsertKernel<false>(*list, input, 0, input.size(),
                                         config.policy, config.params, seed);
  } else {
    SpinBarrier barrier(threads);
    exec.pool().Run([&](uint32_t tid) {
      const Range r = PartitionRange(input.size(), threads, tid);
      barrier.Wait();
      inserted[tid] =
          RunInsertKernel<true>(*list, input, r.begin, r.end, config.policy,
                                config.params, seed + tid);
      barrier.Wait();
    });
  }
  run.cycles = cycles.Elapsed();
  run.seconds = wall.ElapsedSeconds();
  run.dispatch_seconds = run.seconds;
  uint64_t total = 0;
  for (uint64_t v : inserted) total += v;
  // Baseline inserts bump the count inside the list; staged kernels do not.
  if (config.policy != ExecPolicy::kSequential) list->AddElems(total);
  run.outputs = total;
  return run;
}

}  // namespace amac
