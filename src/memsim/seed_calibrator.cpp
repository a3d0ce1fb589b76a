#include "memsim/seed_calibrator.h"

#include <algorithm>

#include "common/macros.h"

namespace amac::memsim {

std::vector<GridPoint> DefaultSeedGrid() {
  std::vector<GridPoint> grid;
  grid.push_back(GridPoint{ExecPolicy::kSequential, 1});
  for (const ExecPolicy policy :
       {ExecPolicy::kGroupPrefetch, ExecPolicy::kAmac}) {
    for (const uint32_t m : {4u, 10u, 16u, 32u}) {
      grid.push_back(GridPoint{policy, m});
    }
  }
  return grid;
}

SeedResult SeedCalibrator(const MachineConfig& machine,
                          const AccessTrace& trace,
                          const WorkloadSignature& signature,
                          Calibrator* calibrator,
                          const SeedOptions& options) {
  AMAC_CHECK(trace.lookups() > 0);
  const std::vector<GridPoint> grid =
      options.grid.empty() ? DefaultSeedGrid() : options.grid;
  const uint64_t lookups =
      options.lookups_per_thread > 0
          ? options.lookups_per_thread
          : std::min<uint64_t>(trace.lookups(), 8192);

  SeedResult out;
  out.table.reserve(grid.size());
  for (const GridPoint& point : grid) {
    SimConfig sim;
    sim.policy = point.policy;
    sim.inflight = point.inflight;
    sim.stages = options.stages;
    sim.num_threads = std::max(1u, options.num_threads);
    sim.lookups_per_thread = lookups;
    sim.trace = &trace;
    sim.prefetcher = options.prefetcher;
    SeedEntry entry;
    entry.point = point;
    entry.sim = Simulate(machine, sim);
    entry.cycles_per_input =
        entry.sim.CyclesPerLookup() * options.cycles_scale;
    out.table.push_back(std::move(entry));
  }
  // Stable: exactly tied points keep grid order, so the ranking is a
  // function of the simulated cycles alone.
  std::stable_sort(out.table.begin(), out.table.end(),
                   [](const SeedEntry& a, const SeedEntry& b) {
                     return a.cycles_per_input < b.cycles_per_input;
                   });
  out.winner = out.table.front().point;
  out.winner_cycles_per_input = out.table.front().cycles_per_input;

  if (calibrator != nullptr) {
    CalibrationResult result;
    result.winner = out.winner;
    result.winner_cycles_per_input = out.winner_cycles_per_input;
    // Best simulated half, best-first — the same shape a measured first
    // halving would bank, so exploration and re-tunes work identically.
    const size_t keep = (out.table.size() + 1) / 2;
    result.survivors.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      result.survivors.push_back(out.table[i].point);
    }
    result.from_sim = true;
    out.stored = calibrator->StoreSeed(signature, result);
  }
  return out;
}

}  // namespace amac::memsim
