// Hardware-model-in-the-loop calibration seeding.
//
// A cold Calibrator makes every new query shape pay measurement morsels
// (or the plan layer's measure-prefix fallback) before it runs well.  The
// hierarchy simulator already predicts cycles-per-lookup for every
// (policy, M) grid point from a real address trace — SeedCalibrator runs
// that grid offline and stores the ranking as PRE-SEEDED Calibrator
// entries, so the first real query of a shape starts on the simulator's
// winner instead of measuring from scratch.
//
// Seeded entries are priors, not truth:
//   * they are marked `from_sim` and stamped with the current staleness
//     epoch, so AdvanceEpoch ages them exactly like measured entries;
//   * Calibrator::StoreSeed refuses to shadow a fresh measured entry
//     (source priority: measured > simulated at equal staleness);
//   * the governor re-stores the entry as measured once real morsels have
//     been observed, and its drift/exploration machinery corrects a
//     mis-ranked prior the same way it corrects a stale measurement.
//
// The seeding grid is restricted to the scalar schedules the simulator
// models faithfully that the kAdaptive grid also searches (Baseline/GP/
// AMAC); the SIMD points' lane mechanics are below the model's stage
// granularity, so ranking them from simulated cycles would be noise
// presented as signal.
#pragma once

#include <vector>

#include "adaptive/calibrator.h"
#include "adaptive/signature.h"
#include "memsim/cache/trace.h"
#include "memsim/memsim.h"

namespace amac::memsim {

struct SeedOptions {
  /// Modeled thread count the prior should describe (calibration runs are
  /// per-thread-team, so 1 matches the governor's morsel measurements).
  uint32_t num_threads = 1;
  /// The paper's N (GP/SPP stage provisioning), passed to every sim.
  uint32_t stages = 4;
  /// Hardware prefetcher assumed present on the real machine.
  PrefetcherKind prefetcher = PrefetcherKind::kStride;
  /// Grid to rank; empty uses DefaultSeedGrid().
  std::vector<GridPoint> grid;
  /// Simulated-cycle -> stored cycles-per-input scale, for callers that
  /// calibrated the model clock against the real TSC; 1.0 stores model
  /// cycles (ranking-only priors).
  double cycles_scale = 1.0;
  /// Lookups simulated per thread; 0 derives from the trace (capped so
  /// seeding stays cheap).
  uint64_t lookups_per_thread = 0;
};

/// Baseline once plus GP and AMAC x in-flight widths {4, 10, 16, 32}: the
/// searched scalar policies, the simulator's fidelity domain.
std::vector<GridPoint> DefaultSeedGrid();

struct SeedEntry {
  GridPoint point;
  double cycles_per_input = 0;  ///< scaled, as stored
  SimResult sim;                ///< full per-point simulation result
};

struct SeedResult {
  GridPoint winner;
  double winner_cycles_per_input = 0;
  std::vector<SeedEntry> table;  ///< ascending cycles-per-input
  /// StoreSeed accepted the prior (false: a fresh measured entry already
  /// held the signature — source priority — or no calibrator was given).
  bool stored = false;
};

/// Simulate `trace` on `machine` for every grid point and seed
/// `calibrator` (nullable: rank only) under `signature`.
SeedResult SeedCalibrator(const MachineConfig& machine,
                          const AccessTrace& trace,
                          const WorkloadSignature& signature,
                          Calibrator* calibrator,
                          const SeedOptions& options = {});

}  // namespace amac::memsim
