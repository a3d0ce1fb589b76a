// SeedCalibrator tests: the simulated policy-grid ranking is sane and
// deterministic, seeded entries carry the from_sim mark and the current
// epoch, and the measured-over-simulated source-priority rule holds.
#include "memsim/seed_calibrator.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "adaptive/calibrator.h"
#include "adaptive/signature.h"
#include "memsim/cache/trace.h"

namespace amac::memsim {
namespace {

AccessTrace DramBoundTrace() {
  // Scattered chase across 256 MB: every walk is DRAM-bound, the regime
  // where the schedules separate.
  return PointerChaseAccessTrace(4000, 4, 256ull << 20, 21);
}

TEST(SeedGridTest, CoversScalarPoliciesOnly) {
  // Baseline once + GP/AMAC x 4 widths: the scalar policies the kAdaptive
  // grid searches.
  const auto grid = DefaultSeedGrid();
  ASSERT_EQ(grid.size(), 9u);
  uint32_t sequential = 0, gp = 0, amac = 0;
  for (const GridPoint& p : grid) {
    EXPECT_NE(p.policy, ExecPolicy::kSoftwarePipelined);
    EXPECT_NE(p.policy, ExecPolicy::kVectorized);
    EXPECT_NE(p.policy, ExecPolicy::kVectorizedAmac);
    EXPECT_NE(p.policy, ExecPolicy::kAdaptive);
    if (p.policy == ExecPolicy::kSequential) {
      ++sequential;
      EXPECT_EQ(p.inflight, 1u);  // baseline is definitionally M=1
    }
    if (p.policy == ExecPolicy::kGroupPrefetch) ++gp;
    if (p.policy == ExecPolicy::kAmac) ++amac;
  }
  EXPECT_EQ(sequential, 1u);
  EXPECT_EQ(gp, 4u);
  EXPECT_EQ(amac, 4u);
}

TEST(SeedCalibratorTest, RanksInterleavingAboveBaselineWhenDramBound) {
  const AccessTrace trace = DramBoundTrace();
  const WorkloadSignature sig =
      WorkloadSignature::Make("seed-test", trace.lookups(), 64);
  const SeedResult seed =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, nullptr);
  ASSERT_FALSE(seed.table.empty());
  // Ascending cycles-per-input.
  for (size_t i = 1; i < seed.table.size(); ++i) {
    EXPECT_LE(seed.table[i - 1].cycles_per_input,
              seed.table[i].cycles_per_input);
  }
  EXPECT_TRUE(seed.winner == seed.table.front().point);
  EXPECT_EQ(seed.winner_cycles_per_input,
            seed.table.front().cycles_per_input);
  // The paper's core claim, reproduced by the model: the sequential
  // baseline cannot win a DRAM-bound pointer-chase grid.
  EXPECT_NE(seed.winner.policy, ExecPolicy::kSequential);
  EXPECT_FALSE(seed.stored);  // no calibrator was given
}

TEST(SeedCalibratorTest, DeterministicRanking) {
  const AccessTrace trace = DramBoundTrace();
  const WorkloadSignature sig =
      WorkloadSignature::Make("seed-det", trace.lookups(), 64);
  const SeedResult a =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, nullptr);
  const SeedResult b =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, nullptr);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (size_t i = 0; i < a.table.size(); ++i) {
    EXPECT_TRUE(a.table[i].point == b.table[i].point) << i;
    EXPECT_EQ(a.table[i].cycles_per_input, b.table[i].cycles_per_input)
        << i;
  }
}

TEST(SeedCalibratorTest, SeedsEntryMarkedFromSim) {
  const AccessTrace trace = DramBoundTrace();
  const WorkloadSignature sig =
      WorkloadSignature::Make("seed-store", trace.lookups(), 64);
  Calibrator cal;
  const SeedResult seed =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, &cal);
  EXPECT_TRUE(seed.stored);
  EXPECT_EQ(cal.entries(), 1u);
  EXPECT_EQ(cal.seeded_entries(), 1u);
  const auto entry = cal.Lookup(sig, trace.lookups());
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->from_sim);
  EXPECT_TRUE(entry->winner == seed.winner);
  EXPECT_DOUBLE_EQ(entry->winner_cycles_per_input,
                   seed.winner_cycles_per_input);
  // Survivors: the better half of the grid, for later exploration.
  EXPECT_GE(entry->survivors.size(), 1u);
  EXPECT_LE(entry->survivors.size(), DefaultSeedGrid().size());
}

TEST(SeedCalibratorTest, CyclesScaleAppliesToStoredPrior) {
  const AccessTrace trace = DramBoundTrace();
  const WorkloadSignature sig =
      WorkloadSignature::Make("seed-scale", trace.lookups(), 64);
  SeedOptions options;
  const SeedResult plain =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, nullptr,
                     options);
  options.cycles_scale = 2.0;
  const SeedResult scaled =
      SeedCalibrator(MachineConfig::XeonX5670(), trace, sig, nullptr,
                     options);
  EXPECT_TRUE(scaled.winner == plain.winner);  // scale preserves ranking
  EXPECT_NEAR(scaled.winner_cycles_per_input,
              2.0 * plain.winner_cycles_per_input, 1e-9);
}

// ----------------------------------------------------- source priority --

TEST(SourcePriorityTest, SeedNeverShadowsFreshMeasurement) {
  Calibrator cal;
  const WorkloadSignature sig =
      WorkloadSignature::Make("priority", 4096, 8);
  CalibrationResult measured;
  measured.winner = GridPoint{ExecPolicy::kAmac, 10};
  measured.winner_cycles_per_input = 50;
  cal.Store(sig, measured);

  CalibrationResult sim;
  sim.winner = GridPoint{ExecPolicy::kGroupPrefetch, 4};
  sim.winner_cycles_per_input = 5;  // "better", but only simulated
  EXPECT_FALSE(cal.StoreSeed(sig, sim));
  EXPECT_EQ(cal.seed_refusals(), 1u);
  EXPECT_EQ(cal.seeded_entries(), 0u);
  const auto entry = cal.Lookup(sig);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->from_sim);
  EXPECT_EQ(entry->winner_cycles_per_input, 50.0);
}

TEST(SourcePriorityTest, MeasurementAlwaysOverwritesSeed) {
  Calibrator cal;
  const WorkloadSignature sig =
      WorkloadSignature::Make("priority2", 4096, 8);
  CalibrationResult sim;
  sim.winner_cycles_per_input = 5;
  EXPECT_TRUE(cal.StoreSeed(sig, sim));
  EXPECT_EQ(cal.seeded_entries(), 1u);

  CalibrationResult measured;
  measured.winner_cycles_per_input = 50;
  measured.from_sim = true;  // Store must clear it: measurement is truth
  cal.Store(sig, measured);
  EXPECT_EQ(cal.seeded_entries(), 0u);
  const auto entry = cal.Lookup(sig);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->from_sim);
  EXPECT_EQ(entry->winner_cycles_per_input, 50.0);
}

TEST(SourcePriorityTest, SeedReplacesSeedAndStaleMeasurement) {
  Calibrator cal;
  const WorkloadSignature sig =
      WorkloadSignature::Make("priority3", 4096, 8);
  CalibrationResult first;
  first.winner_cycles_per_input = 5;
  EXPECT_TRUE(cal.StoreSeed(sig, first));
  CalibrationResult second;
  second.winner_cycles_per_input = 7;
  EXPECT_TRUE(cal.StoreSeed(sig, second));  // sim may replace sim
  EXPECT_EQ(cal.Lookup(sig)->winner_cycles_per_input, 7.0);

  // A measured entry protects the key -- until the epoch turns.
  CalibrationResult measured;
  measured.winner_cycles_per_input = 50;
  cal.Store(sig, measured);
  EXPECT_FALSE(cal.StoreSeed(sig, first));
  cal.AdvanceEpoch();
  EXPECT_TRUE(cal.StoreSeed(sig, first));  // stale measurement: replaced
  const auto entry = cal.Lookup(sig);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->from_sim);
  EXPECT_EQ(entry->winner_cycles_per_input, 5.0);
}

}  // namespace
}  // namespace amac::memsim
