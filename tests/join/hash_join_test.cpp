// End-to-end hash join driver tests (Executor API, JoinResult results).
#include "join/hash_join.h"

#include <gtest/gtest.h>

namespace amac {
namespace {

Executor MakeExec(ExecPolicy policy, uint32_t inflight = 10,
                  uint32_t threads = 1, uint64_t morsel_size = 0) {
  return Executor(
      ExecConfig{policy, SchedulerParams{inflight, 1, 0}, threads,
                 morsel_size});
}

TEST(HashJoinTest, EqualSizedUniformJoinMatchesEveryProbe) {
  const uint64_t n = 1 << 13;
  const Relation r = MakeDenseUniqueRelation(n, 61);
  const Relation s = MakeForeignKeyRelation(n, n, 62);
  for (ExecPolicy policy : {ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined,
                        ExecPolicy::kAmac}) {
    Executor exec = MakeExec(policy);
    const JoinResult result = RunHashJoin(exec, r, s);
    EXPECT_EQ(result.matches(), n) << ExecPolicyName(policy);
    EXPECT_EQ(result.probe.inputs, n);
    EXPECT_EQ(result.build.inputs, n);
    EXPECT_GT(result.probe.cycles, 0u);
    EXPECT_GT(result.build.cycles, 0u);
  }
}

TEST(HashJoinTest, AllEnginesAgreeOnChecksum) {
  const uint64_t n = 1 << 13;
  const Relation r = MakeZipfRelation(n, n, 0.75, 63);
  const Relation s = MakeZipfRelation(n, n, 0.75, 64);
  const JoinOptions options{/*early_exit=*/false, 1.0, HashKind::kMurmur};
  Executor base_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult base = RunHashJoin(base_exec, r, s, options);
  for (ExecPolicy policy : {ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac}) {
    Executor exec = MakeExec(policy);
    const JoinResult result = RunHashJoin(exec, r, s, options);
    EXPECT_EQ(result.matches(), base.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(result.checksum(), base.checksum()) << ExecPolicyName(policy);
  }
}

TEST(HashJoinTest, SmallBuildLargeProbe) {
  const uint64_t small = 1 << 8, large = 1 << 14;
  const Relation r = MakeDenseUniqueRelation(small, 65);
  const Relation s = MakeForeignKeyRelation(large, small, 66);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const JoinResult result = RunHashJoin(exec, r, s);
  EXPECT_EQ(result.matches(), large);  // every probe hits one build key
}

TEST(HashJoinTest, MultiThreadedProbeMatchesSingle) {
  const uint64_t n = 1 << 14;
  const Relation r = MakeDenseUniqueRelation(n, 67);
  const Relation s = MakeForeignKeyRelation(n, n, 68);
  Executor single_exec = MakeExec(ExecPolicy::kAmac, 8);
  const JoinResult single = RunHashJoin(single_exec, r, s);
  Executor multi_exec = MakeExec(ExecPolicy::kAmac, 8, 4);
  const JoinResult multi = RunHashJoin(multi_exec, r, s);
  EXPECT_EQ(multi.matches(), single.matches());
  EXPECT_EQ(multi.checksum(), single.checksum());
}

TEST(HashJoinTest, StatsDeriveSaneRates) {
  const uint64_t n = 1 << 12;
  const Relation r = MakeDenseUniqueRelation(n, 69);
  const Relation s = MakeForeignKeyRelation(n, n, 70);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const JoinResult result = RunHashJoin(exec, r, s);
  EXPECT_GT(result.ProbeCyclesPerTuple(), 0.0);
  EXPECT_GT(result.BuildCyclesPerTuple(), 0.0);
  EXPECT_GT(result.CyclesPerOutputTuple(), 0.0);
  EXPECT_GT(result.ProbeThroughput(), 0.0);
}

TEST(HashJoinTest, DisjointKeysProduceNoMatches) {
  Relation r(100), s(100);
  for (uint64_t i = 0; i < 100; ++i) {
    r[i] = Tuple{static_cast<int64_t>(i + 1), 0};
    s[i] = Tuple{static_cast<int64_t>(i + 1000), 0};
  }
  for (ExecPolicy policy : {ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined,
                        ExecPolicy::kAmac}) {
    Executor exec = MakeExec(policy);
    const JoinResult result = RunHashJoin(exec, r, s);
    EXPECT_EQ(result.matches(), 0u) << ExecPolicyName(policy);
  }
}

TEST(HashJoinTest, PolicyNamesAreStable) {
  EXPECT_STREQ(ExecPolicyName(ExecPolicy::kSequential), "Sequential");
  EXPECT_STREQ(ExecPolicyName(ExecPolicy::kGroupPrefetch), "GP");
  EXPECT_STREQ(ExecPolicyName(ExecPolicy::kSoftwarePipelined), "SPP");
  EXPECT_STREQ(ExecPolicyName(ExecPolicy::kAmac), "AMAC");
}

// The bench tables render rates for degenerate workloads (empty probe, no
// matches); the accessors must return exactly 0 — never NaN or inf — so
// those tables and downstream scripts can rely on it.
TEST(JoinResultTest, RateAccessorsReturnZeroOnDefaultResult) {
  const JoinResult result;
  EXPECT_EQ(result.BuildCyclesPerTuple(), 0.0);
  EXPECT_EQ(result.ProbeCyclesPerTuple(), 0.0);
  EXPECT_EQ(result.CyclesPerOutputTuple(), 0.0);
  EXPECT_EQ(result.ProbeThroughput(), 0.0);
}

TEST(JoinResultTest, EmptyProbeRelationYieldsZeroRates) {
  const Relation r = MakeDenseUniqueRelation(256, 71);
  const Relation s(0);
  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 4u}) {
      Executor exec = MakeExec(policy, 10, threads);
      const JoinResult result = RunHashJoin(exec, r, s);
      EXPECT_EQ(result.matches(), 0u) << ExecPolicyName(policy);
      EXPECT_EQ(result.probe.inputs, 0u);
      EXPECT_EQ(result.ProbeCyclesPerTuple(), 0.0) << ExecPolicyName(policy);
      EXPECT_EQ(result.CyclesPerOutputTuple(), 0.0)
          << ExecPolicyName(policy);
    }
  }
}

TEST(JoinResultTest, EmptyBuildRelationYieldsZeroBuildRates) {
  const Relation r(0);
  const Relation s = MakeDenseUniqueRelation(256, 72);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const JoinResult result = RunHashJoin(exec, r, s);
  EXPECT_EQ(result.build.inputs, 0u);
  EXPECT_EQ(result.matches(), 0u);
  EXPECT_EQ(result.BuildCyclesPerTuple(), 0.0);
  EXPECT_EQ(result.CyclesPerOutputTuple(), 0.0);
}

TEST(JoinResultTest, ProbeThroughputGuardsZeroSeconds) {
  JoinResult result;
  result.probe.inputs = 100;
  result.probe.seconds = 0;  // degenerate timer reading
  EXPECT_EQ(result.ProbeThroughput(), 0.0);
  result.probe.seconds = 0.5;
  EXPECT_EQ(result.ProbeThroughput(), 200.0);
}

TEST(HashJoinTest, MorselDriverReportsClaimsOnParallelProbe) {
  const uint64_t n = 1 << 14;
  const Relation r = MakeDenseUniqueRelation(n, 73);
  const Relation s = MakeForeignKeyRelation(n, n, 74);
  Executor exec = MakeExec(ExecPolicy::kAmac, 10, 4, /*morsel_size=*/512);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  const RunStats build = BuildPhase(exec, r, &table);
  const RunStats probe = ProbePhase(exec, table, s, /*early_exit=*/true);
  EXPECT_EQ(probe.morsels, n / 512);
  EXPECT_EQ(probe.engine.lookups, n);
  EXPECT_GE(probe.engine.steps, n);
  EXPECT_EQ(build.engine.lookups, n);
}

}  // namespace
}  // namespace amac
