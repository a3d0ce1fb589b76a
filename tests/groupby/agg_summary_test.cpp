// AggregateTable::Summarize: the one finalize walk (group count, rows,
// checksum), serial and split over bucket ranges on a ThreadPool, against
// a per-group serial oracle — plus the thin CountGroups / Checksum views
// of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "groupby/groupby.h"
#include "relation/relation.h"

namespace amac {
namespace {

/// The oracle: visit every group one by one and fold the summary fields
/// with the checksum's per-group hash written out independently.
GroupSummary SerialOracle(const AggregateTable& table) {
  GroupSummary s;
  table.ForEachGroup([&](const GroupNode& g) {
    ++s.groups;
    s.rows += static_cast<uint64_t>(g.count);
    uint64_t h = Mix64(static_cast<uint64_t>(g.key));
    h = Mix64(h ^ static_cast<uint64_t>(g.count));
    h = Mix64(h ^ static_cast<uint64_t>(g.sum));
    h = Mix64(h ^ static_cast<uint64_t>(g.min));
    h = Mix64(h ^ static_cast<uint64_t>(g.max));
    h = Mix64(h ^ g.sumsq);
    s.checksum += h;
  });
  return s;
}

void Aggregate(const Relation& input, AggregateTable* table) {
  Executor exec(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{8, 1, 0}, 1, 0});
  AggregatePhase(exec, input, table);
}

/// Summaries on no pool and on pools of 1, 2 and 4 threads all equal the
/// oracle, and so do the single-field views.
void ExpectSummariesMatchOracle(const AggregateTable& table,
                                const std::string& label) {
  const GroupSummary want = SerialOracle(table);
  const GroupSummary serial = table.Summarize();
  EXPECT_EQ(serial.groups, want.groups) << label;
  EXPECT_EQ(serial.rows, want.rows) << label;
  EXPECT_EQ(serial.checksum, want.checksum) << label;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const GroupSummary got = table.Summarize(&pool);
    const std::string at = label + " threads=" + std::to_string(threads);
    EXPECT_EQ(got.groups, want.groups) << at;
    EXPECT_EQ(got.rows, want.rows) << at;
    EXPECT_EQ(got.checksum, want.checksum) << at;
  }
  EXPECT_EQ(table.CountGroups(), want.groups) << label;
  EXPECT_EQ(table.Checksum(), want.checksum) << label;
}

TEST(AggSummaryTest, EmptyTable) {
  const AggregateTable table(1024, AggregateTable::Options{});
  ExpectSummariesMatchOracle(table, "empty");
  const GroupSummary s = table.Summarize();
  EXPECT_EQ(s.groups, 0u);
  EXPECT_EQ(s.rows, 0u);
  EXPECT_EQ(s.checksum, 0u);
}

TEST(AggSummaryTest, SingleLongChain) {
  // Radix hashing of multiples of the bucket count: every group lands in
  // bucket 0, one chain of 500 nodes, 499 of them from the node pool.
  AggregateTable::Options options;
  options.hash_kind = HashKind::kRadix;
  AggregateTable table(512, options);
  const int64_t stride = static_cast<int64_t>(table.num_buckets());
  Relation input(1500);
  for (uint64_t i = 0; i < input.size(); ++i) {
    input[i] = Tuple{static_cast<int64_t>(i % 500) * stride,
                     static_cast<int64_t>(i)};
  }
  Aggregate(input, &table);
  uint64_t chain = 0;
  for (const GroupNode* n = &table.buckets()[0]; n != nullptr; n = n->next) {
    ++chain;
  }
  ASSERT_EQ(chain, 500u);
  ExpectSummariesMatchOracle(table, "one chain");
  EXPECT_EQ(table.Summarize().rows, input.size());
}

TEST(AggSummaryTest, GroupKeyedBySentinel) {
  // A real group whose key equals the unused-node sentinel still counts:
  // the walk tests `used`, not the key.
  Relation input(6);
  for (uint64_t i = 0; i < input.size(); ++i) {
    const int64_t key = i % 2 == 0 ? GroupNode::kEmptyGroupKey : 42;
    input[i] = Tuple{key, static_cast<int64_t>(i + 1)};
  }
  AggregateTable table(64, AggregateTable::Options{});
  Aggregate(input, &table);
  ExpectSummariesMatchOracle(table, "sentinel group");
  EXPECT_EQ(table.Summarize().groups, 2u);
  EXPECT_EQ(table.Summarize().rows, 6u);
}

TEST(AggSummaryTest, RandomKeys) {
  constexpr uint64_t kRows = 1u << 16;
  Relation input(kRows);
  Rng rng(91);
  for (uint64_t i = 0; i < kRows; ++i) {
    // ~2^15 distinct keys: repeats, and chains past the header.  Signed
    // 24-bit payloads keep every group's sum in range.
    input[i] = Tuple{static_cast<int64_t>(rng.Next() & 0x7fff),
                     static_cast<int64_t>(rng.Next() & 0xffffff) - (1 << 23)};
  }
  AggregateTable table(1u << 15, AggregateTable::Options{});
  Aggregate(input, &table);
  ExpectSummariesMatchOracle(table, "random");
  EXPECT_EQ(table.Summarize().rows, kRows);
}

}  // namespace
}  // namespace amac
