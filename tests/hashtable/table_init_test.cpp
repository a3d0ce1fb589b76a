// Table set-up without serial passes: bucket arrays constructed on a
// ThreadPool are byte-identical to serial construction; node pools are raw
// storage whose nodes are constructed when handed out, so every node
// satisfies the slot / used / latch invariants even on recycled heap
// memory; and ConcurrentChainedTable's raw slabs grow under concurrent
// inserts without losing or duplicating a key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "epoch/epoch.h"
#include "groupby/agg_table.h"
#include "hashtable/chained_table.h"
#include "hashtable/concurrent_table.h"

namespace amac {
namespace {

/// Free a block of `bytes` filled with 0xA5, so the next heap allocation
/// of that size most likely reuses dirty memory.  Pools below glibc's
/// malloc mmap threshold (128 KiB) and AlignedAlloc's (4 MiB) come from
/// the heap, where memory is not zero-filled.
void DirtyHeap(std::size_t bytes) {
  void* p = AlignedAlloc(bytes);
  std::memset(p, 0xA5, bytes);
  AlignedFree(p);
}

bool AllZero(const uint8_t* bytes, std::size_t n) {
  return std::all_of(bytes, bytes + n, [](uint8_t b) { return b == 0; });
}

// ------------------------------------------------------------ buckets --

TEST(TableInitTest, PoolBuiltChainedBucketsMatchSerialBytes) {
  // 1000 tuples: heap-backed buckets; 2^18: mmap-backed (8 MiB).
  for (const uint64_t tuples : {uint64_t{1000}, uint64_t{1} << 18}) {
    DirtyHeap(tuples / 2 * sizeof(BucketNode));
    const ChainedHashTable serial(tuples, ChainedHashTable::Options{});
    for (const uint32_t threads : {2u, 4u}) {
      ThreadPool pool(threads);
      DirtyHeap(tuples / 2 * sizeof(BucketNode));
      const ChainedHashTable parallel(tuples, ChainedHashTable::Options{},
                                      &pool);
      ASSERT_EQ(parallel.num_buckets(), serial.num_buckets());
      EXPECT_EQ(std::memcmp(parallel.buckets(), serial.buckets(),
                            serial.num_buckets() * sizeof(BucketNode)),
                0)
          << "tuples=" << tuples << " threads=" << threads;
    }
    for (uint64_t b = 0; b < serial.num_buckets(); ++b) {
      const BucketNode& node = serial.buckets()[b];
      ASSERT_EQ(node.count, 0u);
      ASSERT_EQ(node.tuples[0].key, BucketNode::kEmptySlotKey);
      ASSERT_EQ(node.tuples[1].key, BucketNode::kEmptySlotKey);
      ASSERT_EQ(node.next, nullptr);
    }
  }
}

TEST(TableInitTest, PoolBuiltAggregateBucketsMatchSerialBytes) {
  for (const uint64_t groups : {uint64_t{1000}, uint64_t{1} << 17}) {
    DirtyHeap(groups * sizeof(GroupNode));
    const AggregateTable serial(groups, AggregateTable::Options{});
    for (const uint32_t threads : {2u, 4u}) {
      ThreadPool pool(threads);
      DirtyHeap(groups * sizeof(GroupNode));
      const AggregateTable parallel(groups, AggregateTable::Options{}, &pool);
      ASSERT_EQ(parallel.num_buckets(), serial.num_buckets());
      EXPECT_EQ(std::memcmp(parallel.buckets(), serial.buckets(),
                            serial.num_buckets() * sizeof(GroupNode)),
                0)
          << "groups=" << groups << " threads=" << threads;
    }
    EXPECT_EQ(serial.Summarize().groups, 0u);
  }
}

// -------------------------------------------------------------- nodes --

void ExpectFreshBucketNode(const BucketNode& node, const std::string& at) {
  EXPECT_FALSE(node.latch.IsHeld()) << at;
  EXPECT_EQ(node.count, 0u) << at;
  EXPECT_TRUE(AllZero(node.pad, sizeof(node.pad))) << at;
  EXPECT_EQ(node.tuples[0], (Tuple{BucketNode::kEmptySlotKey, 0})) << at;
  EXPECT_EQ(node.tuples[1], (Tuple{BucketNode::kEmptySlotKey, 0})) << at;
  EXPECT_EQ(node.next, nullptr) << at;
}

TEST(PoolNodeInvariantTest, OverflowNodesAreConstructedOnAllocation) {
  constexpr uint64_t kTuples = 1024;  // pool: 514 nodes, 32 KiB
  DirtyHeap((kTuples / 2 + 2) * sizeof(BucketNode));
  ChainedHashTable table(kTuples, ChainedHashTable::Options{});
  for (int round = 0; round < 2; ++round) {
    std::vector<BucketNode*> nodes;
    for (uint64_t i = 0; i < kTuples / 2 + 2; ++i) {
      BucketNode* node = table.AllocOverflowNode();
      ExpectFreshBucketNode(*node, "round " + std::to_string(round) +
                                       " node " + std::to_string(i));
      nodes.push_back(node);
    }
    // Scribble over every node as a build would, then Clear: the next
    // round must hand them out fresh again.
    for (BucketNode* node : nodes) {
      ASSERT_TRUE(node->latch.TryAcquireUnsync());
      node->count = 2;
      node->pad[0] = 9;
      node->tuples[0] = Tuple{1, 2};
      node->tuples[1] = Tuple{3, 4};
      node->next = node;
    }
    table.Clear();
  }
}

TEST(PoolNodeInvariantTest, GroupNodesAreConstructedOnAllocation) {
  constexpr uint64_t kGroups = 512;  // pool: 513 nodes, 32 KiB
  DirtyHeap((kGroups + 1) * sizeof(GroupNode));
  AggregateTable table(kGroups, AggregateTable::Options{});
  for (int round = 0; round < 2; ++round) {
    std::vector<GroupNode*> nodes;
    for (uint64_t i = 0; i < kGroups + 1; ++i) {
      GroupNode* node = table.AllocNode();
      const std::string at =
          "round " + std::to_string(round) + " node " + std::to_string(i);
      EXPECT_FALSE(node->latch.IsHeld()) << at;
      EXPECT_EQ(node->used, 0u) << at;
      EXPECT_TRUE(AllZero(node->pad, sizeof(node->pad))) << at;
      EXPECT_EQ(node->key, GroupNode::kEmptyGroupKey) << at;
      EXPECT_EQ(node->count, 0) << at;
      EXPECT_EQ(node->sum, 0) << at;
      EXPECT_EQ(node->min, 0) << at;
      EXPECT_EQ(node->max, 0) << at;
      EXPECT_EQ(node->sumsq, 0u) << at;
      EXPECT_EQ(node->next, nullptr) << at;
      nodes.push_back(node);
    }
    for (GroupNode* node : nodes) {
      ASSERT_TRUE(node->latch.TryAcquireUnsync());
      node->used = 1;
      node->key = 5;
      node->Accumulate(7);
      node->next = node;
    }
    table.Clear();
  }
}

TEST(PoolNodeInvariantTest, ConcurrentTableNodesAreConstructedOnAllocation) {
  // A 64-node first slab (4 KiB, heap) doubling several times, plus
  // compaction recycling dead nodes through the free list: every linked
  // overflow node must carry a free latch, zero pad bytes and sentinels
  // in its unclaimed slots.
  DirtyHeap(64 * sizeof(BucketNode));
  DirtyHeap(128 * sizeof(BucketNode));
  EpochManager epochs;
  ConcurrentChainedTable::Options options;
  options.target_tuples_per_slot = 4.0;
  options.initial_overflow_capacity = 64;
  options.compact_tombstones = 4;
  {
    ConcurrentChainedTable table(2048, &epochs, options);
    {
      EpochGuard guard(&epochs);
      for (int64_t k = 1; k <= 2048; ++k) table.Upsert(k, k, guard);
      for (int64_t k = 1; k <= 2048; k += 3) table.Erase(k, guard);
    }
    epochs.ReclaimAll();
    {
      EpochGuard guard(&epochs);
      for (int64_t k = 3000; k < 3600; ++k) table.Upsert(k, -k, guard);
    }
    EXPECT_GT(table.allocated_nodes(), 64u);
    const auto audit = table.AuditQuiesced();
    EXPECT_TRUE(audit.ok);
    uint64_t checked = 0;
    for (uint64_t b = 0; b < table.num_buckets(); ++b) {
      const BucketNode* head = &table.buckets()[b];
      for (const BucketNode* n = head->next; n != nullptr; n = n->next) {
        ++checked;
        ASSERT_FALSE(n->latch.IsHeld());
        ASSERT_TRUE(AllZero(n->pad, sizeof(n->pad)));
        ASSERT_GE(n->count, 1u);
        for (uint32_t i = n->count; i < BucketNode::kTuplesPerNode; ++i) {
          ASSERT_EQ(n->tuples[i].key, BucketNode::kEmptySlotKey);
        }
      }
    }
    EXPECT_EQ(checked, audit.chain_nodes);
    epochs.ReclaimAll();
  }
}

// -------------------------------------------------------- slab growth --

TEST(SlabGrowthTest, ConcurrentInsertsAcrossDoublingMatchSequentialReplay) {
  constexpr int kThreads = 4;
  constexpr int64_t kStripe = 2048;
  ConcurrentChainedTable::Options options;
  options.target_tuples_per_slot = 4.0;    // ~3 overflow nodes per bucket
  options.initial_overflow_capacity = 8;   // ~8 doublings during the run
  options.compact_tombstones = 0;
  // Each thread owns a stripe: inserts it, then overwrites every third
  // key, so the final state is independent of the interleaving.
  auto work = [](ConcurrentChainedTable* table, EpochManager* epochs,
                 int t) {
    EpochGuard guard(epochs);
    const int64_t base = 1 + t * kStripe;
    for (int64_t k = base; k < base + kStripe; ++k) {
      table->Upsert(k, k * 2, guard);
    }
    for (int64_t k = base; k < base + kStripe; k += 3) {
      table->Upsert(k, k * 5, guard);
    }
  };
  EpochManager epochs;
  ConcurrentChainedTable table(kThreads * kStripe, &epochs, options);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(work, &table, &epochs, t);
  }
  for (std::thread& t : threads) t.join();

  EpochManager replay_epochs;
  ConcurrentChainedTable replay(kThreads * kStripe, &replay_epochs, options);
  for (int t = 0; t < kThreads; ++t) work(&replay, &replay_epochs, t);

  EXPECT_GT(table.allocated_nodes(), 8u * 64);  // grew through many slabs
  const auto audit = table.AuditQuiesced();
  EXPECT_TRUE(audit.ok);
  EXPECT_TRUE(replay.AuditQuiesced().ok);
  EXPECT_EQ(table.live_keys(), static_cast<uint64_t>(kThreads) * kStripe);
  auto sorted_live = [](const ConcurrentChainedTable& t) {
    std::vector<Tuple> live;
    t.CollectLive(&live);
    std::sort(live.begin(), live.end(), [](const Tuple& a, const Tuple& b) {
      return a.key < b.key;
    });
    return live;
  };
  EXPECT_EQ(sorted_live(table), sorted_live(replay));
  epochs.ReclaimAll();
  replay_epochs.ReclaimAll();
}

}  // namespace
}  // namespace amac
