// Table set-up without serial passes: bucket arrays constructed on a
// ThreadPool are byte-identical to serial construction; node pools are raw
// storage whose nodes are constructed when handed out, so every node
// satisfies the slot / used / latch invariants even on recycled heap
// memory, from any number of allocating threads; the chunked node pools
// (common/node_pool.h) never run out on the demand they are sized for,
// drop every thread's chunk on Clear, keep tables apart and count exactly
// the nodes handed out; and ConcurrentChainedTable's raw slabs grow under
// concurrent inserts without losing or duplicating a key.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "join/hash_join.h"
#include "relation/relation.h"

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

/// Hand out `total` nodes through `alloc` from every thread of `pool`
/// (threads race for the demand, so they end on partial chunks), checking
/// each with `check` on the thread that got it.  Returns every node.
template <typename Node, typename Alloc, typename Check>
std::vector<Node*> AllocAcrossThreads(ThreadPool& pool, uint64_t total,
                                      Alloc alloc, Check check) {
  std::vector<std::vector<Node*>> per_thread(pool.size());
  std::atomic<uint64_t> demand{0};
  pool.Run([&](uint32_t tid) {
    while (demand.fetch_add(1, std::memory_order_relaxed) < total) {
      Node* node = alloc();
      check(*node);
      per_thread[tid].push_back(node);
    }
  });
  std::vector<Node*> nodes;
  for (const auto& mine : per_thread) {
    nodes.insert(nodes.end(), mine.begin(), mine.end());
  }
  return nodes;
}

template <typename Node>
bool AllDistinct(std::vector<Node*> nodes) {
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

// Each table at two sizes: a ~500-node pool claimed one node at a time,
// and a ~32K-node pool (2 MiB, still heap) claimed in chunks.
constexpr uint64_t kPoolTupleCounts[] = {1024, uint64_t{1} << 16};
constexpr uint64_t kPoolGroupCounts[] = {512, uint64_t{1} << 15};

TEST(PoolNodeInvariantTest, OverflowNodesAreConstructedOnAllocation) {
  for (const uint64_t tuples : kPoolTupleCounts) {
    const uint64_t nodes = tuples / 2 + 2;  // the pool's worst-case demand
    for (const uint32_t threads : {1u, 2u, 4u}) {
      const std::string at = "tuples=" + std::to_string(tuples) +
                             " threads=" + std::to_string(threads);
      ThreadPool pool(threads);
      DirtyHeap(nodes * sizeof(BucketNode));
      DirtyHeap(nodes * sizeof(BucketNode));
      ChainedHashTable table(tuples, ChainedHashTable::Options{});
      for (int round = 0; round < 2; ++round) {
        const std::vector<BucketNode*> got = AllocAcrossThreads<BucketNode>(
            pool, nodes, [&] { return table.AllocOverflowNode(); },
            [&](const BucketNode& node) {
              ExpectFreshBucketNode(node, at + " round " +
                                              std::to_string(round));
            });
        ASSERT_EQ(got.size(), nodes) << at;
        EXPECT_TRUE(AllDistinct(got)) << at;
        EXPECT_EQ(table.overflow_nodes_used(), nodes) << at;
        // Scribble over every node as a build would, then Clear: the next
        // round must hand them out fresh again.
        for (BucketNode* node : got) {
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
  }
}

TEST(PoolNodeInvariantTest, GroupNodesAreConstructedOnAllocation) {
  for (const uint64_t groups : kPoolGroupCounts) {
    const uint64_t nodes = groups + 1;  // the pool's worst-case demand
    for (const uint32_t threads : {1u, 2u, 4u}) {
      const std::string at = "groups=" + std::to_string(groups) +
                             " threads=" + std::to_string(threads);
      ThreadPool pool(threads);
      DirtyHeap(nodes * sizeof(GroupNode));
      DirtyHeap(nodes * sizeof(GroupNode));
      AggregateTable table(groups, AggregateTable::Options{});
      for (int round = 0; round < 2; ++round) {
        const std::vector<GroupNode*> got = AllocAcrossThreads<GroupNode>(
            pool, nodes, [&] { return table.AllocNode(); },
            [&](const GroupNode& node) {
              EXPECT_FALSE(node.latch.IsHeld()) << at;
              EXPECT_EQ(node.used, 0u) << at;
              EXPECT_TRUE(AllZero(node.pad, sizeof(node.pad))) << at;
              EXPECT_EQ(node.key, GroupNode::kEmptyGroupKey) << at;
              EXPECT_EQ(node.count, 0) << at;
              EXPECT_EQ(node.sum, 0) << at;
              EXPECT_EQ(node.min, 0) << at;
              EXPECT_EQ(node.max, 0) << at;
              EXPECT_EQ(node.sumsq, 0u) << at;
              EXPECT_EQ(node.next, nullptr) << at;
            });
        ASSERT_EQ(got.size(), nodes) << at;
        EXPECT_TRUE(AllDistinct(got)) << at;
        for (GroupNode* node : got) {
          ASSERT_TRUE(node->latch.TryAcquireUnsync());
          node->used = 1;
          node->key = 5;
          node->Accumulate(7);
          node->next = node;
        }
        table.Clear();
      }
    }
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

// ----------------------------------------------------- chunked pools --

TEST(ChunkedPoolTest, WorstCaseDemandNeverExhaustsEitherPool) {
  // Threads race for exactly the demand each pool is sized for, so every
  // thread ends on a partial chunk: the slack must absorb all of them.
  constexpr uint64_t kKeys = uint64_t{1} << 18;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ChainedHashTable join(kKeys, ChainedHashTable::Options{});
    const auto spills = AllocAcrossThreads<BucketNode>(
        pool, kKeys / 2 + 2, [&] { return join.AllocOverflowNode(); },
        [](const BucketNode&) {});
    EXPECT_TRUE(AllDistinct(spills)) << "threads=" << threads;
    EXPECT_EQ(join.overflow_nodes_used(), kKeys / 2 + 2);
    AggregateTable groups(kKeys, AggregateTable::Options{});
    const auto nodes = AllocAcrossThreads<GroupNode>(
        pool, kKeys + 1, [&] { return groups.AllocNode(); },
        [](const GroupNode&) {});
    EXPECT_TRUE(AllDistinct(nodes)) << "threads=" << threads;
  }
}

TEST(ChunkedPoolTest, SingleBucketBuildNeverExhaustsPool) {
  // Every tuple in one chain: the header keeps two, and each further pair
  // evicts into an overflow node, from whichever thread inserts it.
  constexpr uint64_t kTuples = uint64_t{1} << 18;
  Relation rel(kTuples);
  for (uint64_t i = 0; i < kTuples; ++i) {
    rel[i] = Tuple{7, static_cast<int64_t>(i)};
  }
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ChainedHashTable table(kTuples, ChainedHashTable::Options{});
    BuildTableParallel(rel, threads, &table);
    const ChainStats stats = table.ComputeStats();
    EXPECT_EQ(stats.total_tuples, kTuples) << "threads=" << threads;
    EXPECT_EQ(stats.used_buckets, 1u);
    EXPECT_EQ(table.overflow_nodes_used(), kTuples / 2 - 1);
    EXPECT_EQ(table.overflow_nodes_used(), stats.total_nodes - 1);
  }
}

/// Hand out `per_thread` nodes on every thread of `pool`; returns the
/// lowest node, which is the pool's first.
template <typename Node, typename Alloc>
Node* FirstOfRound(ThreadPool& pool, uint64_t per_thread, Alloc alloc) {
  const uint64_t total = per_thread * pool.size();
  std::vector<Node*> nodes(total);
  pool.Run([&](uint32_t tid) {
    for (uint64_t i = 0; i < per_thread; ++i) {
      nodes[tid * per_thread + i] = alloc();
    }
  });
  return *std::min_element(nodes.begin(), nodes.end());
}

/// Run `alloc` once on thread `tid` of `pool`.
template <typename Node, typename Alloc>
Node* AllocOn(ThreadPool& pool, uint32_t tid, Alloc alloc) {
  Node* node = nullptr;
  pool.Run([&](uint32_t t) {
    if (t == tid) node = alloc();
  });
  return node;
}

TEST(ChunkedPoolTest, ClearDropsEveryThreadsChunk) {
  // After Clear, a thread that still held part of a chunk must claim
  // afresh: its next node is the pool's first, not the rest of its chunk.
  constexpr uint64_t kKeys = uint64_t{1} << 16;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ChainedHashTable join(kKeys, ChainedHashTable::Options{});
    AggregateTable groups(kKeys, AggregateTable::Options{});
    auto spill = [&] { return join.AllocOverflowNode(); };
    auto group = [&] { return groups.AllocNode(); };
    BucketNode* const join_first = FirstOfRound<BucketNode>(pool, 3, spill);
    GroupNode* const group_first = FirstOfRound<GroupNode>(pool, 3, group);
    for (uint32_t tid = 0; tid < threads; ++tid) {
      join.Clear();
      EXPECT_EQ(join.overflow_nodes_used(), 0u);
      EXPECT_EQ(AllocOn<BucketNode>(pool, tid, spill), join_first)
          << "threads=" << threads << " tid=" << tid;
      EXPECT_EQ(join.overflow_nodes_used(), 1u);
      groups.Clear(tid % 2 == 0 ? &pool : nullptr);
      EXPECT_EQ(AllocOn<GroupNode>(pool, tid, group), group_first)
          << "threads=" << threads << " tid=" << tid;
      // Leave every thread with a partial chunk again.
      FirstOfRound<BucketNode>(pool, 3, spill);
      FirstOfRound<GroupNode>(pool, 3, group);
    }
  }
}

TEST(ChunkedPoolTest, TableAtAReusedAddressStartsFromItsOwnPool) {
  constexpr uint64_t kKeys = uint64_t{1} << 16;
  ThreadPool pool(4);
  alignas(ChainedHashTable) unsigned char storage[sizeof(ChainedHashTable)];
  for (int round = 0; round < 3; ++round) {
    auto* table =
        new (storage) ChainedHashTable(kKeys, ChainedHashTable::Options{});
    EXPECT_EQ(table->overflow_nodes_used(), 0u);
    const auto nodes = AllocAcrossThreads<BucketNode>(
        pool, 100, [&] { return table->AllocOverflowNode(); },
        [&](const BucketNode& node) { ExpectFreshBucketNode(node, "reuse"); });
    EXPECT_TRUE(AllDistinct(nodes));
    EXPECT_EQ(table->overflow_nodes_used(), 100u) << "round " << round;
    table->~ChainedHashTable();
  }
}

TEST(ChunkedPoolTest, AlternatingTablesNeverShareNodes) {
  constexpr uint64_t kKeys = uint64_t{1} << 16;
  constexpr uint64_t kPerThread = 1000;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ChainedHashTable join_a(kKeys, ChainedHashTable::Options{});
    ChainedHashTable join_b(kKeys, ChainedHashTable::Options{});
    AggregateTable groups_a(kKeys, AggregateTable::Options{});
    AggregateTable groups_b(kKeys, AggregateTable::Options{});
    std::vector<std::vector<void*>> a(threads), b(threads);
    pool.Run([&](uint32_t tid) {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        a[tid].push_back(join_a.AllocOverflowNode());
        a[tid].push_back(groups_a.AllocNode());
        b[tid].push_back(join_b.AllocOverflowNode());
        b[tid].push_back(groups_b.AllocNode());
      }
    });
    std::vector<void*> all;
    for (uint32_t t = 0; t < threads; ++t) {
      all.insert(all.end(), a[t].begin(), a[t].end());
      all.insert(all.end(), b[t].begin(), b[t].end());
    }
    EXPECT_EQ(all.size(), 4 * kPerThread * threads);
    EXPECT_TRUE(AllDistinct(all)) << "threads=" << threads;
    EXPECT_EQ(join_a.overflow_nodes_used(), kPerThread * threads);
    EXPECT_EQ(join_b.overflow_nodes_used(), kPerThread * threads);
  }
}

/// Overflow nodes linked into the chains: every chain node but the
/// header of a used bucket.
uint64_t LinkedOverflowNodes(const ChainedHashTable& table) {
  const ChainStats stats = table.ComputeStats();
  return stats.total_nodes - stats.used_buckets;
}

TEST(ChunkedPoolTest, OverflowCountMatchesChainWalk) {
  // overflow_nodes_used() counts nodes handed out, not nodes claimed into
  // threads' chunks, so the space it reports is exact.
  const Relation rel = MakeZipfRelation(1 << 16, 1 << 14, 0.5, 91);
  for (const uint32_t threads : {1u, 2u, 4u}) {
    ChainedHashTable latched(rel.size(), ChainedHashTable::Options{});
    BuildTableParallel(rel, threads, &latched);
    EXPECT_GT(latched.overflow_nodes_used(), 0u);
    EXPECT_EQ(latched.overflow_nodes_used(), LinkedOverflowNodes(latched))
        << "InsertSync threads=" << threads;
    for (const PlanBuildMode mode :
         {PlanBuildMode::kChained, PlanBuildMode::kPartitioned}) {
      Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{8, 1, 0},
                               threads, 0});
      ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
      BuildPhase(exec, rel, &table, mode);
      EXPECT_EQ(table.overflow_nodes_used(), LinkedOverflowNodes(table))
          << PlanBuildModeName(mode) << " threads=" << threads;
    }
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
