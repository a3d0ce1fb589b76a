// Aggregation hash table for the group-by operator.
//
// Paper §4: "we extend the hash table used in hash join with an additional
// aggregation field ... We aggregate the values with six aggregation
// functions (avg, count, min, max, sum and sum squared), which are applied
// upon a match in the hash table."
//
// One group per 64-byte node: the running state of all six aggregates
// (avg = sum/count is derived) plus the chain pointer.  The first node of
// each chain is clustered with the bucket header, like the join table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/aligned.h"
#include "common/hash.h"
#include "common/latch.h"
#include "common/macros.h"
#include "common/node_pool.h"
#include "relation/relation.h"

namespace amac {

class ThreadPool;

struct AMAC_CACHE_ALIGNED GroupNode {
  /// Key an unused node holds.  Default construction establishes the
  /// invariant and the table only hands out freshly constructed nodes
  /// (constructor, Clear(), AllocNode()); it lets the gathered group-by walk
  /// (vec_groupby.h) test membership with a key compare alone: a used node
  /// never stores the sentinel unless the caller aggregates the sentinel
  /// key itself, which the vectorized path detects per lane and routes
  /// through the exact scalar step.
  static constexpr int64_t kEmptyGroupKey =
      std::numeric_limits<int64_t>::min();

  Latch latch;        ///< bucket-level latch (meaningful on headers)
  uint8_t used = 0;   ///< 0 = empty header slot
  uint8_t pad[6] = {};
  int64_t key = kEmptyGroupKey;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  uint64_t sumsq = 0;
  GroupNode* next = nullptr;

  /// Fold one payload into all aggregates.
  void Accumulate(int64_t payload) {
    if (used && count > 0) {
      min = payload < min ? payload : min;
      max = payload > max ? payload : max;
    } else {
      min = max = payload;
    }
    ++count;
    sum += payload;
    sumsq += static_cast<uint64_t>(payload) * static_cast<uint64_t>(payload);
  }

  double Avg() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};
static_assert(sizeof(GroupNode) == kCacheLineSize);

/// What one finalize walk over an aggregate table yields.  Every field is
/// an order-independent sum, so a walk split over bucket ranges and merged
/// is bitwise-identical to the serial walk.
struct GroupSummary {
  uint64_t groups = 0;    ///< distinct groups stored
  uint64_t rows = 0;      ///< rows folded in (sum of the count aggregates)
  uint64_t checksum = 0;  ///< sum of per-group hashes of the full state
};

/// The group-node pool (common/node_pool.h) is raw storage sized for the
/// worst case (every group in an overflow node); each allocating thread
/// claims chunks of it and AllocNode constructs a node when it hands it
/// out, so unused pool pages are never touched.
class AggregateTable {
 public:
  struct Options {
    HashKind hash_kind = HashKind::kMurmur;
    /// Expected chain nodes per bucket for `expected_groups` distinct keys.
    double target_nodes_per_bucket = 1.0;
  };

  /// With `init_pool`, the bucket array is constructed on the pool's
  /// threads (ConstructAll in common/thread_pool.h), byte-identical to the
  /// serial construction; must not be called from inside a pool closure.
  AggregateTable(uint64_t expected_groups, Options options,
                 ThreadPool* init_pool = nullptr);

  uint64_t BucketIndex(int64_t key) const {
    return hash_kind_ == HashKind::kMurmur
               ? HashToBucket<HashKind::kMurmur>(static_cast<uint64_t>(key),
                                                 bucket_mask_)
               : HashToBucket<HashKind::kRadix>(static_cast<uint64_t>(key),
                                                bucket_mask_);
  }
  GroupNode* HeadForKey(int64_t key) { return &buckets_[BucketIndex(key)]; }

  /// Thread-safe allocation of an overflow node from the calling thread's
  /// pool chunk, freshly constructed: unused, unlatched, sentinel key,
  /// zeroed aggregates, no next.
  GroupNode* AllocNode();

  uint64_t num_buckets() const { return buckets_.size(); }
  GroupNode* buckets() { return buckets_.data(); }
  const GroupNode* buckets() const { return buckets_.data(); }
  uint64_t bucket_mask() const { return bucket_mask_; }
  HashKind hash_kind() const { return hash_kind_; }

  /// Reset to empty (keeps the allocations).  With `pool`, the bucket
  /// array is reconstructed on the pool's threads like the constructor's
  /// (pool->Run: not from inside a pool closure).
  void Clear(ThreadPool* pool = nullptr);

  /// Visit every group (headers + overflow chains) through a type-erased
  /// callback; for tests and reporting, not for per-query finalization.
  void ForEachGroup(const std::function<void(const GroupNode&)>& fn) const;

  /// The finalize pass: one walk over every chain yielding the group
  /// count, the rows folded in and the checksum together.  Every group-by
  /// query pays it after its aggregation phase, so it is on the query's
  /// critical path: with a `pool` of more than one thread the walk is
  /// split over bucket ranges on the pool (pool->Run: not from inside a
  /// pool closure); either way the chain pointer a few buckets ahead is
  /// prefetched, hiding the overflow-node misses.
  GroupSummary Summarize(ThreadPool* pool = nullptr) const;

  /// Number of distinct groups currently stored.  A serial Summarize walk
  /// that skips the per-group hashing.
  uint64_t CountGroups() const;

  /// Order-independent checksum over the full aggregate state of every
  /// group; engines that compute the same aggregation agree on this value.
  /// Summarize().checksum.
  uint64_t Checksum() const;

 private:
  AlignedBuffer<GroupNode> buckets_;
  NodePool<GroupNode> pool_;
  uint64_t bucket_mask_ = 0;
  HashKind hash_kind_;
};

}  // namespace amac
