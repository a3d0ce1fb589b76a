// Concurrent chained hash table: latch-free epoch-protected readers,
// per-bucket latched writers, full insert/update/delete.
//
// This is the write-path sibling of ChainedHashTable.  It reuses the same
// 64-byte BucketNode (so the vectorized probe kernels in vec_probe.h work
// unchanged on its chains) but owns different invariants, tuned so that a
// reader never takes a latch:
//
//   * Slots are CLAIM-ONCE per node incarnation.  A tuple slot goes
//     sentinel -> key (insert, exactly once) -> sentinel (erase, at most
//     once) and is never re-claimed while the node is linked.  This is
//     what makes the latch-free reader exact: a slot's key only ever holds
//     one non-sentinel value, so the reader's key-then-payload load pair
//     can never stitch key A to payload B (the erase/reinsert ABA a
//     reuse-in-place scheme would allow).  `count` is the number of
//     ever-claimed slots (monotonic per incarnation), preserving the PR 6
//     slot-sentinel invariant — every slot at index >= count holds
//     kEmptySlotKey — plus its concurrent extension: erased slots below
//     count hold kEmptySlotKey too, so the vectorized gathers' two
//     unconditional key compares stay exact.
//   * Publication: a new overflow node is fully initialized before a
//     single release store links it at the chain tail; a claimed slot
//     stores its payload before the key's release store.  Readers walk
//     with acquire loads of key and next (x86: plain MOVs).
//   * Update-in-place only for an existing key's payload (one relaxed
//     atomic store; readers see old or new, both linearizable).
//   * Erase stores the sentinel into the key slot and bumps a per-bucket
//     tombstone count (header pad byte, writer-latch protected).  When it
//     crosses Options::compact_tombstones the bucket is compacted: fully
//     dead overflow nodes (count == 2, both slots sentinel) are unlinked
//     and retired through the EpochManager; the grace period makes their
//     memory reusable by ANY future claim, which is why recycled nodes are
//     the one place slots are reused.  Header nodes are embedded in the
//     bucket array and cannot be unlinked, so fully-tombstoned header
//     slots stay dead — bounded waste of at most one node per bucket.
//
// Writers (insert/update/erase/compaction) serialize per bucket on the
// header's 1-byte latch, exactly the paper's §3.2 build discipline; the
// *Locked entry points expose TryAcquire-based stage machines
// (hashtable/concurrent_ops.h) so write lookups park on contention like
// every other AMAC operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/aligned.h"
#include "common/hash.h"
#include "common/latch.h"
#include "common/macros.h"
#include "epoch/epoch.h"
#include "hashtable/chained_table.h"
#include "relation/relation.h"

namespace amac {
namespace concurrent_detail {

// Concurrent-access helpers shared by the table and its stage machines
// (concurrent_ops.h).  Readers are latch-free, so every field a reader
// touches goes through atomic_ref: keys with acquire (pairs with the
// claim's release store, making the payload written before it visible),
// payloads relaxed (ordered by the key load or by publication), next with
// acquire (pairs with the tail-link release store).  Writer-side loads use
// relaxed — the bucket latch already orders writers.

inline int64_t LoadKeyAcquire(const Tuple& t) {
  return std::atomic_ref<const int64_t>(t.key).load(
      std::memory_order_acquire);
}
inline int64_t LoadKeyRelaxed(const Tuple& t) {
  return std::atomic_ref<const int64_t>(t.key).load(
      std::memory_order_relaxed);
}
inline int64_t LoadPayloadRelaxed(const Tuple& t) {
  return std::atomic_ref<const int64_t>(t.payload).load(
      std::memory_order_relaxed);
}
inline void StoreKeyRelease(Tuple& t, int64_t key) {
  std::atomic_ref<int64_t>(t.key).store(key, std::memory_order_release);
}
inline void StorePayloadRelaxed(Tuple& t, int64_t payload) {
  std::atomic_ref<int64_t>(t.payload).store(payload,
                                            std::memory_order_relaxed);
}
inline BucketNode* LoadNextAcquire(const BucketNode* node) {
  return std::atomic_ref<BucketNode* const>(node->next)
      .load(std::memory_order_acquire);
}
inline BucketNode* LoadNextRelaxed(const BucketNode* node) {
  return std::atomic_ref<BucketNode* const>(node->next)
      .load(std::memory_order_relaxed);
}
inline void StoreNextRelease(BucketNode* node, BucketNode* next) {
  std::atomic_ref<BucketNode*>(node->next).store(next,
                                                 std::memory_order_release);
}
// `count` (ever-claimed slots) is read by the non-TSan SIMD fallback with
// plain loads; writes go through atomic_ref so the TSan build, where that
// fallback is compiled out, sees only properly ordered accesses.
inline void StoreCountRelaxed(BucketNode* node, uint8_t count) {
  std::atomic_ref<uint8_t>(node->count).store(count,
                                              std::memory_order_relaxed);
}

}  // namespace concurrent_detail

class ConcurrentChainedTable {
 public:
  struct Options {
    /// Bucket count = NextPow2(expected_live / (2 * this)); 1.0 sizes the
    /// headers to hold the expected population without overflow.
    double target_tuples_per_slot = 1.0;
    HashKind hash_kind = HashKind::kMurmur;
    /// Nodes in the first overflow slab; 0 picks a default from
    /// expected_live.  Later slabs double.
    uint64_t initial_overflow_capacity = 0;
    /// Per-bucket erases tolerated before the bucket's chain is compacted
    /// (dead overflow nodes unlinked + epoch-retired).  0 disables
    /// compaction; dead nodes then persist until destruction.
    uint32_t compact_tombstones = 8;
  };

  /// `epochs` must outlive the table; the table must outlive every guard
  /// used against it, and the caller must drain (all guards released +
  /// epochs->ReclaimAll()) before destroying the table, or retirees whose
  /// deleters push into this table's free list would dangle.
  ConcurrentChainedTable(uint64_t expected_live, EpochManager* epochs)
      : ConcurrentChainedTable(expected_live, epochs, Options()) {}
  ConcurrentChainedTable(uint64_t expected_live, EpochManager* epochs,
                         Options options);
  ~ConcurrentChainedTable();

  ConcurrentChainedTable(const ConcurrentChainedTable&) = delete;
  ConcurrentChainedTable& operator=(const ConcurrentChainedTable&) = delete;

  // --- Write path (bucket latch held by caller: stage machines) ---------

  /// Insert `key` or overwrite its payload.  Caller holds `head`'s latch
  /// and a live guard (compaction may retire nodes).  True on insert,
  /// false on update.
  bool UpsertLocked(BucketNode* head, int64_t key, int64_t payload,
                    EpochGuard& guard);
  /// Remove `key`.  Caller holds `head`'s latch and a live guard.  True
  /// when the key was present.
  bool EraseLocked(BucketNode* head, int64_t key, EpochGuard& guard);

  // --- Write path (spinning convenience: preload, oracles, tests) -------

  bool Upsert(int64_t key, int64_t payload, EpochGuard& guard);
  bool Erase(int64_t key, EpochGuard& guard);

  // --- Read path --------------------------------------------------------

  /// Latch-free point lookup; caller must hold a pinned EpochGuard for the
  /// whole call.  True + payload when found.
  bool Find(int64_t key, int64_t* payload) const;

  // --- Geometry (mirrors ChainedHashTable for the probe kernels) --------

  uint64_t BucketIndex(int64_t key) const {
    return hash_kind_ == HashKind::kMurmur
               ? HashToBucket<HashKind::kMurmur>(static_cast<uint64_t>(key),
                                                 bucket_mask_)
               : HashToBucket<HashKind::kRadix>(static_cast<uint64_t>(key),
                                                bucket_mask_);
  }
  BucketNode* BucketForKey(int64_t key) {
    return &buckets_[BucketIndex(key)];
  }
  const BucketNode* BucketForKey(int64_t key) const {
    return &buckets_[BucketIndex(key)];
  }
  uint64_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_mask() const { return bucket_mask_; }
  HashKind hash_kind() const { return hash_kind_; }
  BucketNode* buckets() { return buckets_.data(); }
  const BucketNode* buckets() const { return buckets_.data(); }
  EpochManager* epochs() const { return epochs_; }

  // --- Accounting -------------------------------------------------------

  uint64_t live_keys() const {
    return live_keys_.load(std::memory_order_relaxed);
  }
  uint64_t allocated_nodes() const {
    return allocated_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t recycled_nodes() const {
    return recycled_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  uint64_t retired_nodes() const {
    return retired_nodes_.load(std::memory_order_relaxed);
  }

  /// Structural invariant check; requires quiescence (no concurrent
  /// writers, epoch drained is not required).  Verifies the slot-sentinel
  /// invariant, per-bucket key placement, global key uniqueness, and that
  /// live tuple count == live_keys().
  struct Audit {
    bool ok = false;
    uint64_t live_tuples = 0;
    uint64_t chain_nodes = 0;  ///< linked overflow nodes
    uint64_t dead_slots = 0;   ///< tombstoned claimed slots
    uint64_t max_chain = 0;    ///< longest chain in nodes, incl. header
  };
  Audit AuditQuiesced() const;

  /// Append every live (key, payload) to `out`; requires quiescence.
  void CollectLive(std::vector<Tuple>* out) const;

 private:
  /// Raw node storage: AllocNode constructs a node when it claims it, so
  /// growing to a new (doubled) slab under alloc_mu_ is an allocation, not
  /// a serial pass over the whole slab.
  struct Slab {
    explicit Slab(uint64_t capacity)
        : nodes(AlignedBuffer<BucketNode>::Uninitialized(capacity)),
          used(0) {}
    AlignedBuffer<BucketNode> nodes;
    std::atomic<uint64_t> used;
  };

  /// Free-list recycle deleter handed to EpochGuard::Retire.
  static void RecycleNode(void* obj, void* ctx);

  BucketNode* AllocNode();
  /// Construct a whole node (latch, count, pad, sentinel slots, next) in
  /// `mem`: a fresh slab slot or a recycled node past its grace period.
  static BucketNode* InitNode(void* mem);
  void CompactLocked(BucketNode* head, EpochGuard& guard);

  EpochManager* const epochs_;
  HashKind hash_kind_;
  uint32_t compact_tombstones_;
  uint64_t bucket_mask_ = 0;
  AlignedBuffer<BucketNode> buckets_;

  // Overflow node slabs: lock-free bump allocation off current_slab_, with
  // a mutex only on the grow path.  Nodes are never returned to slabs —
  // they recycle through free_ after their epoch grace period.
  std::mutex alloc_mu_;
  std::vector<std::unique_ptr<Slab>> slabs_;  ///< guarded by alloc_mu_
  std::atomic<Slab*> current_slab_{nullptr};

  std::mutex free_mu_;
  std::vector<BucketNode*> free_;  ///< guarded by free_mu_
  std::atomic<uint64_t> free_count_{0};

  std::atomic<uint64_t> live_keys_{0};
  std::atomic<uint64_t> allocated_nodes_{0};
  std::atomic<uint64_t> recycled_nodes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> retired_nodes_{0};
};

}  // namespace amac
