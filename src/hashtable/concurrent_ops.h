// Read/write stage machines over ConcurrentChainedTable for the unified
// runtime: every ExecPolicy (and the QueryScheduler above it) can serve
// point lookups, upserts, and deletes against a live, concurrently mutated
// table.
//
// Epoch discipline: each op instance owns one EpochGuard (ops are
// per-scheduler-slot / per-thread, never shared across threads
// concurrently).  The guard re-pins only when the op has ZERO in-flight
// lookups — i.e. at morsel boundaries — because an interleaved schedule
// (AMAC, vectorized-AMAC) parks lookups that hold raw node
// pointers across Steps; re-pinning while any lookup is parked would let
// the epoch advance past nodes those lookups still dereference.  The
// `inflight_` counter (Start/StartVec/RefillLane increment, retirement
// decrements) makes that boundary explicit for every schedule.
#pragma once

#include <cstdint>

#include "common/macros.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "core/engine.h"
#include "core/run_stats.h"
#include "epoch/epoch.h"
#include "hashtable/concurrent_table.h"
#if AMAC_SIMD_X86 && !AMAC_TSAN
#include "hashtable/vec_probe.h"
#endif

namespace amac {
namespace concurrent_detail {

/// A permanently empty node.  Lookups probing the reserved sentinel key
/// are pointed here instead of a real bucket: unclaimed slots hold the
/// sentinel, so a sentinel probe against a real chain would false-match.
/// Its slot keys are 0 (any non-sentinel value works — only sentinel
/// probes are ever routed here, and 0 != sentinel), so walking this node
/// yields no matches and terminates immediately under both the scalar
/// walk and the gather kernels.
struct NullBucketHolder {
  BucketNode node;
  NullBucketHolder() {
    static_assert(BucketNode::kEmptySlotKey != 0);
    node.count = 0;
    node.tuples[0] = Tuple{0, 0};
    node.tuples[1] = Tuple{0, 0};
    node.next = nullptr;
  }
};
inline const NullBucketHolder kNullBucketHolder;
inline const BucketNode& kNullBucket = kNullBucketHolder.node;

}  // namespace concurrent_detail

/// Latch-free point lookup against a live table.  Sink concept:
///   sink.Emit(rid, payload)  — key found
///   sink.Miss(rid)           — key absent (or the reserved sentinel)
/// Early-exit semantics always apply: the table holds at most one live
/// version of a key.
template <typename Sink>
class ConcurrentFindOp {
 public:
  struct State {
    const BucketNode* ptr;
    int64_t key;
    uint64_t rid;
  };

  ConcurrentFindOp(const ConcurrentChainedTable& table, const int64_t* keys,
                   Sink& sink)
      : table_(&table),
        keys_(keys),
        sink_(&sink),
        guard_(table.epochs()) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    st.key = keys_[idx];
    st.rid = idx;
    st.ptr = AMAC_UNLIKELY(st.key == BucketNode::kEmptySlotKey)
                 ? &concurrent_detail::kNullBucket
                 : table_->BucketForKey(st.key);
    Prefetch(st.ptr);
  }

  StepStatus Step(State& st) {
    const BucketNode* node = st.ptr;
    for (uint32_t i = 0; i < BucketNode::kTuplesPerNode; ++i) {
      if (concurrent_detail::LoadKeyAcquire(node->tuples[i]) == st.key) {
        sink_->Emit(st.rid,
                    concurrent_detail::LoadPayloadRelaxed(node->tuples[i]));
        --inflight_;
        return StepStatus::kDone;
      }
    }
    const BucketNode* next = concurrent_detail::LoadNextAcquire(node);
    if (next == nullptr) {
      sink_->Miss(st.rid);
      --inflight_;
      return StepStatus::kDone;
    }
    st.ptr = next;
    Prefetch(next);
    return StepStatus::kParked;
  }

#if AMAC_SIMD_X86 && !AMAC_TSAN
  // Vector interface, same shape as ProbeOp's (join/join_ops.h).  The
  // gather kernels issue plain vector loads over concurrently mutated
  // nodes: exact under x86-TSO with this table's invariants (a slot's key
  // holds one non-sentinel value per incarnation; unlinked nodes stay
  // intact through the epoch grace period) but formally a data race, so
  // the whole interface is compiled out under TSan — Run() then uses the
  // scalar schedule and counts vec_fallbacks, keeping the TSan CI leg
  // race-free without suppressions.
  static constexpr uint32_t kVecLanes = kSimdLanes;
  struct VecState {
    const BucketNode* ptr[kSimdLanes];
    int64_t key[kSimdLanes];
    uint64_t rid[kSimdLanes];
    uint32_t active;
    uint32_t matched;
  };

  void StartVec(VecState& st, uint64_t base_idx, uint32_t n) {
    AMAC_DCHECK(n >= 1 && n <= kSimdLanes);
    if (inflight_ == 0) guard_.Refresh();
    inflight_ += n;
    int64_t keys[kSimdLanes];
    for (uint32_t i = 0; i < n; ++i) keys[i] = keys_[base_idx + i];
    for (uint32_t i = n; i < kSimdLanes; ++i) keys[i] = keys[n - 1];
    uint64_t bucket[kSimdLanes];
    HashToBucket8(table_->hash_kind(), keys, table_->bucket_mask(), bucket);
    const BucketNode* buckets = table_->buckets();
    for (uint32_t i = 0; i < n; ++i) {
      st.key[i] = keys[i];
      st.rid[i] = base_idx + i;
      st.ptr[i] = AMAC_UNLIKELY(keys[i] == BucketNode::kEmptySlotKey)
                      ? &concurrent_detail::kNullBucket
                      : buckets + bucket[i];
      Prefetch(st.ptr[i]);
    }
    st.active = n == kSimdLanes ? 0xffu : (1u << n) - 1;
    st.matched = 0;
  }

  void RefillLane(VecState& st, uint32_t lane, uint64_t idx) {
    ++inflight_;
    st.key[lane] = keys_[idx];
    st.rid[lane] = idx;
    st.ptr[lane] =
        AMAC_UNLIKELY(st.key[lane] == BucketNode::kEmptySlotKey)
            ? &concurrent_detail::kNullBucket
            : table_->BucketForKey(st.key[lane]);
    Prefetch(st.ptr[lane]);
    st.active |= 1u << lane;
    st.matched &= ~(1u << lane);
  }

  uint32_t StepVec(VecState& st) {
    const uint32_t before = st.active;
    st.active = VecChainStep</*kEarlyExit=*/true>(
        st.ptr, st.key, st.active,
        [this, &st](uint32_t lane, int64_t payload) {
          st.matched |= 1u << lane;
          sink_->Emit(st.rid[lane], payload);
        },
        /*allow_simd=*/true);
    // Lanes that retired this step without a match ran off their chain.
    uint32_t missed = before & ~st.active & ~st.matched;
    inflight_ -= __builtin_popcount(before & ~st.active);
    while (missed != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(missed));
      missed &= missed - 1;
      sink_->Miss(st.rid[lane]);
    }
    return st.active;
  }
#endif  // AMAC_SIMD_X86 && !AMAC_TSAN

 private:
  const ConcurrentChainedTable* table_;
  const int64_t* keys_;
  Sink* sink_;
  EpochGuard guard_;
  uint64_t inflight_ = 0;
};

/// Insert-or-update write lookup: Start hashes + write-prefetches the
/// bucket header, the single Step try-acquires the bucket latch (kRetry
/// parks on contention, §3.2's coarse latch spin) and applies
/// UpsertLocked.  Per-op WriteStats are folded into RunStats by the
/// caller after the run.
class UpsertOp {
 public:
  struct State {
    BucketNode* head;
    int64_t key;
    int64_t payload;
  };

  UpsertOp(ConcurrentChainedTable& table, const int64_t* keys,
           const int64_t* payloads)
      : table_(&table),
        keys_(keys),
        payloads_(payloads),
        guard_(table.epochs()) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    st.key = keys_[idx];
    st.payload = payloads_[idx];
    st.head = table_->BucketForKey(st.key);
    PrefetchWrite(st.head);
  }

  StepStatus Step(State& st) {
    if (!st.head->latch.TryAcquire()) return StepStatus::kRetry;
    const bool inserted =
        table_->UpsertLocked(st.head, st.key, st.payload, guard_);
    st.head->latch.Release();
    if (inserted) {
      ++writes_.inserts;
    } else {
      ++writes_.updates;
    }
    --inflight_;
    return StepStatus::kDone;
  }

  const WriteStats& writes() const { return writes_; }

 private:
  ConcurrentChainedTable* table_;
  const int64_t* keys_;
  const int64_t* payloads_;
  EpochGuard guard_;
  WriteStats writes_;
  uint64_t inflight_ = 0;
};

/// Delete write lookup; same single-Step latch discipline as UpsertOp.
/// A missing key is a no-op (not counted in WriteStats.erases).
class EraseOp {
 public:
  struct State {
    BucketNode* head;
    int64_t key;
  };

  EraseOp(ConcurrentChainedTable& table, const int64_t* keys)
      : table_(&table), keys_(keys), guard_(table.epochs()) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    st.key = keys_[idx];
    st.head = table_->BucketForKey(st.key);
    PrefetchWrite(st.head);
  }

  StepStatus Step(State& st) {
    if (!st.head->latch.TryAcquire()) return StepStatus::kRetry;
    const bool erased = table_->EraseLocked(st.head, st.key, guard_);
    st.head->latch.Release();
    if (erased) ++writes_.erases;
    --inflight_;
    return StepStatus::kDone;
  }

  const WriteStats& writes() const { return writes_; }

 private:
  ConcurrentChainedTable* table_;
  const int64_t* keys_;
  EpochGuard guard_;
  WriteStats writes_;
  uint64_t inflight_ = 0;
};

}  // namespace amac
