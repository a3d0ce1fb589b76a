// Chunked node pool: the overflow-node allocator behind the join's chained
// table and the group-by's aggregate table.
//
// Both tables link a fresh node into a chain whenever a bucket overflows,
// from every thread of a parallel build or aggregation.  A single shared
// bump counter would make every one of those allocations a write to the
// same cache line, and consecutive nodes would land on different threads'
// pages.  Instead a thread claims a contiguous chunk of nodes with one
// fetch_add and hands nodes out of it through a cursor that no other
// thread writes: each pool keeps one cursor per thread slot (ThisThreadSlot,
// a small index unique among live threads), each on its own cache line.
//
// Nodes are raw storage until handed out: Alloc() constructs the node it
// returns, so pool pages holding no handed-out node are never touched.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/aligned.h"
#include "common/macros.h"

namespace amac {

/// Thread slots with a private cursor in every NodePool.  A thread whose
/// slot is past the last one (more than this many threads alive at once)
/// claims single nodes from the shared counter instead.
inline constexpr uint32_t kNodePoolSlots = 64;

/// Holds the calling thread's slot; releases it when the thread exits.
struct ThreadSlotHolder {
  ThreadSlotHolder();
  ~ThreadSlotHolder();
  ThreadSlotHolder(const ThreadSlotHolder&) = delete;
  ThreadSlotHolder& operator=(const ThreadSlotHolder&) = delete;
  uint32_t slot;
};

/// A small index for the calling thread: unique among live threads,
/// assigned on first call and reused by a later thread once this one exits.
inline uint32_t ThisThreadSlot() {
  thread_local const ThreadSlotHolder holder;
  return holder.slot;
}

/// Fixed-capacity pool of `T` (trivially destructible), allocated from by
/// any number of threads at once.
///
/// Capacity: room for `nodes` allocations however the threads interleave.
/// A thread wastes at most the unused tail of the one chunk its cursor
/// holds, so the pool reserves that slack (kNodePoolSlots * (chunk - 1)
/// nodes) on top of `nodes`, and a claim takes a single node once fewer
/// than a chunk remain.  The chunk shrinks with the pool so the slack stays
/// within 1/64 of `nodes`: below 8192 nodes (a 4,096-group table, say) a
/// claim takes one node and the pool reserves no slack at all.
template <typename T>
class NodePool {
 public:
  /// Largest chunk: 64 nodes of a cache line each fill one 4 KiB page.
  static constexpr uint64_t kMaxChunkNodes = 64;

  explicit NodePool(uint64_t nodes)
      : chunk_(ChunkFor(nodes)),
        storage_(AlignedBuffer<T>::Uninitialized(
            nodes + kNodePoolSlots * (chunk_ - 1))),
        cursors_(kNodePoolSlots) {}

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Hand out one freshly constructed node; nullptr once the pool is
  /// exhausted (the caller aborts with its own message).
  T* Alloc() {
    const uint32_t slot = ThisThreadSlot();
    if (AMAC_UNLIKELY(slot >= kNodePoolSlots)) {
      const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
      return idx < storage_.size() ? storage_.ConstructAt(idx) : nullptr;
    }
    Cursor& cursor = cursors_[slot];
    uint64_t idx = cursor.next.load(std::memory_order_relaxed);
    if (AMAC_UNLIKELY(idx == cursor.end.load(std::memory_order_relaxed))) {
      if (!Refill(&cursor)) return nullptr;
      idx = cursor.next.load(std::memory_order_relaxed);
    }
    cursor.next.store(idx + 1, std::memory_order_relaxed);
    return storage_.ConstructAt(idx);
  }

  /// Nodes handed out since construction or the last Reset: the nodes
  /// claimed minus the unused tails still held by cursors.  Exact once
  /// no thread is allocating.
  uint64_t used() const {
    uint64_t used =
        std::min<uint64_t>(next_.load(std::memory_order_relaxed),
                           storage_.size());
    for (const Cursor& cursor : cursors_) {
      used -= cursor.end.load(std::memory_order_relaxed) -
              cursor.next.load(std::memory_order_relaxed);
    }
    return used;
  }

  /// Return every node to the pool and drop every cursor's chunk, so the
  /// next Alloc on any thread claims afresh from the start.  Must not run
  /// concurrently with Alloc.
  void Reset() {
    next_.store(0, std::memory_order_relaxed);
    for (Cursor& cursor : cursors_) {
      cursor.next.store(0, std::memory_order_relaxed);
      cursor.end.store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// One thread slot's chunk: [next, end) still to hand out.  Written only
  /// by the slot's thread; atomic so used() may read it from another.
  struct AMAC_CACHE_ALIGNED Cursor {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> end{0};
  };

  static uint64_t ChunkFor(uint64_t nodes) {
    return std::clamp<uint64_t>(nodes / (64 * uint64_t{kNodePoolSlots}), 1,
                                kMaxChunkNodes);
  }

  /// Point `cursor` at a newly claimed chunk (one node when fewer than a
  /// chunk remain); false when nothing remains.
  bool Refill(Cursor* cursor) {
    const uint64_t cap = storage_.size();
    const uint64_t seen = next_.load(std::memory_order_relaxed);
    const uint64_t want = seen < cap && cap - seen >= chunk_ ? chunk_ : 1;
    const uint64_t begin = next_.fetch_add(want, std::memory_order_relaxed);
    if (begin >= cap) return false;
    cursor->next.store(begin, std::memory_order_relaxed);
    cursor->end.store(std::min(begin + want, cap), std::memory_order_relaxed);
    return true;
  }

  const uint64_t chunk_;
  AlignedBuffer<T> storage_;
  AlignedBuffer<Cursor> cursors_;
  /// The shared claim counter, on a line of its own so claims do not
  /// invalidate the fields every Alloc reads.
  AMAC_CACHE_ALIGNED std::atomic<uint64_t> next_{0};
};

}  // namespace amac
