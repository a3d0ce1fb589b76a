#include "groupby/agg_table.h"

#include <algorithm>
#include <vector>

#include "common/prefetch.h"
#include "common/thread_pool.h"

namespace amac {

namespace {

/// Buckets ahead of the summary walk whose chain pointer is prefetched.
/// The bucket array streams in order (the hardware prefetcher covers it);
/// the overflow nodes it points at are scattered, so their misses are
/// issued this many buckets early.
constexpr uint64_t kSummaryPrefetchAhead = 8;

uint64_t GroupHash(const GroupNode& g) {
  uint64_t h = Mix64(static_cast<uint64_t>(g.key));
  h = Mix64(h ^ static_cast<uint64_t>(g.count));
  h = Mix64(h ^ static_cast<uint64_t>(g.sum));
  h = Mix64(h ^ static_cast<uint64_t>(g.min));
  h = Mix64(h ^ static_cast<uint64_t>(g.max));
  return Mix64(h ^ g.sumsq);
}

/// The summary walk over buckets [begin, end).  kChecksum = false skips
/// the per-group hashing, keeping CountGroups as cheap as a bare walk.
template <bool kChecksum>
GroupSummary SummarizeBuckets(const GroupNode* buckets, uint64_t begin,
                              uint64_t end) {
  GroupSummary summary;
  for (uint64_t i = begin; i < end; ++i) {
    if (i + kSummaryPrefetchAhead < end) {
      const GroupNode* ahead = buckets[i + kSummaryPrefetchAhead].next;
      if (ahead != nullptr) Prefetch(ahead);
    }
    for (const GroupNode* n = &buckets[i]; n != nullptr; n = n->next) {
      if (!n->used) continue;
      ++summary.groups;
      summary.rows += static_cast<uint64_t>(n->count);
      if constexpr (kChecksum) summary.checksum += GroupHash(*n);
    }
  }
  return summary;
}

}  // namespace

AggregateTable::AggregateTable(uint64_t expected_groups, Options options,
                               ThreadPool* init_pool)
    // Worst case: every group in an overflow node.
    : pool_(expected_groups + 1), hash_kind_(options.hash_kind) {
  AMAC_CHECK(expected_groups > 0);
  uint64_t nbuckets = NextPow2(static_cast<uint64_t>(
      static_cast<double>(expected_groups) / options.target_nodes_per_bucket +
      0.5));
  nbuckets = std::max<uint64_t>(nbuckets, 1);
  buckets_ = AlignedBuffer<GroupNode>::Uninitialized(nbuckets);
  ConstructAll(buckets_, init_pool);
  bucket_mask_ = nbuckets - 1;
}

GroupNode* AggregateTable::AllocNode() {
  GroupNode* node = pool_.Alloc();
  AMAC_CHECK_MSG(node != nullptr, "group node pool exhausted");
  return node;
}

void AggregateTable::Clear(ThreadPool* pool) {
  ConstructAll(buckets_, pool);
  pool_.Reset();
}

void AggregateTable::ForEachGroup(
    const std::function<void(const GroupNode&)>& fn) const {
  for (const GroupNode& head : buckets_) {
    for (const GroupNode* n = &head; n != nullptr; n = n->next) {
      if (n->used) fn(*n);
    }
  }
}

GroupSummary AggregateTable::Summarize(ThreadPool* pool) const {
  const uint64_t n = buckets_.size();
  if (pool == nullptr || pool->size() <= 1) {
    return SummarizeBuckets<true>(buckets_.data(), 0, n);
  }
  const uint32_t parts = pool->size();
  std::vector<GroupSummary> partial(parts);
  pool->Run([&](uint32_t tid) {
    const Range r = PartitionRange(n, parts, tid);
    partial[tid] = SummarizeBuckets<true>(buckets_.data(), r.begin, r.end);
  });
  GroupSummary total;
  for (const GroupSummary& s : partial) {
    total.groups += s.groups;
    total.rows += s.rows;
    total.checksum += s.checksum;
  }
  return total;
}

uint64_t AggregateTable::CountGroups() const {
  return SummarizeBuckets<false>(buckets_.data(), 0, buckets_.size()).groups;
}

uint64_t AggregateTable::Checksum() const { return Summarize().checksum; }

}  // namespace amac
