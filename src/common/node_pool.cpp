#include "common/node_pool.h"

#include <mutex>
#include <vector>

namespace amac {

namespace {

/// Slots released by exited threads, and the next never-used slot.  A
/// thread takes a slot once, on its first allocation, so a mutex suffices.
struct SlotRegistry {
  std::mutex mu;
  std::vector<uint32_t> free;
  uint32_t next = 0;
};

SlotRegistry& Registry() {
  // Leaked: threads may release their slots during static destruction.
  static auto* registry = new SlotRegistry();
  return *registry;
}

}  // namespace

ThreadSlotHolder::ThreadSlotHolder() {
  SlotRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.free.empty()) {
    slot = r.next++;
  } else {
    slot = r.free.back();
    r.free.pop_back();
  }
}

ThreadSlotHolder::~ThreadSlotHolder() {
  SlotRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.free.push_back(slot);
}

}  // namespace amac
