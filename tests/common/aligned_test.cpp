#include "common/aligned.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"

namespace amac {
namespace {

TEST(AlignedAllocTest, ReturnsAlignedPointers) {
  for (std::size_t alignment : {64ul, 128ul, 4096ul}) {
    void* p = AlignedAlloc(1000, alignment);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignment, 0u);
    AlignedFree(p);
  }
}

TEST(AlignedAllocTest, ZeroBytesStillValid) {
  void* p = AlignedAlloc(0);
  EXPECT_NE(p, nullptr);
  AlignedFree(p);
}

TEST(AlignedBufferTest, SizeAndIndexing) {
  AlignedBuffer<uint64_t> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_FALSE(buf.empty());
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i * i;
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], i * i);
}

TEST(AlignedBufferTest, DefaultIsEmpty) {
  AlignedBuffer<int> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(AlignedBufferTest, DataIsCacheLineAligned) {
  AlignedBuffer<char> buf(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineSize, 0u);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  int* raw = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);

  AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), raw);
  EXPECT_EQ(c[3], 42);
}

TEST(AlignedBufferTest, ZeroFillClears) {
  AlignedBuffer<uint32_t> buf(64);
  for (auto& v : buf) v = 0xffffffffu;
  buf.ZeroFill();
  for (const auto& v : buf) EXPECT_EQ(v, 0u);
}

struct Counted {
  static int live;
  Counted() { ++live; }
  ~Counted() { --live; }
};
int Counted::live = 0;

TEST(AlignedBufferTest, ConstructsAndDestroysNonTrivialElements) {
  {
    AlignedBuffer<Counted> buf(17);
    EXPECT_EQ(Counted::live, 17);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(AlignedBufferTest, RangeForIteration) {
  AlignedBuffer<int> buf(5);
  int v = 0;
  for (auto& x : buf) x = ++v;
  int sum = 0;
  for (const auto& x : buf) sum += x;
  EXPECT_EQ(sum, 15);
}

/// A cache-line element with default member initializers and no implicit
/// padding, so every byte of a constructed element is defined.
struct alignas(64) Line {
  int64_t value = 7;
  uint8_t rest[56] = {};
};

TEST(AlignedBufferTest, UninitializedConstructsOnlyOnDemand) {
  auto buf = AlignedBuffer<Line>::Uninitialized(8);
  ASSERT_EQ(buf.size(), 8u);
  // Dirty memory.
  std::memset(static_cast<void*>(buf.data()), 0xA5, 8 * sizeof(Line));
  const Line expect;
  Line* third = buf.ConstructAt(3);
  EXPECT_EQ(third, buf.data() + 3);
  EXPECT_EQ(std::memcmp(third, &expect, sizeof(Line)), 0);
  // Neighbours stay untouched until constructed.
  const auto* raw = reinterpret_cast<const uint8_t*>(buf.data() + 2);
  EXPECT_EQ(raw[0], 0xA5);
  EXPECT_EQ(raw[sizeof(Line) * 2], 0xA5);
  buf.ConstructRange(5, 8);
  for (std::size_t i = 5; i < 8; ++i) {
    EXPECT_EQ(std::memcmp(&buf[i], &expect, sizeof(Line)), 0) << i;
  }
}

TEST(AlignedBufferTest, ConstructAllOnPoolMatchesSerialBytes) {
  constexpr std::size_t kCount = 1000;
  auto serial = AlignedBuffer<Line>::Uninitialized(kCount);
  std::memset(static_cast<void*>(serial.data()), 0xA5,
              kCount * sizeof(Line));
  ConstructAll(serial, nullptr);
  for (const uint32_t threads : {1u, 3u, 4u}) {
    ThreadPool pool(threads);
    auto parallel = AlignedBuffer<Line>::Uninitialized(kCount);
    std::memset(static_cast<void*>(parallel.data()), 0x5A,
                kCount * sizeof(Line));
    ConstructAll(parallel, &pool);
    EXPECT_EQ(
        std::memcmp(parallel.data(), serial.data(), kCount * sizeof(Line)), 0)
        << threads;
  }
}

}  // namespace
}  // namespace amac
