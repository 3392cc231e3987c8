// SliceArena tests: the carve_area bookkeeping-failure leak regression
// and the cold paths (oversize heap fallback, zero-byte slices, audit
// accounting across carve/evict churn) the data plane never exercises.
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "cache/slice_arena.h"

namespace bytecache {
namespace {

using cache::SliceArena;

// Regression: carve_area used to aligned_alloc the 2 MiB area FIRST and
// record it in areas_ second — so a throwing vector growth leaked the
// fresh area (~SliceArena frees only recorded areas).  The injected
// bookkeeping failure throws exactly in that window; the alloc/free
// balance across the arena's lifetime is the leak detector.
TEST(SliceArenaTest, BookkeepingFailureDoesNotLeakArea) {
  const std::uint64_t allocated_before =
      SliceArena::test_hooks.areas_allocated;
  const std::uint64_t freed_before = SliceArena::test_hooks.areas_freed;
  {
    SliceArena arena;
    SliceArena::test_hooks.fail_bookkeeping = 1;
    EXPECT_THROW((void)arena.alloc(1000), std::bad_alloc);
    SliceArena::test_hooks.fail_bookkeeping = 0;

    // The failed carve left no trace: nothing reserved, nothing live,
    // and the arena works fine on the next request.
    EXPECT_EQ(arena.bytes_reserved(), 0u);
    EXPECT_EQ(arena.live(), 0u);
    const SliceArena::Slice s = arena.alloc(1000);
    ASSERT_NE(s.data, nullptr);
    arena.free(s);
    arena.audit();
  }
  const SliceArena::TestHooks& after = SliceArena::test_hooks;
  EXPECT_EQ(after.areas_allocated - allocated_before,
            after.areas_freed - freed_before)
      << "an area obtained during a failed carve was never freed";
}

// A later carve (bookkeeping already sized by earlier carves) must obey
// the same ordering: inject the failure on the second carve of a class
// whose first area is exhausted.
TEST(SliceArenaTest, BookkeepingFailureOnLaterCarveDoesNotLeak) {
  const std::uint64_t allocated_before =
      SliceArena::test_hooks.areas_allocated;
  const std::uint64_t freed_before = SliceArena::test_hooks.areas_freed;
  {
    SliceArena arena;
    std::vector<SliceArena::Slice> held;
    const std::size_t per_area =
        SliceArena::kAreaBytes / SliceArena::kMaxSlice;
    for (std::size_t i = 0; i < per_area; ++i)
      held.push_back(arena.alloc(SliceArena::kMaxSlice));
    EXPECT_EQ(arena.bytes_reserved(), SliceArena::kAreaBytes);

    SliceArena::test_hooks.fail_bookkeeping = 1;
    EXPECT_THROW((void)arena.alloc(SliceArena::kMaxSlice), std::bad_alloc);
    SliceArena::test_hooks.fail_bookkeeping = 0;
    EXPECT_EQ(arena.bytes_reserved(), SliceArena::kAreaBytes);

    for (SliceArena::Slice s : held) arena.free(s);
    arena.audit();
  }
  const SliceArena::TestHooks& after = SliceArena::test_hooks;
  EXPECT_EQ(after.areas_allocated - allocated_before,
            after.areas_freed - freed_before);
}

TEST(SliceArenaTest, OversizeFallbackPairsAllocAndFree) {
  SliceArena arena;
  const SliceArena::Slice s = arena.alloc(SliceArena::kMaxSlice + 1);
  ASSERT_NE(s.data, nullptr);
  EXPECT_EQ(s.cls, SliceArena::kHeapClass);
  // Heap fallbacks are invisible to the arena's accounting: no area
  // reserved, no live slice (live() tracks freelist slices only).
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.live(), 0u);
  // The buffer really is usable at the requested size.
  std::memset(s.data, 0xAB, SliceArena::kMaxSlice + 1);
  arena.free(s);  // delete[] path: must pair with the new[] in alloc
  arena.audit();
}

TEST(SliceArenaTest, ZeroByteAllocIsNullSlice) {
  SliceArena arena;
  const SliceArena::Slice s = arena.alloc(0);
  EXPECT_EQ(s.data, nullptr);
  EXPECT_EQ(arena.live(), 0u);
  arena.free(s);  // null slices free harmlessly
  arena.free(SliceArena::Slice{});
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(SliceArenaTest, ClassBoundaries) {
  EXPECT_EQ(SliceArena::class_of(1), 0);
  EXPECT_EQ(SliceArena::class_of(SliceArena::kMinSlice), 0);
  EXPECT_EQ(SliceArena::class_of(SliceArena::kMinSlice + 1), 1);
  EXPECT_EQ(SliceArena::class_of(SliceArena::kMaxSlice),
            SliceArena::kClasses - 1);
  EXPECT_EQ(SliceArena::class_size(SliceArena::kClasses - 1),
            SliceArena::kMaxSlice);
}

// The store/evict churn pattern: interleaved allocs and frees across
// classes, exhausting one class's area so a second is carved, with the
// audit invariants (freelist containment, live+free == carved) checked
// at every phase boundary.
TEST(SliceArenaTest, AuditAccountsAcrossCarveAndChurn) {
  SliceArena arena;
  std::vector<SliceArena::Slice> held;

  const std::size_t per_area = SliceArena::kAreaBytes / SliceArena::kMaxSlice;
  for (std::size_t i = 0; i < per_area + 1; ++i)
    held.push_back(arena.alloc(SliceArena::kMaxSlice));
  EXPECT_EQ(arena.bytes_reserved(), 2 * SliceArena::kAreaBytes);
  EXPECT_EQ(arena.live(), per_area + 1);
  arena.audit();

  // Evict half, in allocation order.
  for (std::size_t i = 0; i < held.size(); i += 2) {
    arena.free(held[i]);
    held[i] = SliceArena::Slice{};
  }
  arena.audit();

  // Re-fill with a different class plus re-use of the freed 64 KiB
  // slices; no third area may appear.
  for (std::size_t i = 0; i < held.size(); i += 2)
    held[i] = arena.alloc(SliceArena::kMaxSlice);
  for (int i = 0; i < 100; ++i) held.push_back(arena.alloc(300));
  EXPECT_EQ(arena.bytes_reserved(), 3 * SliceArena::kAreaBytes);
  arena.audit();

  for (SliceArena::Slice s : held) arena.free(s);
  EXPECT_EQ(arena.live(), 0u);
  arena.audit();
}

}  // namespace
}  // namespace bytecache
