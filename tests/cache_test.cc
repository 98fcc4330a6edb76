// Unit tests for the buffer cache: hit/miss accounting, LRU eviction, drain-on-reset.

#include <gtest/gtest.h>

#include "src/cache/buffer_cache.h"

namespace ss {
namespace {

class BufferCacheTest : public testing::Test {
 protected:
  BufferCacheTest()
      : disk_(DiskGeometry{.extent_count = 6, .pages_per_extent = 8, .page_size = 64}),
        scheduler_(&disk_),
        extents_(&disk_, &scheduler_),
        cache_(&extents_, /*capacity_pages=*/4) {
    extent_ = extents_.ClaimExtent(ExtentOwner::kChunkData).value();
  }

  void AppendPages(int n, uint8_t tag) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(extents_.Append(extent_, Bytes(64, tag), Dependency()).ok());
    }
  }

  uint64_t CacheCounter(std::string_view name) const {
    return cache_.metrics().Snapshot().counter(name);
  }

  InMemoryDisk disk_;
  IoScheduler scheduler_;
  ExtentManager extents_;
  BufferCache cache_;
  ExtentId extent_ = 0;
};

TEST_F(BufferCacheTest, MissThenHit) {
  AppendPages(1, 0x11);
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0x11);
  EXPECT_EQ(CacheCounter("cache.misses"), 1u);
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0x11);
  EXPECT_EQ(CacheCounter("cache.hits"), 1u);
  EXPECT_EQ(cache_.CachedPages(), 1u);
}

TEST_F(BufferCacheTest, MultiPageReadCachesEachPage) {
  AppendPages(3, 0x22);
  Bytes read = cache_.ReadPages(extent_, 0, 3).value();
  EXPECT_EQ(read.size(), 3u * 64u);
  EXPECT_EQ(cache_.CachedPages(), 3u);
}

TEST_F(BufferCacheTest, EvictionRespectsCapacity) {
  AppendPages(6, 0x33);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 6).ok());
  EXPECT_LE(cache_.CachedPages(), 4u);
  EXPECT_GE(CacheCounter("cache.evictions"), 2u);
}

TEST_F(BufferCacheTest, LruKeepsRecentlyUsed) {
  AppendPages(5, 0x44);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 4).ok());  // fill with 0..3
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 1).ok());  // touch page 0
  ASSERT_TRUE(cache_.ReadPages(extent_, 4, 1).ok());  // evicts LRU (page 1)
  const uint64_t hits_before = CacheCounter("cache.hits");
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 1).ok());  // page 0 still cached
  EXPECT_EQ(CacheCounter("cache.hits"), hits_before + 1);
}

TEST_F(BufferCacheTest, DrainExtentRemovesOnlyThatExtent) {
  const ExtentId other = extents_.ClaimExtent(ExtentOwner::kChunkData).value();
  AppendPages(2, 0x55);
  ASSERT_TRUE(extents_.Append(other, Bytes(64, 0x66), Dependency()).ok());
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 2).ok());
  ASSERT_TRUE(cache_.ReadPages(other, 0, 1).ok());
  cache_.DrainExtent(extent_);
  EXPECT_EQ(cache_.CachedPages(), 1u);
}

TEST_F(BufferCacheTest, ReadErrorIsNotCached) {
  AppendPages(1, 0x77);
  // Burst past the extent layer's retry budget so the error surfaces to the cache.
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailReadTimes(extent_, common::RetryOptions{}.max_attempts);
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).code(), StatusCode::kIoError);
  EXPECT_EQ(cache_.CachedPages(), 0u);
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0x77);
}

TEST_F(BufferCacheTest, AbsorbedBlipStillFillsCache) {
  AppendPages(1, 0x79);
  ScopedFault guard(disk_.fault_injector());
  disk_.fault_injector().FailReadOnce(extent_);
  // A single blip is retried away below the cache; the miss fills normally.
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0x79);
  EXPECT_EQ(cache_.CachedPages(), 1u);
  EXPECT_GE(extents_.metrics().Snapshot().counter("extent.retry.absorbed"), 1u);
}

// Regression: `invalidations` used to count drain *calls* (even no-op ones) rather
// than pages actually dropped, and Clear() counted nothing.
TEST_F(BufferCacheTest, DrainCountsPagesActuallyInvalidated) {
  const ExtentId untouched = extents_.ClaimExtent(ExtentOwner::kChunkData).value();
  AppendPages(2, 0x5a);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 2).ok());
  // Draining an extent with no cached pages is a no-op and counts nothing.
  cache_.DrainExtent(untouched);
  EXPECT_EQ(CacheCounter("cache.invalidated_pages"), 0u);
  // Draining the populated extent counts each dropped page.
  cache_.DrainExtent(extent_);
  EXPECT_EQ(CacheCounter("cache.invalidated_pages"), 2u);
}

TEST_F(BufferCacheTest, ClearCountsDroppedPages) {
  AppendPages(3, 0x5b);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 3).ok());
  cache_.Clear();
  EXPECT_EQ(CacheCounter("cache.invalidated_pages"), 3u);
  // An empty-cache Clear adds nothing.
  cache_.Clear();
  EXPECT_EQ(CacheCounter("cache.invalidated_pages"), 3u);
}

TEST_F(BufferCacheTest, ReadBeyondWritePointerPropagates) {
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).code(), StatusCode::kInvalidArgument);
}

TEST_F(BufferCacheTest, ClearEmptiesEverything) {
  AppendPages(2, 0x88);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 2).ok());
  cache_.Clear();
  EXPECT_EQ(cache_.CachedPages(), 0u);
}

TEST_F(BufferCacheTest, StaleDataServedWithoutDrain) {
  // The scenario behind seeded bug #2, demonstrated at cache level: cache a page,
  // reset + rewrite the extent, and observe the stale page on a cached read.
  AppendPages(1, 0x99);
  ASSERT_TRUE(cache_.ReadPages(extent_, 0, 1).ok());
  extents_.Reset(extent_, Dependency());
  ASSERT_TRUE(extents_.Append(extent_, Bytes(64, 0xab), Dependency()).ok());
  // Without DrainExtent, the cache still holds the pre-reset byte.
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0x99);
  // With the drain (what correct reclamation does) the fresh data is visible.
  cache_.DrainExtent(extent_);
  EXPECT_EQ(cache_.ReadPages(extent_, 0, 1).value()[0], 0xab);
}

}  // namespace
}  // namespace ss
