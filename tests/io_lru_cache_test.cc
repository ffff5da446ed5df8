#include "io/keyed_lru_cache.h"

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "gtest/gtest.h"

namespace hdidx::io {
namespace {

// --- KeyedLruCache as a page cache, the way bench_ablations' A5 replay
// drives it: an access is a Get, and a miss Puts the page. ---

using PageCache = KeyedLruCache<uint64_t, bool>;

/// One page access; true on a hit.
bool Access(PageCache* cache, uint64_t page) {
  if (cache->Get(page) != nullptr) return true;
  cache->Put(page, std::make_shared<const bool>(true));
  return false;
}

TEST(LruCacheTest, ColdAccessesMiss) {
  PageCache cache(4);
  EXPECT_FALSE(Access(&cache, 1));
  EXPECT_FALSE(Access(&cache, 2));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruCacheTest, RepeatAccessHits) {
  PageCache cache(4);
  Access(&cache, 7);
  EXPECT_TRUE(Access(&cache, 7));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);  // only the first access missed
}

TEST(LruCacheTest, SizeBoundedByCapacity) {
  PageCache cache(3);
  for (uint64_t p = 0; p < 100; ++p) Access(&cache, p);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 100u);
}

TEST(LruCacheTest, HitRateAndClear) {
  PageCache cache(8);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t p = 0; p < 8; ++p) Access(&cache, p);
  }
  // 8 cold misses, 24 hits.
  EXPECT_DOUBLE_EQ(cache.HitRate(), 24.0 / 32.0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.0);
}

TEST(LruCacheTest, ScanPatternThrashesSmallCache) {
  // Classic LRU pathology: a cyclic scan one page larger than the cache
  // never hits.
  PageCache cache(4);
  for (int round = 0; round < 10; ++round) {
    for (uint64_t p = 0; p < 5; ++p) Access(&cache, p);
  }
  EXPECT_EQ(cache.hits(), 0u);
  // Every miss after the first 4 evicted something.
  EXPECT_EQ(cache.evictions(), cache.misses() - 4);
}

// --- KeyedLruCache as the prediction service's cache of results and
// workloads. ---

using StringCache = KeyedLruCache<std::string, int>;

std::shared_ptr<const int> Value(int v) {
  return std::make_shared<const int>(v);
}

TEST(KeyedLruCacheTest, GetPutCountersAndHitRate) {
  StringCache cache(2);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", Value(1));
  const auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(KeyedLruCacheTest, EvictionOrderIsLruUnderRepeatedTouches) {
  StringCache cache(3);
  cache.Put("a", Value(1));
  cache.Put("b", Value(2));
  cache.Put("c", Value(3));
  // Touch pattern a, c, a: LRU order (stalest first) is now b, c, a.
  cache.Get("a");
  cache.Get("c");
  cache.Get("a");
  cache.Put("d", Value(4));  // evicts b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("c"), nullptr);
  // Recency (most recent first) is now c, d, a — so inserting evicts a.
  cache.Put("e", Value(5));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 3u);
  cache.Clear();
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(KeyedLruCacheTest, EvictedValueSurvivesThroughSharedPtr) {
  StringCache cache(1);
  cache.Put("a", Value(7));
  const auto held = cache.Get("a");
  cache.Put("b", Value(8));  // evicts "a" from the cache
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_NE(held, nullptr);  // but the caller's handle stays valid
  EXPECT_EQ(*held, 7);
}

TEST(KeyedLruCacheTest, PutRefreshesExistingKeyWithoutEviction) {
  StringCache cache(2);
  cache.Put("a", Value(1));
  cache.Put("b", Value(2));
  cache.Put("a", Value(3));  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.Get("a"), 3);
  cache.Put("c", Value(4));  // evicts b (a was refreshed more recently)
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
}

TEST(KeyedLruCacheTest, ZeroCapacityNeverStores) {
  StringCache cache(0);
  cache.Put("a", Value(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(KeyedLruCacheTest, TupleKeysWork) {
  // The service keys caches by (dataset, method, memory, ...) tuples.
  using Key = std::tuple<std::string, std::string, size_t, uint64_t>;
  KeyedLruCache<Key, double> cache(4);
  const Key k1{"d1", "resampled", 1000, 7};
  const Key k2{"d1", "resampled", 1000, 8};
  cache.Put(k1, std::make_shared<const double>(1.5));
  ASSERT_NE(cache.Get(k1), nullptr);
  EXPECT_EQ(cache.Get(k2), nullptr);
}

}  // namespace
}  // namespace hdidx::io
