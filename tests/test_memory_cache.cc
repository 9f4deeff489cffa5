/**
 * @file
 * Unit tests for core/memory_cache: LRU semantics, the capacity cap,
 * counter accounting, and a multi-threaded hammer that drives mixed
 * hit/miss/evict traffic through one instance -- the worst case a
 * PipelineService shared by many threads can put on its in-memory
 * cache layers (this file is part of the CI TSan job for that reason).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/memory_cache.hh"

namespace dmpb {
namespace {

TEST(MemoryCache, MissThenHit)
{
    MemoryCache<int> cache(4);
    int v = 0;
    EXPECT_FALSE(cache.get("a", v));
    cache.put("a", 41);
    ASSERT_TRUE(cache.get("a", v));
    EXPECT_EQ(v, 41);

    MemoryCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.capacity, 4u);
}

TEST(MemoryCache, EvictsLeastRecentlyUsed)
{
    MemoryCache<int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    int v = 0;
    ASSERT_TRUE(cache.get("a", v));  // touch: "b" is now the LRU
    cache.put("c", 3);               // evicts "b"

    EXPECT_TRUE(cache.get("a", v));
    EXPECT_FALSE(cache.get("b", v));
    EXPECT_TRUE(cache.get("c", v));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(MemoryCache, PutRefreshesExistingEntry)
{
    MemoryCache<int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("a", 10);  // refresh, not insert: nothing evicted
    int v = 0;
    ASSERT_TRUE(cache.get("a", v));
    EXPECT_EQ(v, 10);
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_EQ(cache.stats().evictions, 0u);
    // The refresh made "a" most-recent, so "b"... was already after
    // it; insert "c" and the refreshed recency decides the victim.
    cache.put("a", 11);
    cache.put("c", 3);
    EXPECT_FALSE(cache.get("b", v));
    EXPECT_TRUE(cache.get("a", v));
}

TEST(MemoryCache, CapacityZeroDisablesEverything)
{
    MemoryCache<int> cache(0);
    cache.put("a", 1);
    int v = 0;
    EXPECT_FALSE(cache.get("a", v));
    MemoryCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.capacity, 0u);
    EXPECT_EQ(s.hits, 0u);
}

/**
 * Mixed hit/miss/evict hammer: several threads share one small cache
 * and a key universe larger than its capacity, so gets hit, miss and
 * race against evictions continuously. Values encode their key, so a
 * torn entry (value served under the wrong key) is detectable.
 */
TEST(MemoryCache, ConcurrentHammerKeepsAccountsAndIntegrity)
{
    constexpr std::size_t kCapacity = 16;
    constexpr std::size_t kKeys = 64;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOpsPerThread = 20000;

    MemoryCache<std::uint64_t> cache(kCapacity);
    std::atomic<std::uint64_t> gets{0};
    std::atomic<bool> corrupt{false};

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Per-thread deterministic op stream (no shared RNG).
            std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
            for (std::size_t i = 0; i < kOpsPerThread; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Op choice and key draw from distant bit ranges:
                // xorshift's low bits correlate, and a put/get split
                // on bit 0 with a key on bits 0..5 would partition
                // the key space into never-hit halves.
                std::uint64_t key_id = (x >> 17) % kKeys;
                std::string key = "key-" + std::to_string(key_id);
                if ((x >> 41) & 1) {
                    cache.put(key, key_id * 1000003ULL);
                } else {
                    std::uint64_t v = 0;
                    gets.fetch_add(1, std::memory_order_relaxed);
                    if (cache.get(key, v) &&
                        v != key_id * 1000003ULL) {
                        corrupt.store(true,
                                      std::memory_order_relaxed);
                    }
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_FALSE(corrupt.load()) << "cache served a torn value";
    MemoryCacheStats s = cache.stats();
    // Every get was either a hit or a miss -- no op lost or double
    // counted under contention.
    EXPECT_EQ(s.hits + s.misses, gets.load());
    EXPECT_LE(s.entries, kCapacity);
    EXPECT_LE(cache.size(), kCapacity);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.misses, 0u);
    EXPECT_GT(s.evictions, 0u);
}

} // namespace
} // namespace dmpb
