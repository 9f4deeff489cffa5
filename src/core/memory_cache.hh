/**
 * @file
 * A concurrent-safe, size-capped, LRU-evicting in-memory cache.
 *
 * Each PipelineService keeps both on-disk caches (tuned parameters,
 * reference measurements) behind one of these (core/cache_layer): a
 * hit costs a mutex acquisition and a list splice instead of a file
 * open + parse, and the capacity cap bounds the footprint no matter
 * how many scenario cells pass through one service. Hit/miss/eviction
 * counters are maintained under the same lock and read through
 * PipelineService::referenceCacheStats() / tunerCacheStats().
 *
 * All operations are linearizable (one mutex); values are returned by
 * copy so a reader can never observe a concurrent eviction tearing
 * its entry. Capacity 0 disables the cache entirely: get() always
 * misses and put() is a no-op, which is also what a layer over a
 * disabled on-disk cache uses.
 */

#ifndef DMPB_CORE_MEMORY_CACHE_HH
#define DMPB_CORE_MEMORY_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/thread_annotations.hh"

namespace dmpb {

/** Counter snapshot of one in-memory cache layer. */
struct MemoryCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;   ///< current resident entry count
    std::uint64_t capacity = 0;  ///< configured cap (0 = disabled)
};

template <class Value>
class MemoryCache
{
  public:
    /** @p capacity entries at most; 0 disables the cache. */
    explicit MemoryCache(std::size_t capacity) : capacity_(capacity) {}

    MemoryCache(const MemoryCache &) = delete;
    MemoryCache &operator=(const MemoryCache &) = delete;

    /** Copy the cached value for @p key into @p out and mark it
     *  most-recently-used; false (counting a miss) when absent. */
    bool
    get(const std::string &key, Value &out) DMPB_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        out = it->second->second;
        ++hits_;
        return true;
    }

    /** Insert (or refresh) @p key, evicting least-recently-used
     *  entries beyond the capacity cap. */
    void
    put(const std::string &key, Value value) DMPB_EXCLUDES(mutex_)
    {
        if (capacity_ == 0)
            return;
        MutexLock lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        lru_.emplace_front(key, std::move(value));
        index_[key] = lru_.begin();
        evictOverflow();
    }

    MemoryCacheStats
    stats() const DMPB_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        MemoryCacheStats s;
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.entries = lru_.size();
        s.capacity = capacity_;
        return s;
    }

    std::size_t
    size() const DMPB_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return lru_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    using Entry = std::pair<std::string, Value>;

    /** Drop least-recently-used entries beyond the capacity cap. */
    void
    evictOverflow() DMPB_REQUIRES(mutex_)
    {
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
        }
    }

    const std::size_t capacity_;
    mutable AnnotatedMutex mutex_;
    /** front = most recently used */
    std::list<Entry> lru_ DMPB_GUARDED_BY(mutex_);
    /** Keyed lookups only -- never iterated, so its nondeterministic
     *  order can never leak into any observable result. */
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index_ DMPB_GUARDED_BY(mutex_);
    std::uint64_t hits_ DMPB_GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ DMPB_GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_ DMPB_GUARDED_BY(mutex_) = 0;
};

} // namespace dmpb

#endif // DMPB_CORE_MEMORY_CACHE_HH
