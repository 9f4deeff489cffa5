/**
 * @file
 * Concurrent-safe caching layers over the two on-disk pipeline
 * caches (core/proxy_cache, core/reference_cache), as PipelineService
 * uses them. Each layer looks a key up memory -> disk -> compute:
 *
 *  - an in-memory LRU layer (core/memory_cache) with a size cap and
 *    hit/miss/eviction counters, so a repeat lookup in one process
 *    never touches disk;
 *  - the on-disk cache, whose atomic publish (core/cache_file) keeps
 *    a file whole when several threads publish the same key.
 *
 * Concurrent cold misses on one key each compute it. That costs
 * duplicate work but never a different answer: every computation is
 * a pure function of its key, so every publisher writes the same
 * bytes.
 *
 * Results served through a layer are bit-identical to the plain
 * measureWithCache / tuneWithCache paths: a memory hit replays
 * exactly what a disk hit replays.
 */

#ifndef DMPB_CORE_CACHE_LAYER_HH
#define DMPB_CORE_CACHE_LAYER_HH

#include <string>
#include <utility>
#include <vector>

#include "core/auto_tuner.hh"
#include "core/memory_cache.hh"
#include "core/proxy_benchmark.hh"
#include "stack/cluster.hh"
#include "workloads/workload.hh"

namespace dmpb {

/** Reference-measurement cache with an in-memory layer. Thread-safe;
 *  an instance with an empty directory computes without caching. */
class ReferenceLayer
{
  public:
    ReferenceLayer(std::string dir, std::size_t mem_entries);

    bool enabled() const { return !dir_.empty(); }

    /**
     * measureWithCache() semantics behind the layered lookup
     * memory -> disk -> compute. @p from_cache (when non-null)
     * reports whether any cache level served the result.
     */
    WorkloadResult measure(const std::string &key,
                           const Workload &workload,
                           const ClusterConfig &cluster,
                           bool *from_cache = nullptr);

    MemoryCacheStats stats() const { return mem_.stats(); }

  private:
    struct CachedRef
    {
        double runtime_s = 0.0;
        MetricVector metrics;
    };

    std::string dir_;
    MemoryCache<CachedRef> mem_;
};

/** Tuned-parameter cache with an in-memory layer. Thread-safe; an
 *  instance with an empty directory tunes without caching. */
class TunerLayer
{
  public:
    TunerLayer(std::string dir, std::size_t mem_entries);

    bool enabled() const { return !dir_.empty(); }

    /**
     * tuneWithCache() semantics behind the layered lookup
     * memory -> disk -> full search. A hit at either level restores
     * the stored parameter vector into @p proxy and replays it
     * (core/proxy_cache replayTunedParams), so the report is
     * bit-identical whichever level serves. Interrupted unqualified
     * searches are cached at no level.
     */
    TunerReport tune(const std::string &key, ProxyBenchmark &proxy,
                     const MetricVector &target,
                     const MachineConfig &machine,
                     const TunerConfig &config);

    MemoryCacheStats stats() const { return mem_.stats(); }

  private:
    struct CachedParams
    {
        std::vector<std::pair<std::string, double>> params;
        bool qualified = false;
    };

    std::string dir_;
    MemoryCache<CachedParams> mem_;
};

} // namespace dmpb

#endif // DMPB_CORE_CACHE_LAYER_HH
