/**
 * @file
 * Resolved cache configuration, shared by the CLI suite, co-location,
 * PipelineService and the tests.
 *
 * The `dmpb` flags --no-cache / --cache-dir / --ref-cache-dir used to
 * apply in command-line order, so `--cache-dir d --no-cache` and
 * `--no-cache --cache-dir d` meant different things. They now parse
 * into *observations* (was --no-cache given? which dirs were named
 * explicitly?) and resolve into one explicit CacheConfig after
 * parsing, with an order-independent rule:
 *
 *   1. An explicit directory flag always wins for its own cache:
 *      --cache-dir D  => tuned-parameter cache at D,
 *      --ref-cache-dir D => reference cache at D, regardless of any
 *      --no-cache anywhere on the command line.
 *   2. --no-cache disables every cache that was NOT explicitly
 *      pointed at a directory.
 *   3. Otherwise the tuned-parameter cache uses the default
 *      directory, and the reference cache rides along with wherever
 *      the tuned-parameter cache resolved to.
 */

#ifndef DMPB_CORE_CACHE_CONFIG_HH
#define DMPB_CORE_CACHE_CONFIG_HH

#include <cstddef>
#include <string>

namespace dmpb {

/** Where (and whether) the two pipeline caches live. */
struct CacheConfig
{
    /** Tuned-parameter cache directory; empty disables it. */
    std::string proxy_dir;
    /** Reference-measurement cache directory; empty disables it. */
    std::string ref_dir;
    /**
     * Entry cap of the in-memory layer fronting each enabled on-disk
     * cache (core/memory_cache): a service serves repeat lookups of a
     * key from memory and evicts LRU beyond this cap. 0 turns the
     * in-memory layer off (every lookup goes to disk). Irrelevant
     * when the corresponding directory is empty.
     */
    std::size_t mem_entries = kDefaultMemEntries;

    static constexpr std::size_t kDefaultMemEntries = 1024;

    bool proxyEnabled() const { return !proxy_dir.empty(); }
    bool refEnabled() const { return !ref_dir.empty(); }
};

/**
 * Resolve the flag observations into a CacheConfig per the rule
 * above. @p cache_dir / @p ref_cache_dir are the explicitly named
 * directories (empty = the flag was not given; naming an empty
 * string is not expressible from the CLI). @p default_dir is what
 * the tuned-parameter cache falls back to (defaultCacheDir() in the
 * CLI, empty in tests that want caching off).
 */
CacheConfig resolveCacheConfig(bool no_cache,
                               const std::string &cache_dir,
                               const std::string &ref_cache_dir,
                               const std::string &default_dir);

} // namespace dmpb

#endif // DMPB_CORE_CACHE_CONFIG_HH
