/**
 * @file
 * Tuned-parameter cache.
 *
 * Auto-tuning a proxy costs tens of proxy evaluations. The qualified
 * parameter vector, however, is a deterministic function of (workload,
 * cluster, tuner config), so bench binaries memoise it: the *search*
 * is persisted as a small key=value text file, while every metric a
 * bench reports is still recomputed by re-executing the proxy with the
 * cached parameters. Delete the cache directory to force a full
 * re-tune.
 *
 * File format (one file per key, named `<sanitized-key>-<fnv64>.params`
 * so distinct keys that sanitize identically -- "k-means" vs
 * "k_means" -- can never collide):
 *
 *   dmpb-params-v2:<raw key>      <- verified on load
 *   qualified=0|1                 <- did the tuner meet the gate?
 *   <name>=<value>                <- one line per tunable parameter
 *
 * Values parse with std::from_chars (locale-independent); any
 * malformed, truncated or foreign file fails the load *and is
 * deleted*, so a corrupt cache falls back to a fresh tune instead of
 * killing the run. Files written before this format existed never
 * match the new hashed filenames: they are silently orphaned (delete
 * the cache directory to clean them up) and the workload re-tunes
 * into a fresh v2 file.
 */

#ifndef DMPB_CORE_PROXY_CACHE_HH
#define DMPB_CORE_PROXY_CACHE_HH

#include <string>

#include "core/auto_tuner.hh"
#include "core/proxy_benchmark.hh"

namespace dmpb {

/** Persist the tuned parameter vector of @p proxy under @p key,
 *  recording whether the tuner met the deviation gate. */
bool saveProxyParams(const std::string &cache_dir,
                     const std::string &key,
                     const ProxyBenchmark &proxy,
                     bool qualified = true);

/** Restore a tuned parameter vector into @p proxy; false if absent,
 *  malformed or incompatible (the stored raw key and the parameter
 *  names must match exactly; bad files are deleted). On success,
 *  @p qualified (when non-null) receives the stored gate flag. */
bool loadProxyParams(const std::string &cache_dir,
                     const std::string &key, ProxyBenchmark &proxy,
                     bool *qualified = nullptr);

/**
 * Tune @p proxy toward @p target, memoised: on a cache hit the stored
 * parameters are re-applied and the proxy re-executed to rebuild the
 * report (TunerReport::from_cache is set, and a vector stored as
 * unqualified is never reported qualified); on a miss the full
 * decision-tree tuning runs and the result -- including the
 * qualification outcome -- is stored, unless the search was cut
 * short by should_stop without qualifying (caching that would
 * permanently short-circuit future, better-budgeted runs).
 */
TunerReport tuneWithCache(const std::string &cache_dir,
                          const std::string &key, ProxyBenchmark &proxy,
                          const MetricVector &target,
                          const MachineConfig &machine,
                          const TunerConfig &config = {});

/**
 * Rebuild a cache-hit TunerReport by re-executing @p proxy with the
 * parameter vector already applied to it (restored from the disk
 * cache or the in-memory layer) through ProxyBenchmark::execute(),
 * so its edges shard over the proxy's simConfig().shards.
 * `from_cache` is set; a vector stored unqualified stays
 * unqualified, a qualified one is re-checked against the current
 * threshold. Shared by tuneWithCache and core/cache_layer's
 * in-memory hit path so both produce bit-identical reports.
 */
TunerReport replayTunedParams(ProxyBenchmark &proxy,
                              const MetricVector &target,
                              const MachineConfig &machine,
                              const TunerConfig &config,
                              bool stored_qualified);

/** Default cache directory ("dmpb-cache" under the working dir). */
std::string defaultCacheDir();

} // namespace dmpb

#endif // DMPB_CORE_PROXY_CACHE_HH
