#include "core/proxy_cache.hh"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "base/logging.hh"
#include "core/cache_file.hh"

namespace dmpb {

namespace {

/** Version-tagged header; the raw key follows so a filename-level
 *  collision can never smuggle one workload's P into another. */
constexpr std::string_view kHeaderMagic = "dmpb-params-v2:";

std::string
cachePath(const std::string &dir, const std::string &key)
{
    return cacheFilePath(dir, key, "params");
}

} // namespace

std::string
defaultCacheDir()
{
    return "dmpb-cache";
}

bool
saveProxyParams(const std::string &cache_dir, const std::string &key,
                const ProxyBenchmark &proxy, bool qualified)
{
    dmpb_assert(key.find('\n') == std::string::npos,
                "cache keys must be single-line");
    std::ostringstream out;
    out.precision(17);
    out << kHeaderMagic << key << "\n";
    out << "qualified=" << (qualified ? 1 : 0) << "\n";
    for (const TunableParam &p : proxy.parameters())
        out << p.name << "=" << p.value << "\n";
    // Atomic publish: concurrent cold misses sharing one cache
    // directory must never expose a torn file to a concurrent load.
    return writeCacheFileAtomic(cachePath(cache_dir, key), out.str());
}

bool
loadProxyParams(const std::string &cache_dir, const std::string &key,
                ProxyBenchmark &proxy, bool *qualified)
{
    const std::string path = cachePath(cache_dir, key);
    std::ifstream in(path);
    if (!in)
        return false;

    // Everything below runs on untrusted file content: any deviation
    // from the expected shape rejects (and deletes) the file rather
    // than throwing into the suite run.
    std::string line;
    if (!std::getline(in, line) ||
        line.compare(0, kHeaderMagic.size(), kHeaderMagic) != 0 ||
        line.substr(kHeaderMagic.size()) != key) {
        dropBadCacheFile(path);
        return false;
    }
    bool stored_qualified = false;
    if (!std::getline(in, line) ||
        line.rfind("qualified=", 0) != 0 ||
        (line != "qualified=0" && line != "qualified=1")) {
        dropBadCacheFile(path);
        return false;
    }
    stored_qualified = line == "qualified=1";

    // Collect expected names for validation.
    std::vector<std::string> expected;
    for (const TunableParam &p : proxy.parameters())
        expected.push_back(p.name);

    std::vector<std::pair<std::string, double>> loaded;
    while (std::getline(in, line)) {
        auto eq = line.find('=');
        double value = 0.0;
        if (eq == std::string::npos ||
            !parseCacheValue(std::string_view(line).substr(eq + 1),
                             value)) {
            dropBadCacheFile(path);
            return false;
        }
        loaded.emplace_back(line.substr(0, eq), value);
    }
    if (loaded.size() != expected.size()) {
        dropBadCacheFile(path);
        return false;
    }
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        if (loaded[i].first != expected[i]) {
            dropBadCacheFile(path);
            return false;
        }
    }
    for (const auto &[name, value] : loaded)
        proxy.setParameter(name, value);
    if (qualified != nullptr)
        *qualified = stored_qualified;
    return true;
}

TunerReport
replayTunedParams(ProxyBenchmark &proxy, const MetricVector &target,
                  const MachineConfig &machine,
                  const TunerConfig &config, bool stored_qualified)
{
    // Rebuild the report by re-executing with the restored P. One
    // proxy execution, sharded over simConfig().shards like any other
    // and not over the tuner's workers: spread over them, one proxy's
    // few, uneven edges make warm-hit latency follow the host's load.
    ProxyResult r = proxy.execute(machine, config.trace_cap);
    TunerReport report;
    report.from_cache = true;
    report.iterations = 0;
    report.evaluations = 1;
    report.metric_accuracy = accuracyVector(target, r.metrics);
    report.avg_accuracy = averageAccuracy(target, r.metrics);
    for (Metric m : accuracyMetricSet()) {
        report.max_deviation = std::max(
            report.max_deviation,
            metricDeviation(m, target[m], r.metrics[m]));
    }
    // A vector the tuner never qualified stays unqualified even
    // when served from cache; a qualified one is re-checked
    // against the (possibly different) current threshold.
    report.qualified = stored_qualified &&
                       report.max_deviation <= config.threshold;
    report.proxy_metrics = r.metrics;
    report.final_result = r;
    return report;
}

TunerReport
tuneWithCache(const std::string &cache_dir, const std::string &key,
              ProxyBenchmark &proxy, const MetricVector &target,
              const MachineConfig &machine, const TunerConfig &config)
{
    bool stored_qualified = false;
    if (loadProxyParams(cache_dir, key, proxy, &stored_qualified)) {
        return replayTunedParams(proxy, target, machine, config,
                                 stored_qualified);
    }
    AutoTuner tuner(target, config);
    TunerReport report = tuner.tune(proxy, machine);
    // A deadline-truncated, unqualified search is not cached: the
    // stored vector would short-circuit every future (possibly
    // unbounded) run at whatever the interrupted search had reached.
    // A full-budget search -- qualified or not -- is deterministic,
    // so caching it only skips an identical repeat.
    if (report.qualified || !report.interrupted)
        saveProxyParams(cache_dir, key, proxy, report.qualified);
    return report;
}

} // namespace dmpb
