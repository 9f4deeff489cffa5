#include "core/cache_layer.hh"

#include "core/proxy_cache.hh"
#include "core/reference_cache.hh"

namespace dmpb {

ReferenceLayer::ReferenceLayer(std::string dir,
                               std::size_t mem_entries)
    : dir_(std::move(dir)), mem_(dir_.empty() ? 0 : mem_entries)
{}

WorkloadResult
ReferenceLayer::measure(const std::string &key,
                        const Workload &workload,
                        const ClusterConfig &cluster, bool *from_cache)
{
    WorkloadResult result;
    result.name = workload.name();
    if (!enabled()) {
        if (from_cache != nullptr)
            *from_cache = false;
        return workload.run(cluster);
    }

    CachedRef cached;
    if (mem_.get(key, cached)) {
        result.runtime_s = cached.runtime_s;
        result.metrics = cached.metrics;
        if (from_cache != nullptr)
            *from_cache = true;
        return result;
    }
    if (loadReference(dir_, key, result)) {
        mem_.put(key, CachedRef{result.runtime_s, result.metrics});
        if (from_cache != nullptr)
            *from_cache = true;
        return result;
    }

    result = workload.run(cluster);
    saveReference(dir_, key, result);
    mem_.put(key, CachedRef{result.runtime_s, result.metrics});
    if (from_cache != nullptr)
        *from_cache = false;
    return result;
}

TunerLayer::TunerLayer(std::string dir, std::size_t mem_entries)
    : dir_(std::move(dir)), mem_(dir_.empty() ? 0 : mem_entries)
{}

TunerReport
TunerLayer::tune(const std::string &key, ProxyBenchmark &proxy,
                 const MetricVector &target,
                 const MachineConfig &machine,
                 const TunerConfig &config)
{
    if (!enabled()) {
        AutoTuner tuner(target, config);
        return tuner.tune(proxy, machine);
    }

    CachedParams cached;
    if (mem_.get(key, cached)) {
        for (const auto &[name, value] : cached.params)
            proxy.setParameter(name, value);
        return replayTunedParams(proxy, target, machine, config,
                                 cached.qualified);
    }

    bool stored_qualified = false;
    if (loadProxyParams(dir_, key, proxy, &stored_qualified)) {
        CachedParams fresh;
        fresh.qualified = stored_qualified;
        for (const TunableParam &p : proxy.parameters())
            fresh.params.emplace_back(p.name, p.value);
        mem_.put(key, fresh);
        return replayTunedParams(proxy, target, machine, config,
                                 stored_qualified);
    }

    AutoTuner tuner(target, config);
    TunerReport report = tuner.tune(proxy, machine);
    // Same persistence rule as tuneWithCache: a deadline-truncated,
    // unqualified search is not cached at any level -- it would
    // short-circuit every future, better-budgeted run.
    if (report.qualified || !report.interrupted) {
        saveProxyParams(dir_, key, proxy, report.qualified);
        CachedParams fresh;
        fresh.qualified = report.qualified;
        for (const TunableParam &p : proxy.parameters())
            fresh.params.emplace_back(p.name, p.value);
        mem_.put(key, fresh);
    }
    return report;
}

} // namespace dmpb
