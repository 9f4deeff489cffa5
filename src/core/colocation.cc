#include "core/colocation.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "base/logging.hh"
#include "base/names.hh"
#include "core/proxy_benchmark.hh"
#include "core/proxy_factory.hh"
#include "core/reference_cache.hh"
#include "sim/engine.hh"
#include "sim/trace.hh"

namespace dmpb {

namespace {

/** Capture block size, in events. Deliberately NOT --sim-batch: the
 *  recorder cuts turns at quantum events of the concatenated stream,
 *  so block boundaries are invisible to it, but pinning the capacity
 *  keeps the capture identical across engine configurations by
 *  construction. */
constexpr std::size_t kCaptureBlockEvents = 64 * 1024;

/** Per-tenant address-space stride (32 TiB). Captured streams are
 *  rebased by tenant_index * this, so co-scheduled tenants model
 *  separate processes contending for LLC capacity instead of
 *  aliasing each other's lines in the shared cache. */
constexpr std::uint64_t kTenantAddrStride = 1ULL << 45;

/** Traced-bytes cap per proxy edge at each scale (the co-location
 *  counterpart of the pipeline's trace_cap). */
std::uint64_t
captureTraceCap(Scale scale)
{
    switch (scale) {
      case Scale::Tiny: return 1ULL * 1024 * 1024;
      case Scale::Quick: return 2ULL * 1024 * 1024;
      case Scale::Paper: return 8ULL * 1024 * 1024;
    }
    return 2ULL * 1024 * 1024;
}

/**
 * Capture sink that rebases each filled block into the tenant's
 * private address slot and replays it straight through the tenant's
 * recorder, so no captured event is kept past its block.
 */
struct RecordingCaptureSink final : BatchSink
{
    TenantRecorder *recorder = nullptr;
    std::uint64_t rebase_offset = 0;

    void
    consume(AccessBatch &block) override
    {
        if (rebase_offset != 0)
            block.rebase(rebase_offset);
        recorder->record(block);
    }
};

/**
 * Trace one tenant's proxy DAG and record it: @p recorder receives
 * the captured stream, @return the trace-level counters (ops, disk,
 * net; the cache and branch stats inside are zero, they come from the
 * recorder and the interleaver).
 *
 * Each edge runs exactly as the proxy executor traces it
 * (ProxyBenchmark::edgeRun, traceEdge), but every edge runs
 * sequentially into ONE capture-sink context: the tenant is one
 * hardware context on the shared node, so its edges form a single
 * program-ordered stream. No weight/task extrapolation is applied --
 * the captured trace (one pass over each edge's bounded working set)
 * IS the tenant's execution window in both arrangements.
 */
KernelProfile
captureTenant(TenantRecorder &recorder, const ProxyBenchmark &proxy,
              const MachineConfig &machine, Scale scale,
              std::uint64_t rebase_offset)
{
    RecordingCaptureSink sink;
    sink.recorder = &recorder;
    sink.rebase_offset = rebase_offset;
    TraceContext ctx(machine, 1, 1, kCaptureBlockEvents);
    ctx.setCaptureSink(&sink);
    ctx.setCodeFootprint(kProxyCodeFootprint);
    for (std::size_t ei = 0; ei < proxy.edges().size(); ++ei)
        traceEdge(ctx, proxy.edgeRun(ei, captureTraceCap(scale)));
    // Flushes the final partial block into the sink and snapshots the
    // trace-level counters.
    return ctx.profile();
}

/** Assemble the full profile of one replay: captured trace-level
 *  counters plus the replayed model statistics. */
KernelProfile
assembleProfile(const KernelProfile &captured,
                const TenantReplayStats &replay)
{
    KernelProfile p = captured;
    p.l1i = replay.l1i;
    p.l1d = replay.l1d;
    p.l2 = replay.l2;
    p.l3 = replay.l3;
    p.branch = replay.branch;
    return p;
}

/** Derive one tenant outcome side (runtime + metrics) from a replay. */
WorkloadResult
deriveResult(const std::string &name, const KernelProfile &profile,
             const MachineConfig &machine)
{
    WorkloadResult r;
    r.name = name;
    r.profile = profile;
    r.runtime_s = machine.core.seconds(profile) +
                  machine.accel.seconds(profile);
    r.metrics = computeMetrics(profile, machine.core, r.runtime_s, 1.0);
    return r;
}

void
mixBits(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

/** fnv64 digest over everything a cache round-trip restores. */
std::uint64_t
outcomeChecksum(const std::vector<TenantOutcome> &tenants)
{
    std::uint64_t h = kFnvOffset;
    for (const TenantOutcome &t : tenants) {
        for (char c : t.short_name) {
            h ^= static_cast<unsigned char>(c);
            h *= kFnvPrime;
        }
        mixBits(h, std::bit_cast<std::uint64_t>(t.isolated_runtime_s));
        mixBits(h, std::bit_cast<std::uint64_t>(t.colocated_runtime_s));
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            const Metric metric = static_cast<Metric>(m);
            mixBits(h, std::bit_cast<std::uint64_t>(
                           t.isolated_metrics[metric]));
            mixBits(h, std::bit_cast<std::uint64_t>(
                           t.colocated_metrics[metric]));
        }
    }
    return h;
}

/** Fill slowdowns and the CPA aggregate triple from the per-tenant
 *  runtimes (identical for computed and cache-restored outcomes). */
void
finalizeAggregates(ColocationOutcome &out)
{
    double stp = 0.0;
    double antt = 0.0;
    double min_slow = std::numeric_limits<double>::infinity();
    double max_slow = 0.0;
    for (TenantOutcome &t : out.tenants) {
        const double iso = t.isolated_runtime_s;
        const double colo = t.colocated_runtime_s;
        t.slowdown = iso > 0.0 ? colo / iso : 0.0;
        stp += colo > 0.0 ? iso / colo : 0.0;
        antt += t.slowdown;
        min_slow = std::min(min_slow, t.slowdown);
        max_slow = std::max(max_slow, t.slowdown);
    }
    const double n = static_cast<double>(out.tenants.size());
    out.stp = stp;
    out.antt = n > 0.0 ? antt / n : 0.0;
    out.unfairness = min_slow > 0.0 ? max_slow / min_slow : 0.0;
    out.checksum = outcomeChecksum(out.tenants);
}

} // namespace

std::string
colocationCacheKey(const ColocationSpec &spec,
                   const std::string &cluster_id,
                   std::size_t tenant_index, const std::string &kind)
{
    std::ostringstream key;
    key << "colo-v1|tenants=";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            key << ',';
        key << canonName(spec.workloads[i]);
    }
    key << "|policy=" << canonName(spec.policy)
        << "|quantum=" << spec.interleave.quantum
        << "|phase=" << spec.interleave.phase_quanta
        << "|scale=" << scaleName(spec.scale)
        << "|seed=" << spec.seed
        << "|cluster=" << cluster_id
        << "|tenant=" << tenant_index
        << '|' << kind;
    return key.str();
}

ColocationOutcome
runColocation(const ColocationSpec &spec, const ClusterConfig &cluster,
              const CacheConfig &cache, CachePolicy cache_policy)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    if (spec.workloads.size() < 2)
        throw std::invalid_argument(
            "co-location needs at least two workloads (got " +
            std::to_string(spec.workloads.size()) + ")");

    // Selection errors (unknown workload / policy) throw here, before
    // any simulation: the CLI maps them to usage errors, and the
    // policy object doubles as the canonical-name source.
    std::unique_ptr<PartitionPolicy> policy =
        makePartitionPolicy(spec.policy);
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.workloads.size());
    for (const std::string &name : spec.workloads) {
        WorkloadSpec wspec;
        wspec.name = name;
        wspec.scale = spec.scale;
        workloads.push_back(registry.make(wspec));
    }

    ColocationOutcome out;
    out.policy = policy->name();
    out.scale = spec.scale;
    out.seed = spec.seed;
    const std::size_t tenants = workloads.size();
    out.tenants.resize(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
        out.tenants[i].name = workloads[i]->name();
        out.tenants[i].short_name = shortName(workloads[i]->name());
    }

    const bool use_cache =
        cache_policy == CachePolicy::Use && cache.refEnabled();

    try {
        // All-or-nothing warm path: every tenant's isolated AND
        // co-located measurement must be restorable, else everything
        // is recomputed (a partial restore could pair an isolated
        // runtime with a co-located one from different code).
        if (use_cache) {
            bool all = true;
            std::vector<WorkloadResult> iso(tenants), colo(tenants);
            for (std::size_t i = 0; i < tenants && all; ++i) {
                all = loadReference(
                          cache.ref_dir,
                          colocationCacheKey(spec, cluster.cacheId(),
                                             i, "iso"),
                          iso[i]) &&
                      loadReference(
                          cache.ref_dir,
                          colocationCacheKey(spec, cluster.cacheId(),
                                             i, "colo"),
                          colo[i]);
            }
            if (all) {
                for (std::size_t i = 0; i < tenants; ++i) {
                    TenantOutcome &t = out.tenants[i];
                    t.isolated_runtime_s = iso[i].runtime_s;
                    t.isolated_metrics = iso[i].metrics;
                    t.colocated_runtime_s = colo[i].runtime_s;
                    t.colocated_metrics = colo[i].metrics;
                }
                out.from_cache = true;
                finalizeAggregates(out);
                out.status = RunStatus::Ok;
                out.elapsed_s = std::chrono::duration<double>(
                                    Clock::now() - start)
                                    .count();
                return out;
            }
        }

        const MachineConfig &machine = cluster.node;
        std::vector<KernelProfile> captured(tenants);
        std::vector<TenantRecording> recorded(tenants);

        // Stage 1: capture every tenant's event stream and record it
        // through a private full-LLC hierarchy as it fills: the
        // isolated baseline plus the tenant's LLC stream. Tenants are
        // independent (each owns its slot), so this shards like any
        // measurement -- bit-identical for every shard count.
        {
            std::vector<std::function<void()>> jobs;
            jobs.reserve(tenants);
            for (std::size_t i = 0; i < tenants; ++i) {
                jobs.push_back([&, i]() {
                    ProxyBenchmark proxy =
                        decomposeWorkload(*workloads[i]);
                    proxy.baseParams().seed =
                        mixSeed(spec.seed, out.tenants[i].short_name);
                    // Disjoint address space per tenant: the sink
                    // rebases each block before the recorder sees it,
                    // so the isolated and co-located runs share one
                    // stream.
                    TenantRecorder recorder(machine,
                                            spec.interleave.quantum,
                                            cluster.sim.replay);
                    captured[i] =
                        captureTenant(recorder, proxy, machine,
                                      spec.scale, i * kTenantAddrStride);
                    recorded[i] = recorder.finish();
                });
            }
            runShardedJobs(cluster.sim.shards, std::move(jobs),
                           nullptr, "co-location capture");
        }

        // Stream sizes, for the report only: the outcome checksum
        // deliberately excludes them.
        for (std::size_t i = 0; i < tenants; ++i) {
            out.tenants[i].captured_events = recorded[i].events;
            out.tenants[i].llc_accesses = recorded[i].llc.size();
        }

        // Stage 2: the co-located run, every LLC stream through one
        // SharedL3 -- single-threaded by design, so the contention
        // pattern is a pure function of the spec.
        const InterleaveResult inter =
            interleaveLlc(machine, recorded, *policy, spec.interleave);

        // Stage 3: per-tenant runtimes/metrics and the aggregates.
        std::vector<WorkloadResult> iso_results(tenants);
        std::vector<WorkloadResult> colo_results(tenants);
        for (std::size_t i = 0; i < tenants; ++i) {
            TenantOutcome &t = out.tenants[i];
            iso_results[i] = deriveResult(
                t.name, assembleProfile(captured[i],
                                        recorded[i].isolated),
                machine);
            colo_results[i] = deriveResult(
                t.name, assembleProfile(captured[i], inter.tenants[i]),
                machine);
            t.isolated_runtime_s = iso_results[i].runtime_s;
            t.isolated_metrics = iso_results[i].metrics;
            t.colocated_runtime_s = colo_results[i].runtime_s;
            t.colocated_metrics = colo_results[i].metrics;
        }
        finalizeAggregates(out);
        out.status = RunStatus::Ok;

        if (use_cache) {
            for (std::size_t i = 0; i < tenants; ++i) {
                saveReference(cache.ref_dir,
                              colocationCacheKey(spec,
                                                 cluster.cacheId(), i,
                                                 "iso"),
                              iso_results[i]);
                saveReference(cache.ref_dir,
                              colocationCacheKey(spec,
                                                 cluster.cacheId(), i,
                                                 "colo"),
                              colo_results[i]);
            }
        }
    } catch (const std::exception &e) {
        out.status = RunStatus::Failed;
        out.error = e.what();
    }

    out.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

} // namespace dmpb
