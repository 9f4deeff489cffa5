#include "runner/pipeline_service.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "base/names.hh"
#include "core/proxy_factory.hh"
#include "core/reference_cache.hh"
#include "sim/engine.hh"

namespace dmpb {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Thrown when a pipeline stage finds its deadline expired. */
struct DeadlineExpired : std::runtime_error
{
    explicit DeadlineExpired(const std::string &stage)
        : std::runtime_error("deadline expired after stage: " + stage)
    {}
};

} // namespace

PipelineService::PipelineService(ServiceConfig config)
    : config_(std::move(config)),
      ref_layer_(config_.cache.ref_dir, config_.cache.mem_entries),
      tuner_layer_(config_.cache.proxy_dir, config_.cache.mem_entries)
{
    if (config_.cluster.num_nodes < 2)
        config_.cluster = paperCluster5();
    if (config_.sim.shards == 0)
        config_.sim.shards = 1;
    // The workload engines read the engine knobs off the cluster.
    config_.cluster.sim = config_.sim;
}

MemoryCacheStats
PipelineService::referenceCacheStats() const
{
    return ref_layer_.stats();
}

MemoryCacheStats
PipelineService::tunerCacheStats() const
{
    return tuner_layer_.stats();
}

WorkloadOutcome
PipelineService::execute(const PipelineRequest &request) const
{
    WorkloadSpec spec;
    spec.name = request.workload;
    spec.scale = request.scale;
    std::unique_ptr<Workload> workload;
    try {
        workload = WorkloadRegistry::instance().make(spec);
    } catch (const std::exception &e) {
        WorkloadOutcome out;
        out.name = request.workload;
        out.short_name = request.workload;
        out.status = RunStatus::Failed;
        out.error = e.what();
        return out;
    }
    // Per-scale budget preset, applied exactly as the one-shot CLI
    // applies it for its --scale, so a registry-resolved cell and a
    // CLI cell tune identically.
    return run(*workload, scaleTunerConfig(request.scale, config_.tuner),
               request);
}

WorkloadOutcome
PipelineService::execute(const Workload &workload,
                         const PipelineRequest &request) const
{
    return run(workload, config_.tuner, request);
}

ColocationOutcome
PipelineService::executeColocation(const ColocationRequest &request) const
{
    try {
        return runColocation(request.spec, config_.cluster,
                             config_.cache, request.cache_policy);
    } catch (const std::exception &e) {
        // Selection errors throw out of runColocation (the CLI wants
        // them as usage errors); the service contract is never-throws,
        // so they become Failed outcomes here, like execute()'s
        // unknown-workload path.
        ColocationOutcome out;
        out.status = RunStatus::Failed;
        out.error = e.what();
        out.policy = request.spec.policy;
        out.scale = request.spec.scale;
        out.seed = request.spec.seed;
        return out;
    }
}

WorkloadOutcome
PipelineService::run(const Workload &workload,
                     const TunerConfig &tuner_base,
                     const PipelineRequest &request) const
{
    WorkloadOutcome out;
    out.name = workload.name();
    out.short_name = shortName(out.name);

    const bool use_cache = request.cache_policy == CachePolicy::Use;
    const double timeout_s = request.timeout_s;

    Clock::time_point start = Clock::now();
    bool bounded = timeout_s > 0.0;
    auto checkpoint = [&](const char *stage) {
        if (bounded && secondsSince(start) > timeout_s)
            throw DeadlineExpired(stage);
    };

    // Per-request cluster copy: the deadline hook captures this
    // request's start time, so it cannot live in the shared config.
    // The execution engines poll it between shard jobs and raise
    // ShardInterrupted, letting the timeout interrupt a long
    // reference measurement mid-stage.
    ClusterConfig cluster = config_.cluster;
    if (bounded) {
        cluster.sim.should_stop = [timeout_s, start]() {
            return secondsSince(start) > timeout_s;
        };
    }

    try {
        // Stage 1: measure the real workload on the cluster --
        // memoised (memory -> disk) when the reference cache is
        // enabled, since the measurement is a pure function of
        // (workload, input scale, cluster) and by design the most
        // expensive stage.
        if (use_cache && ref_layer_.enabled()) {
            // Keyed by the full cluster identity (cacheId(), not the
            // node name: paper5 and paper3 share the node) and the
            // seed -- today's measurements never read the request
            // seed, but keying by it keeps the cache conservative
            // should a future workload consume it.
            std::string key = referenceCacheKey(
                out.short_name, cluster.cacheId(),
                workload.referenceDataBytes(), request.seed);
            out.real = ref_layer_.measure(key, workload, cluster,
                                          &out.real_from_cache);
        } else {
            out.real = workload.run(cluster);
        }
        checkpoint("real-workload measurement");

        // Stage 2: decompose into the motif DAG and derive the
        // per-workload seeds from the master seed.
        ProxyBenchmark proxy = decomposeWorkload(workload);
        proxy.setSimConfig(config_.sim);
        proxy.baseParams().seed = mixSeed(request.seed, out.short_name);
        TunerConfig tuner = tuner_base;
        tuner.seed = mixSeed(request.seed, out.short_name + "/tuner");
        if (bounded) {
            // Deadline propagates into the tuner: it stops issuing
            // proxy edge simulations once the budget is gone, and the
            // checkpoint below converts that into TimedOut. The
            // parallel tuner polls this from its simulation workers;
            // it only reads the immutable timeout and a captured
            // steady_clock origin, so concurrent polls are safe.
            tuner.should_stop = [timeout_s, start]() {
                return secondsSince(start) > timeout_s;
            };
        }
        checkpoint("decomposition");

        // Stage 3: auto-tune (memoised when the tuner cache is
        // enabled).
        TunerReport report;
        if (use_cache && tuner_layer_.enabled()) {
            // The key carries everything the tuned parameter vector
            // depends on -- in particular both input scales: the
            // proxy's own data size and the reference input the
            // target metrics were measured from (-ref separates the
            // scenario-matrix scales even when they share a tuner
            // budget, e.g. tiny vs quick), so no scale can poison
            // another scale's cache.
            std::ostringstream key;
            key << out.short_name << "-" << config_.cluster.cacheId()
                << "-seed" << request.seed << "-thr" << tuner.threshold
                << "-bytes" << workload.proxyDataBytes() << "-ref"
                << workload.referenceDataBytes() << "-it"
                << tuner.max_iterations << "-cap" << tuner.trace_cap
                << "-spec" << tuner.speculation;
            report = tuner_layer_.tune(key.str(), proxy,
                                       out.real.metrics,
                                       config_.cluster.node, tuner);
            out.from_cache = report.from_cache;
        } else {
            AutoTuner auto_tuner(out.real.metrics, tuner);
            report = auto_tuner.tune(proxy, config_.cluster.node);
        }
        checkpoint("auto-tuning");

        out.proxy = report.final_result;
        out.qualified = report.qualified;
        out.iterations = report.iterations;
        out.evaluations = report.evaluations;
        out.avg_accuracy = report.avg_accuracy;
        out.max_deviation = report.max_deviation;
        out.metric_accuracy = report.metric_accuracy;
        out.speedup = speedup(out.real.runtime_s, out.proxy.runtime_s);
        out.status = RunStatus::Ok;
    } catch (const DeadlineExpired &e) {
        out.status = RunStatus::TimedOut;
        out.error = e.what();
    } catch (const ShardInterrupted &e) {
        out.status = RunStatus::TimedOut;
        out.error = e.what();
    } catch (const std::exception &e) {
        out.status = RunStatus::Failed;
        out.error = e.what();
    } catch (...) {
        out.status = RunStatus::Failed;
        out.error = "unknown exception";
    }
    out.elapsed_s = secondsSince(start);
    return out;
}

} // namespace dmpb
