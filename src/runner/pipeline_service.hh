/**
 * @file
 * The request/response pipeline API.
 *
 * One proxy-generation pipeline (real-workload measurement -> motif
 * decomposition -> decision-tree auto-tuning -> qualified-proxy
 * execution) is PipelineService::execute: per-request state (which
 * workload, at which scale, under which seed/timeout/cache policy)
 * travels in a PipelineRequest, while the long-lived service state
 * (cluster, tuner budget, engine config, cache layers) is constructed
 * once and shared. The suite runner is its batch client, and the
 * CLI's co-location mode runs through executeColocation().
 *
 * execute() is thread-safe: the service is immutable after
 * construction apart from the cache layers, which are concurrent-safe
 * (core/cache_layer). Many requests may execute concurrently on
 * caller-owned threads.
 */

#ifndef DMPB_RUNNER_PIPELINE_SERVICE_HH
#define DMPB_RUNNER_PIPELINE_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/auto_tuner.hh"
#include "core/cache_config.hh"
#include "core/cache_layer.hh"
#include "core/colocation.hh"
#include "core/run_status.hh"
#include "stack/cluster.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace dmpb {

/**
 * Everything that varies per pipeline request. The workload/scale
 * pair resolves through the WorkloadRegistry (ignored by the
 * pre-built-Workload overload of execute()).
 */
struct PipelineRequest
{
    /** Registry workload name (any canonName-equivalent form). */
    std::string workload;
    /** Scenario-matrix input scale of this request. */
    Scale scale = Scale::Quick;
    /** Master seed mixed into tuner and proxy data generation. */
    std::uint64_t seed = 99;
    /** Wall-clock budget in seconds; 0 = unlimited. Enforced
     *  cooperatively at stage boundaries, per tuner evaluation and
     *  between measurement shard jobs. */
    double timeout_s = 0.0;
    /** Cache policy of this request. */
    CachePolicy cache_policy = CachePolicy::Use;
};

/** Everything one pipeline execution learned about its workload. */
struct WorkloadOutcome
{
    std::string name;          ///< full name, e.g. "Hadoop TeraSort"
    std::string short_name;    ///< e.g. "TeraSort"
    RunStatus status = RunStatus::Failed;
    std::string error;         ///< diagnostic for Failed / TimedOut
    bool from_cache = false;   ///< tuned parameters were memoised
    /** The reference measurement was served from a cache level (its
     *  runtime and metrics are bit-identical to a fresh run; the
     *  cluster-aggregate profile is not restored). */
    bool real_from_cache = false;

    WorkloadResult real;       ///< reference measurement
    ProxyResult proxy;         ///< qualified-proxy execution
    double speedup = 0.0;      ///< Eq. 4: real runtime / proxy runtime
    double avg_accuracy = 0.0; ///< Eq. 3 mean over the Table V set
    std::vector<double> metric_accuracy; ///< accuracyMetricSet() order

    bool qualified = false;    ///< tuner met the deviation gate
    std::uint32_t iterations = 0;
    std::uint32_t evaluations = 0;
    double max_deviation = 0.0;

    double elapsed_s = 0.0;    ///< wall time of this pipeline
};

/** Everything that varies per co-location request (core/colocation
 *  carries the scenario; the cache policy rides alongside like a
 *  pipeline request's). */
struct ColocationRequest
{
    ColocationSpec spec;
    CachePolicy cache_policy = CachePolicy::Use;
};

/** Long-lived service state shared by every request. */
struct ServiceConfig
{
    /** Deployment every workload and proxy runs on. A config with
     *  fewer than 2 nodes is replaced by paperCluster5(). */
    ClusterConfig cluster;
    /** Auto-tuner budget. The per-request seed overrides
     *  tuner.seed; the registry-resolving execute() overload
     *  additionally applies the request scale's budget preset
     *  (scaleTunerConfig). */
    TunerConfig tuner;
    /** Trace-simulation engine configuration; copied into the
     *  cluster config so the workload engines see it too. */
    SimConfig sim;
    /** Resolved cache directories + in-memory layer cap. */
    CacheConfig cache;
};

/** Executes pipeline requests against shared service state. */
class PipelineService
{
  public:
    explicit PipelineService(ServiceConfig config);

    /**
     * Resolve request.workload/scale through the
     * WorkloadRegistry and run the pipeline under the scale's tuner
     * budget preset. Per-request errors (including an unknown
     * workload name) land in the outcome as Failed; this never
     * throws.
     */
    WorkloadOutcome execute(const PipelineRequest &request) const;

    /**
     * Run the pipeline for a caller-constructed workload (the suite
     * runner path, which may carry workloads that exist in no
     * registry). The service tuner budget applies as-is;
     * request.workload/scale are ignored.
     */
    WorkloadOutcome execute(const Workload &workload,
                            const PipelineRequest &request) const;

    /**
     * Run one co-located scenario (core/colocation.hh) on the service
     * cluster, against the service reference cache. Like execute(),
     * this never throws: selection errors (unknown workload or
     * policy, fewer than two tenants) land in the outcome as Failed.
     * Thread-safe under the same contract as execute().
     */
    ColocationOutcome
    executeColocation(const ColocationRequest &request) const;

    /** In-memory layer counters (zeros when caching is off). */
    MemoryCacheStats referenceCacheStats() const;
    MemoryCacheStats tunerCacheStats() const;

    /** The normalized service configuration. */
    const ServiceConfig &config() const { return config_; }

  private:
    WorkloadOutcome run(const Workload &workload,
                        const TunerConfig &tuner_base,
                        const PipelineRequest &request) const;

    ServiceConfig config_;
    // Concurrent-safe; logically part of the service's const
    // behaviour (results are bit-identical with or without hits).
    mutable ReferenceLayer ref_layer_;
    mutable TunerLayer tuner_layer_;
};

} // namespace dmpb

#endif // DMPB_RUNNER_PIPELINE_SERVICE_HH
