/**
 * @file
 * Co-located multi-tenant runs: K proxy workloads sharing one
 * simulated node's LLC under a way-partitioning policy.
 *
 * The isolated pipelines answer "how does workload W behave alone?";
 * this layer answers "what happens to each of K workloads when they
 * are co-scheduled on one node?" -- the production situation the
 * BigDataBench suite is actually run in. The flow:
 *
 *   1. Capture and record: each tenant's proxy DAG is traced once
 *      with a capture-sink TraceContext (sim/trace.hh). The sink
 *      rebases each filled block into the tenant's address slot and
 *      hands it straight to the tenant's TenantRecorder
 *      (sim/colocation.hh), which replays it through a private
 *      full-LLC hierarchy -- the isolated baseline -- and keeps only
 *      the tenant's LLC stream, the accesses its private L2 passes to
 *      the L3. Tenants are independent, so this stage shards like
 *      every measurement.
 *   2. Co-located run: the deterministic round-robin interleaver
 *      (interleaveLlc) replays every LLC stream through ONE SharedL3
 *      under the selected partition policy. The private levels see
 *      the same stream either way and nothing flows back from the
 *      L3, so this equals replaying K full hierarchies around one
 *      shared L3, at a few percent of the cost.
 *
 * Per-tenant runtimes come from the analytic core timing over the
 * replayed profiles; the three CPA-style aggregates compare them:
 *
 *   STP        = sum_i  T_iso,i / T_colo,i     (system throughput)
 *   ANTT       = mean_i T_colo,i / T_iso,i     (avg normalised turnaround)
 *   unfairness = max_i slowdown_i / min_i slowdown_i
 *
 * Everything here is bit-deterministic: capture, both replays and the
 * aggregates are pure functions of (spec, cluster), independent of
 * shard and worker counts and of the replay kernel. Outcomes are cached through the
 * reference-measurement cache; keys carry the full tenant set, the
 * policy and the interleaver quanta, so no co-located result can ever
 * be served to a different pairing or policy.
 */

#ifndef DMPB_CORE_COLOCATION_HH
#define DMPB_CORE_COLOCATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache_config.hh"
#include "core/run_status.hh"
#include "sim/colocation.hh"
#include "sim/metrics.hh"
#include "stack/cluster.hh"
#include "workloads/registry.hh"

namespace dmpb {

/** Everything that defines one co-located scenario. */
struct ColocationSpec
{
    /** Registry names of the co-scheduled workloads (>= 2, any
     *  canonName-equivalent form; duplicates allowed -- two copies of
     *  one workload contend like any other pairing). */
    std::vector<std::string> workloads;
    /** Partition policy name (sim/partition_policy.hh). */
    std::string policy = "none";
    /** Input scale of every tenant. */
    Scale scale = Scale::Quick;
    /** Master seed; each tenant derives its own via mixSeed. */
    std::uint64_t seed = 99;
    /** Interleaver quanta -- part of the scenario (and cache key),
     *  unlike engine knobs. */
    InterleaveConfig interleave;
};

/** One tenant's isolated-vs-co-located comparison. */
struct TenantOutcome
{
    std::string name;         ///< full name, e.g. "Hadoop Grep"
    std::string short_name;   ///< e.g. "Grep"
    double isolated_runtime_s = 0.0;
    double colocated_runtime_s = 0.0;
    MetricVector isolated_metrics;
    MetricVector colocated_metrics;
    /** T_colo / T_iso (>= ~1 under contention). */
    double slowdown = 0.0;
    /** @{ Stream sizes (reporting only: NOT part of the outcome
     *  checksum, and zero when the outcome was restored from the
     *  reference cache -- nothing was captured). */
    /** Events captured from the tenant's proxy DAG. */
    std::uint64_t captured_events = 0;
    /** Of those, the accesses that missed the private L2 and reached
     *  the L3: the LLC stream, all co-location keeps in memory of the
     *  tenant (8 bytes per access). */
    std::uint64_t llc_accesses = 0;
    /** @} */
};

/** Outcome of one co-located scenario. */
struct ColocationOutcome
{
    RunStatus status = RunStatus::Failed;
    std::string error;         ///< diagnostic when status != Ok
    std::string policy;        ///< canonical policy name
    Scale scale = Scale::Quick;
    std::uint64_t seed = 0;
    /** Every tenant's isolated and co-located measurement was served
     *  from the reference cache (all-or-nothing; aggregates are
     *  recomputed from the restored values, bit-identically). */
    bool from_cache = false;
    std::vector<TenantOutcome> tenants;  ///< spec order
    double stp = 0.0;
    double antt = 0.0;
    double unfairness = 0.0;
    /** fnv64 digest over tenant names, runtimes and metric vectors --
     *  the quick bit-identity handle for CI smokes. */
    std::uint64_t checksum = 0;
    double elapsed_s = 0.0;    ///< wall time (excluded from checksum)
};

/**
 * The cache key of one tenant's measurement inside one co-located
 * scenario. @p kind is "iso" or "colo"; the key carries the complete
 * tenant set, policy, quanta, scale, seed and cluster identity.
 */
std::string colocationCacheKey(const ColocationSpec &spec,
                               const std::string &cluster_id,
                               std::size_t tenant_index,
                               const std::string &kind);

/**
 * Run one co-located scenario on @p cluster.
 *
 * @throws std::invalid_argument for selection errors -- fewer than
 *         two tenants, an unknown workload or an unknown policy (the
 *         latter two name --list). Execution errors do NOT throw;
 *         they land in the outcome as Failed.
 */
ColocationOutcome runColocation(const ColocationSpec &spec,
                                const ClusterConfig &cluster,
                                const CacheConfig &cache,
                                CachePolicy cache_policy);

} // namespace dmpb

#endif // DMPB_CORE_COLOCATION_HH
