/**
 * @file
 * ProxyBenchmark: the DAG-like combination of data motifs with
 * weights that stands in for a real big-data or AI workload
 * (Section II of the paper).
 *
 * Nodes represent original or intermediate data sets; each edge is a
 * data motif processing the data of its source node. The proxy runs
 * on a single node (as in the paper's evaluation), with num_tasks
 * POSIX-style threads each processing a share of the data in
 * chunk_size blocks, reading input from and spilling intermediate
 * data to the simulated disk -- so it exhibits computation, memory
 * *and* I/O patterns, which is what distinguishes data motifs from
 * classic kernels.
 */

#ifndef DMPB_CORE_PROXY_BENCHMARK_HH
#define DMPB_CORE_PROXY_BENCHMARK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/thread_annotations.hh"
#include "motifs/motif.hh"
#include "sim/access_batch.hh"
#include "sim/metrics.hh"
#include "sim/replica_pool.hh"

namespace dmpb {

/** One motif edge of the proxy DAG. */
struct ProxyEdge
{
    const Motif *motif = nullptr;
    double weight = 1.0;     ///< contribution (Table I)
    std::uint32_t src_node = 0;  ///< data set consumed
    std::uint32_t dst_node = 1;  ///< data set produced
};

/** Result of executing a proxy benchmark on one node. */
struct ProxyResult
{
    double runtime_s = 0.0;
    KernelProfile profile;
    MetricVector metrics;
    std::uint64_t checksum = 0;
};

/** Resident kernel code of a proxy task: the paper's light-weight
 *  POSIX-thread motif implementations (TraceContext::setCodeFootprint). */
constexpr std::uint64_t kProxyCodeFootprint = 48 * 1024;

/**
 * One proxy edge's traced run (ProxyBenchmark::edgeRun): one task's
 * pass over a bounded working set. Every input of traceEdge() is
 * here, so a key over these fields, the simulated machine and the
 * context's L3 sharer count names the whole run.
 */
struct EdgeRun
{
    const Motif *motif = nullptr;
    /** The motif's parameters, every field outside Motif::reads()
     *  reset to its default. */
    MotifParams params;
    std::uint64_t working_set = 0;   ///< traced bytes per task
    std::uint64_t traced_bytes = 0;  ///< bytes the run stands for
    double gc_intensity = 0.0;       ///< memory-management ops per byte
};

/**
 * Trace @p run into @p ctx: the motif, then the unified memory-
 * management module at run.gc_intensity ops per traced byte over a
 * heap of an eighth of the working set. Shared by the proxy executor
 * and the co-location capture, which set the code footprint first.
 *
 * @return the motif's checksum.
 */
std::uint64_t traceEdge(TraceContext &ctx, const EdgeRun &run);

/** A tunable parameter with its search range (Table I). */
struct TunableParam
{
    std::string name;
    double value = 0.0;
    double lo = 0.0;
    double hi = 1.0;
    bool integer = false;
};

/** The proxy benchmark: DAG of motifs + the parameter vector P. */
class ProxyBenchmark
{
  public:
    ProxyBenchmark(std::string name, MotifParams base);

    /** Append an edge; nodes are implied (chain by default). */
    void addEdge(const std::string &motif_name, double weight,
                 std::uint32_t src_node = 0, std::uint32_t dst_node = 0);

    /**
     * Execute on one node of @p machine with the current parameters.
     *
     * Execution is sampled: at most @p trace_cap bytes per edge are
     * actually traced, and counters/time are extrapolated to the full
     * dataSize -- the same SMARTS-style approach the real-workload
     * engines use, keeping tuner iterations cheap.
     *
     * A batch of one: executeBatch({this}, machine, trace_cap,
     * simConfig().shards), so its edges simulate on up to
     * simConfig().shards workers and the result is bit-identical for
     * every shard count.
     */
    ProxyResult execute(const MachineConfig &machine,
                        std::uint64_t trace_cap = 2 * 1024 * 1024) const;

    /**
     * Execute every proxy of @p clones as one edge-granular job set,
     * in three phases:
     *
     *  - plan: derive the traced run, and its memo key, of every
     *    (clone, edge) pair;
     *  - simulate: run each distinct key the trace memo lacks exactly
     *    once, as one runShardedJobs() job set on @p jobs workers --
     *    an edge several clones share is traced once, and a batch
     *    lasts as long as its slowest *edge*, not its slowest clone;
     *  - assemble: build each clone's ProxyResult from the memo, in
     *    edge order.
     *
     * Every edge is an independent simulated core and a memo hit is
     * bit-identical to re-simulation, so each result equals what
     * execute() on a fresh copy of that clone returns, for every
     * @p jobs value. The clones must share one trace memo (be
     * cloneShallow() copies of one proxy); they are only read.
     *
     * @p should_stop, when set, is polled before each simulation; once
     * it returns true the remaining ones are skipped, and a clone
     * whose edges were not all simulated comes back empty. Without it
     * every result is engaged. Must be safe to call concurrently.
     */
    static std::vector<std::optional<ProxyResult>> executeBatch(
        const std::vector<const ProxyBenchmark *> &clones,
        const MachineConfig &machine, std::uint64_t trace_cap,
        std::size_t jobs,
        const std::function<bool()> &should_stop = nullptr);

    /** @{ Trace-simulation engine knobs (no effect on any metric). */
    const SimConfig &simConfig() const { return sim_; }
    void setSimConfig(const SimConfig &sim) { sim_ = sim; }
    /** @} */

    /**
     * Shallow clone: a copy with its own parameter vector / edge
     * weights that *shares* this proxy's TraceMemo and replica pools.
     * The auto-tuner evaluates a batch of candidate parameter vectors
     * by passing clones to executeBatch(), which traces each edge the
     * batch needs once; every memo hit is bit-identical to
     * re-simulation.
     *
     * Thread-safe-execution contract: execute() and executeBatch()
     * never mutate a proxy; the only mutable state reachable from
     * them is the shared memo and pool registry, both mutex-guarded.
     * Distinct ProxyBenchmark objects (e.g. clones) may therefore be
     * executed concurrently. The mutators (setParameter(),
     * setSimConfig(), ...) are NOT thread-safe: never mutate a clone
     * while it is being executed.
     */
    ProxyBenchmark cloneShallow() const { return *this; }

    /** Edge simulations the shared trace memo has run (testing
     *  hook): memo hits and skipped simulations do not count. */
    std::size_t simulatedEdgesForTest() const;

    /**
     * Plan edge @p ei's traced run: one of num_tasks tasks over a
     * working set of data_size / num_tasks bytes, capped at
     * @p trace_cap and at least 64 KiB. The edge gets its own data
     * seed; a big-data motif processes the working set in chunks no
     * larger than it, and an AI motif runs one batch. Every parameter
     * the motif does not read is then reset to its default, so runs
     * that differ only there are one run.
     */
    EdgeRun edgeRun(std::size_t ei, std::uint64_t trace_cap) const;

    /** @{ The tunable parameter vector P (Table I). */
    std::vector<TunableParam> parameters() const;
    /** Set parameter @p name; it must accept @p value. */
    void setParameter(const std::string &name, double value);
    double parameter(const std::string &name) const;
    /** @} */

    /**
     * Whether setParameter(@p name, @p value) is valid: @p name is one
     * of parameters(), @p value is finite and the setter takes it
     * (gc_intensity >= 0, weights > 0), and after the setter's
     * rounding and clamping it fits the field's integer type.
     */
    bool acceptsParameter(const std::string &name, double value) const;

    const std::string &name() const { return name_; }
    const MotifParams &baseParams() const { return base_; }
    MotifParams &baseParams() { return base_; }
    const std::vector<ProxyEdge> &edges() const { return edges_; }

    /** True if any edge is an AI motif (enables AI parameters). */
    bool hasAiMotifs() const;

    /** Normalise edge weights to sum to one. */
    void normalizeWeights();

    /**
     * Intensity of the unified memory-management / chunk-management
     * module (ops per processed byte). The paper's big-data motif
     * implementations include a GC-like memory manager; this knob
     * sets how much of that management work runs per byte.
     */
    double gcIntensity() const { return gc_intensity_; }
    void setGcIntensity(double v) { gc_intensity_ = v; }

  private:
    /**
     * Trace memo: raw per-edge simulation outcomes keyed by every
     * input of the traced run -- the EdgeRun (motif, the parameters
     * it reads, working set, stack intensity), the machine and the
     * LLC sharing; NOT the edge weight, which only scales the result
     * afterwards, nor any parameter the motif does not read. The
     * auto-tuner re-executes the proxy dozens of times varying one
     * parameter at a time, so most edges repeat with identical
     * inputs; the deterministic engine guarantees a memo hit is
     * bit-identical to re-simulation. Shared by copies of the proxy;
     * executeBatch() simulates each missing key once per batch, on
     * concurrent workers.
     */
    struct EdgeTrace
    {
        KernelProfile profile;
        std::uint64_t checksum = 0;
    };
    struct TraceMemo
    {
        AnnotatedMutex mutex;
        /** std::map, not unordered: iteration order never matters
         *  today, but keyed ordering keeps it deterministic for
         *  free if it ever does. */
        std::map<std::string, EdgeTrace> entries
            DMPB_GUARDED_BY(mutex);
        /** Simulations run into this memo (simulatedEdgesForTest). */
        std::size_t simulated DMPB_GUARDED_BY(mutex) = 0;
    };

    /**
     * Replica pools, one per distinct simulated-context configuration
     * (cache/predictor geometry, LLC sharers, batch capacity, replay
     * mode -- everything a pooled TraceContext is built from). Edge
     * jobs lease contexts instead of constructing them, so the tuner's
     * thousands of evaluations reuse a handful of model-array sets and
     * replay workers. Shared by clones, like the trace memo; a pooled
     * context is bit-equivalent to a fresh one (TraceContext::reset
     * contract), so pooling is invisible in every simulated number.
     */
    struct PoolRegistry
    {
        AnnotatedMutex mutex;
        /** Keyed std::map: deterministic iteration for free. */
        std::map<std::string, std::unique_ptr<ReplicaPool>> pools
            DMPB_GUARDED_BY(mutex);
    };

    /** Edge index of a well-formed "weight:<ei>:<motif>" parameter
     *  name with an edge @p ei; nullopt otherwise. */
    std::optional<std::size_t> weightEdge(const std::string &name) const;

    /** The pool for @p machine's geometry under the current engine
     *  config, created on first use. The reference stays valid for
     *  the registry's lifetime (pools are never evicted). */
    ReplicaPool &poolFor(const MachineConfig &machine,
                         std::uint32_t l3_sharers) const;

    std::string name_;
    MotifParams base_;
    std::vector<ProxyEdge> edges_;
    double gc_intensity_ = 2.0;
    SimConfig sim_;
    std::shared_ptr<TraceMemo> trace_memo_ =
        std::make_shared<TraceMemo>();
    std::shared_ptr<PoolRegistry> pool_registry_ =
        std::make_shared<PoolRegistry>();
};

} // namespace dmpb

#endif // DMPB_CORE_PROXY_BENCHMARK_HH
