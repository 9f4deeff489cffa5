#include "core/proxy_benchmark.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/units.hh"
#include "sim/engine.hh"
#include "stack/managed_heap.hh"
#include "stack/stack_overhead.hh"

namespace dmpb {

namespace {

/** Bytes one AI-motif invocation processes with parameters @p p. */
std::uint64_t
aiBytesPerRun(const MotifParams &p)
{
    std::uint64_t batch = std::max<std::uint32_t>(1, p.batch_size);
    std::uint64_t per_sample = 4ULL *
                               std::max<std::uint32_t>(1, p.channels) *
                               std::max<std::uint32_t>(1, p.height) *
                               std::max<std::uint32_t>(1, p.width);
    std::uint64_t iters = 1;
    if (p.total_size > 0)
        iters = (p.total_size + batch - 1) / batch;
    return iters * batch * per_sample;
}

/**
 * Cache/pool key component of a node's accelerator: the array shape
 * and SRAM banks change the emitted trace (tiling), so CPU and
 * accelerator traces -- and differently shaped arrays -- must never
 * share memo entries or pooled contexts.
 */
std::string
accelKeyPart(const AcceleratorParams &a)
{
    if (!a.present)
        return "sa:none";
    return "sa:" + std::to_string(a.rows) + ":" +
           std::to_string(a.cols) + ":" +
           std::to_string(a.input_sram_bytes) + ":" +
           std::to_string(a.weight_sram_bytes) + ":" +
           std::to_string(a.output_sram_bytes);
}

} // namespace

ProxyBenchmark::ProxyBenchmark(std::string name, MotifParams base)
    : name_(std::move(name)), base_(base)
{
}

void
ProxyBenchmark::addEdge(const std::string &motif_name, double weight,
                        std::uint32_t src_node, std::uint32_t dst_node)
{
    const Motif *m = findMotif(motif_name);
    dmpb_assert(m != nullptr, "unknown motif '", motif_name, "'");
    dmpb_assert(weight > 0.0, "edge weight must be positive");
    ProxyEdge e;
    e.motif = m;
    e.weight = weight;
    e.src_node = src_node;
    // Default chain: edge i consumes node i and produces node i+1.
    e.dst_node = dst_node ? dst_node
                          : static_cast<std::uint32_t>(edges_.size() + 1);
    edges_.push_back(e);
}

bool
ProxyBenchmark::hasAiMotifs() const
{
    return std::any_of(edges_.begin(), edges_.end(),
                       [](const ProxyEdge &e) {
                           return e.motif->isAi();
                       });
}

void
ProxyBenchmark::normalizeWeights()
{
    double sum = 0.0;
    for (const ProxyEdge &e : edges_)
        sum += e.weight;
    if (sum <= 0.0)
        return;
    for (ProxyEdge &e : edges_)
        e.weight /= sum;
}

namespace {

/** How one proxy's tasks map onto the node; shared by its edges. */
struct TaskShape
{
    std::uint32_t tasks = 1;
    std::uint32_t sharers = 1;      ///< tasks sharing the node's L3
    std::uint64_t waves = 1;
};

TaskShape
taskShape(const MotifParams &base, const MachineConfig &machine)
{
    TaskShape shape;
    shape.tasks = std::max<std::uint32_t>(1, base.num_tasks);
    const std::uint32_t cores = machine.totalCores();
    shape.sharers = std::min(shape.tasks, cores);
    shape.waves = (shape.tasks + cores - 1) / cores;
    return shape;
}

/**
 * Memo key: every input of one edge's traced run -- the EdgeRun and
 * the context it runs in. The params fields outside the motif's read
 * set are defaults (edgeRun() reset them), so a change to a field the
 * motif never reads maps to the same key. The edge weight is absent
 * (it scales the profile after simulation), and so are the core
 * timing parameters (applied to the profile, not the trace). The
 * machine is keyed by its full simulated geometry -- cache levels and
 * predictor -- not by name, so sweeps that mutate a named config
 * (e.g. the LLC-size study) never collide.
 */
std::string
edgeTraceKey(const EdgeRun &run, const MachineConfig &machine,
             std::uint32_t sharers)
{
    std::ostringstream key;
    // Continuous tunables (sparsity, gc_intensity) must round-trip
    // losslessly or near-identical tuner candidates would collide.
    key.precision(std::numeric_limits<double>::max_digits10);
    key << run.motif->name() << '|' << sharers;
    for (const CacheParams *c :
         {&machine.caches.l1i, &machine.caches.l1d, &machine.caches.l2,
          &machine.caches.l3}) {
        key << '|' << c->size_bytes << ':' << c->associativity << ':'
            << c->line_bytes;
    }
    key << '|' << machine.predictor.table_bits << ':'
        << machine.predictor.history_bits;
    key << '|' << accelKeyPart(machine.accel);
    const MotifParams &p = run.params;
    key << '|' << p.seed << '|' << p.data_size << '|' << p.chunk_size
        << '|' << p.num_tasks << '|' << p.batch_size << '|'
        << p.total_size << '|' << p.height << '|' << p.width << '|'
        << p.channels << '|' << p.filters << '|' << p.kernel << '|'
        << p.stride << '|' << static_cast<int>(p.layout) << '|'
        << p.weight << '|' << p.sparsity << '|' << run.working_set
        << '|' << run.traced_bytes << '|' << run.gc_intensity;
    return key.str();
}

/** One (clone, edge) pair of a batch: its traced run and memo key. */
struct PlannedEdge
{
    EdgeRun run;
    std::string key;
};

/** Everything one proxy edge contributes to the node's run. */
struct EdgeOutcome
{
    KernelProfile prof;        ///< all-tasks totals incl. I/O bytes
    double edge_cpu = 0.0;     ///< all waves of this edge's tasks
    double disk_s = 0.0;
};

/**
 * Extrapolate edge @p ei's traced per-task profile @p prof to its
 * share of the proxy's data and to all tasks, and time it.
 */
EdgeOutcome
extrapolateEdge(const ProxyBenchmark &proxy, std::size_t ei,
                const TaskShape &shape, std::uint64_t traced_bytes,
                const MachineConfig &machine, KernelProfile prof)
{
    const MotifParams &base = proxy.baseParams();
    const ProxyEdge &edge = proxy.edges()[ei];
    EdgeOutcome out;
    out.prof = std::move(prof);
    // Logical bytes this motif contributes, per task.
    double edge_bytes = static_cast<double>(base.data_size) * edge.weight;
    double share = edge_bytes / static_cast<double>(shape.tasks);
    double scale = share / static_cast<double>(
                               std::max<std::uint64_t>(1, traced_bytes));
    out.prof.scale(scale);

    // Compute time: tasks run in parallel, in waves if there are more
    // tasks than hardware contexts.
    double per_task_cpu = machine.core.seconds(out.prof);
    out.edge_cpu = per_task_cpu * static_cast<double>(shape.waves);

    // I/O pattern. Big-data edges stream their input from disk and
    // spill half of it as intermediate data (Section II-A:
    // "intermediate data written to disk"). AI edges only read one
    // uint8 image batch per run through a prefetching input pipeline,
    // so their disk pressure is near zero, matching the 0.2-0.5 MB/s
    // the paper measures for the AI workloads.
    std::uint64_t edge_read;
    std::uint64_t edge_write;
    if (edge.motif->isAi()) {
        edge_read = static_cast<std::uint64_t>(base.batch_size) *
                    base.channels * base.height * base.width;
        edge_write = 0;
    } else {
        edge_read = static_cast<std::uint64_t>(edge_bytes);
        edge_write = edge_read / 2;
        out.disk_s =
            machine.disk.readSeconds(edge_read, edge_read / kMiB + 1) +
            machine.disk.writeSeconds(edge_write, edge_write / kMiB + 1);
    }
    out.prof.scale(static_cast<double>(shape.tasks));
    out.prof.disk_read_bytes += edge_read;
    out.prof.disk_write_bytes += edge_write;
    // The node's systolic array is a shared serial resource: all
    // tasks' tile passes queue on it, so the all-tasks array time adds
    // onto the edge, not one wave's worth.
    out.edge_cpu += machine.accel.seconds(out.prof);
    return out;
}

} // namespace

std::uint64_t
traceEdge(TraceContext &ctx, const EdgeRun &run)
{
    const std::uint64_t checksum = run.motif->run(ctx, run.params);
    if (run.gc_intensity > 0.0) {
        ManagedHeap heap(ctx, std::max<std::uint64_t>(
                                  64 * 1024, run.working_set / 8));
        Rng mgmt_rng(run.params.seed ^ 0x6c6cULL);
        stackManagementWork(ctx, heap, mgmt_rng, run.traced_bytes,
                            run.gc_intensity);
        heap.collect();
    }
    return checksum;
}

EdgeRun
ProxyBenchmark::edgeRun(std::size_t ei, std::uint64_t trace_cap) const
{
    EdgeRun run;
    run.motif = edges_[ei].motif;
    run.gc_intensity = gc_intensity_;
    // Traced working set per task: governed by dataSize/numTasks and
    // bounded for tuner-iteration cost. Edge *weights* scale each
    // motif's contribution (extrapolation factor), not its working
    // set -- so cache behaviour responds to dataSize/chunkSize while
    // the instruction mix responds to the weights, which is what lets
    // the decision tree steer metrics independently.
    const std::uint32_t tasks = std::max<std::uint32_t>(1, base_.num_tasks);
    run.working_set = std::max<std::uint64_t>(
        64 * 1024,
        std::min<std::uint64_t>(base_.data_size / tasks, trace_cap));
    MotifParams p = base_;
    p.seed ^= mix64(ei + 1);
    if (run.motif->isAi()) {
        // One batch per traced run; extrapolate to the share.
        p.total_size = 0;
        run.traced_bytes = aiBytesPerRun(p);
    } else {
        p.data_size = run.working_set;
        p.chunk_size = std::min<std::uint64_t>(p.chunk_size, p.data_size);
        run.traced_bytes = p.data_size;
    }
    run.params = keepFields(p, run.motif->reads());
    return run;
}

ReplicaPool &
ProxyBenchmark::poolFor(const MachineConfig &machine,
                        std::uint32_t l3_sharers) const
{
    // Key = everything a pooled TraceContext is constructed from.
    // Core timing and disk parameters are absent on purpose: they
    // shape profiles into seconds, never the trace or the models.
    std::ostringstream key;
    for (const CacheParams *c :
         {&machine.caches.l1i, &machine.caches.l1d, &machine.caches.l2,
          &machine.caches.l3}) {
        key << c->size_bytes << ':' << c->associativity << ':'
            << c->line_bytes << '|';
    }
    key << machine.predictor.table_bits << ':'
        << machine.predictor.history_bits << '|'
        << accelKeyPart(machine.accel) << '|' << l3_sharers << '|'
        << sim_.batch_capacity << '|'
        << static_cast<int>(sim_.replay);
    MutexLock lock(pool_registry_->mutex);
    std::unique_ptr<ReplicaPool> &slot =
        pool_registry_->pools[key.str()];
    if (slot == nullptr) {
        slot = std::make_unique<ReplicaPool>(machine, l3_sharers, 1,
                                             sim_.batch_capacity,
                                             sim_.replay);
    }
    return *slot;
}

ProxyResult
ProxyBenchmark::execute(const MachineConfig &machine,
                        std::uint64_t trace_cap) const
{
    std::optional<ProxyResult> result = std::move(
        executeBatch({this}, machine, trace_cap, sim_.shards).front());
    // Without a stop poll no simulation is skipped.
    dmpb_assert(result.has_value(), name_, ": execution came back empty");
    return std::move(*result);
}

std::vector<std::optional<ProxyResult>>
ProxyBenchmark::executeBatch(
    const std::vector<const ProxyBenchmark *> &clones,
    const MachineConfig &machine, std::uint64_t trace_cap,
    std::size_t jobs, const std::function<bool()> &should_stop)
{
    std::vector<std::optional<ProxyResult>> results(clones.size());
    if (clones.empty())
        return results;
    TraceMemo &memo = *clones.front()->trace_memo_;

    // Plan: the traced run of every (clone, edge) pair.
    std::vector<TaskShape> shapes;
    std::vector<std::vector<PlannedEdge>> runs(clones.size());
    std::size_t max_edges = 0;
    shapes.reserve(clones.size());
    for (std::size_t ci = 0; ci < clones.size(); ++ci) {
        const ProxyBenchmark &proxy = *clones[ci];
        dmpb_assert(!proxy.edges_.empty(), proxy.name_,
                    ": proxy has no motifs");
        dmpb_assert(proxy.trace_memo_.get() == &memo, proxy.name_,
                    ": a batch must share one trace memo");
        shapes.push_back(taskShape(proxy.base_, machine));
        for (std::size_t ei = 0; ei < proxy.edges_.size(); ++ei) {
            EdgeRun run = proxy.edgeRun(ei, trace_cap);
            std::string key =
                edgeTraceKey(run, machine, shapes[ci].sharers);
            runs[ci].push_back({std::move(run), std::move(key)});
        }
        max_edges = std::max(max_edges, runs[ci].size());
    }

    // Simulate: one job per distinct key the memo lacks. Every edge
    // is an independent simulated core with private model replicas,
    // so the jobs run on any number of workers. They are queued edge
    // by edge (edge 0 of every clone, then edge 1, ...), so jobs that
    // run at once mostly belong to different clones: a clone needing
    // a large context (few L3 sharers) or big AI tensors seldom holds
    // several at a time, which keeps peak memory down.
    std::vector<std::pair<std::size_t, std::size_t>> missing;
    {
        std::set<std::string_view> planned;
        MutexLock lock(memo.mutex);
        for (std::size_t ei = 0; ei < max_edges; ++ei) {
            for (std::size_t ci = 0; ci < clones.size(); ++ci) {
                if (ei >= runs[ci].size())
                    continue;
                const std::string &key = runs[ci][ei].key;
                if (memo.entries.count(key) == 0 &&
                    planned.insert(key).second)
                    missing.emplace_back(ci, ei);
            }
        }
    }
    std::vector<std::function<void()>> simulations;
    simulations.reserve(missing.size());
    for (const auto &[clone_index, edge_index] : missing) {
        simulations.push_back([&, ci = clone_index, ei = edge_index]() {
            const PlannedEdge &planned = runs[ci][ei];
            // The context is a pooled replica -- bit-equivalent to a
            // fresh construction.
            ReplicaPool::Lease lease =
                clones[ci]->poolFor(machine, shapes[ci].sharers).acquire();
            TraceContext &ctx = lease.ctx();
            ctx.setCodeFootprint(kProxyCodeFootprint);
            EdgeTrace trace;
            trace.checksum = traceEdge(ctx, planned.run);
            trace.profile = ctx.profile();
            MutexLock lock(memo.mutex);
            ++memo.simulated;
            memo.entries.emplace(planned.key, std::move(trace));
        });
    }
    try {
        runShardedJobs(jobs, std::move(simulations), should_stop,
                       "proxy evaluation");
    } catch (const ShardInterrupted &) {
        // Skipped simulations leave their keys missing from the memo;
        // the clones needing them come back empty below.
    }

    // Assemble: each clone's result from the memo, merged in edge
    // order -- bit-identical for any job count and any batch.
    for (std::size_t ci = 0; ci < clones.size(); ++ci) {
        const ProxyBenchmark &proxy = *clones[ci];
        ProxyResult result;
        KernelProfile total;
        double runtime = 0.0;
        bool complete = true;
        for (std::size_t ei = 0; ei < runs[ci].size(); ++ei) {
            EdgeTrace trace;
            {
                MutexLock lock(memo.mutex);
                auto it = memo.entries.find(runs[ci][ei].key);
                if (it == memo.entries.end()) {
                    complete = false;
                    break;
                }
                trace = it->second;
            }
            EdgeOutcome out =
                extrapolateEdge(proxy, ei, shapes[ci],
                                runs[ci][ei].run.traced_bytes, machine,
                                std::move(trace.profile));
            result.checksum ^= trace.checksum;
            runtime += std::max(out.edge_cpu, out.disk_s) +
                       0.25 * std::min(out.edge_cpu, out.disk_s);
            total.merge(out.prof);
        }
        if (!complete)
            continue;
        result.runtime_s = runtime;
        result.profile = total;
        result.metrics = computeMetrics(total, machine.core, runtime, 1.0);
        results[ci] = std::move(result);
    }
    return results;
}

std::size_t
ProxyBenchmark::simulatedEdgesForTest() const
{
    MutexLock lock(trace_memo_->mutex);
    return trace_memo_->simulated;
}

std::vector<TunableParam>
ProxyBenchmark::parameters() const
{
    std::vector<TunableParam> out;
    out.push_back({"data_size", static_cast<double>(base_.data_size),
                   static_cast<double>(4 * kMiB),
                   static_cast<double>(256 * kMiB), false});
    out.push_back({"chunk_size", static_cast<double>(base_.chunk_size),
                   static_cast<double>(32 * kKiB),
                   static_cast<double>(16 * kMiB), false});
    out.push_back({"num_tasks", static_cast<double>(base_.num_tasks),
                   1.0, 24.0, true});
    out.push_back({"gc_intensity", gc_intensity_, 0.0, 16.0, false});
    if (hasAiMotifs()) {
        // Ranges bound the cost of a single tuner evaluation (a
        // convolution edge is O(batch * c * filters * h * w * k^2)).
        out.push_back({"batch_size",
                       static_cast<double>(base_.batch_size), 1.0, 16.0,
                       true});
        out.push_back({"height", static_cast<double>(base_.height), 4.0,
                       48.0, true});
        out.push_back({"width", static_cast<double>(base_.width), 4.0,
                       48.0, true});
        out.push_back({"channels", static_cast<double>(base_.channels),
                       1.0, 48.0, true});
    }
    for (std::size_t ei = 0; ei < edges_.size(); ++ei) {
        const ProxyEdge &e = edges_[ei];
        // Weight search range around the hotspot-derived initial value
        // (the paper allows adjustment "within a reasonable range").
        out.push_back({"weight:" + std::to_string(ei) + ":" +
                           e.motif->name(),
                       e.weight, std::max(0.004, e.weight * 0.15),
                       std::min(2.0, e.weight * 4.0), false});
    }
    return out;
}

std::optional<std::size_t>
ProxyBenchmark::weightEdge(const std::string &name) const
{
    // "weight:<edge index>:<motif name>"
    if (name.rfind("weight:", 0) != 0)
        return std::nullopt;
    const std::size_t second_colon = name.find(':', 7);
    if (second_colon == std::string::npos)
        return std::nullopt;
    std::size_t ei = 0;
    const char *first = name.data() + 7;
    const char *last = name.data() + second_colon;
    auto [ptr, ec] = std::from_chars(first, last, ei);
    if (ec != std::errc() || ptr != last || ei >= edges_.size())
        return std::nullopt;
    return ei;
}

bool
ProxyBenchmark::acceptsParameter(const std::string &name,
                                 double value) const
{
    if (!std::isfinite(value))
        return false;
    // The size and count setters clamp to at least one (the counts
    // round first); what is left must fit the field's type.
    if (name == "data_size" || name == "chunk_size")
        return value < 0x1p64;
    if (name == "num_tasks" || name == "batch_size" || name == "height" ||
        name == "width" || name == "channels")
        return std::round(value) < 0x1p32;
    if (name == "gc_intensity")
        return value >= 0.0;
    if (weightEdge(name).has_value())
        return value > 0.0;
    return false;
}

void
ProxyBenchmark::setParameter(const std::string &name, double value)
{
    dmpb_assert(acceptsParameter(name, value), "proxy parameter '", name,
                "' cannot take the value ", value);
    if (name == "data_size") {
        base_.data_size = static_cast<std::uint64_t>(
            std::max(1.0, value));
        return;
    }
    if (name == "chunk_size") {
        base_.chunk_size = static_cast<std::uint64_t>(
            std::max(1.0, value));
        return;
    }
    if (name == "num_tasks") {
        base_.num_tasks = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "gc_intensity") {
        gc_intensity_ = value;
        return;
    }
    if (name == "batch_size") {
        base_.batch_size = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "height") {
        base_.height = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "width") {
        base_.width = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    if (name == "channels") {
        base_.channels = static_cast<std::uint32_t>(
            std::max(1.0, std::round(value)));
        return;
    }
    edges_[*weightEdge(name)].weight = value;
}

double
ProxyBenchmark::parameter(const std::string &name) const
{
    for (const TunableParam &p : parameters()) {
        if (p.name == name)
            return p.value;
    }
    dmpb_panic("unknown proxy parameter '", name, "'");
}

} // namespace dmpb
