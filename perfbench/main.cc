/**
 * @file
 * The dmpb pipeline benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--commit ID] [--source-digest D]
 *
 * Drives the library in one process: pipelines through
 * PipelineService::execute, co-location through runColocation. Each
 * run sets up (repeated set-up, median reported), then runs whole
 * rounds of its workload's cells until --seconds have passed, checks
 * every outcome, and prints one JSON result object as the last line of
 * standard output (the line before it records the host, the engine
 * knobs and the per-cell checksums).
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 additionally
 * runs the same rounds through a mirror of PipelineService::run that
 * calls the layers itself inside spans (perfbench/spans.hh), replays
 * streams captured during set-up through each sim layer in isolation,
 * writes the spans to DIR/spans-<workload>-<seed>.json and reports the
 * per-layer metrics. Exit status: 0 when every check passed, 1 when a
 * check failed (the result line says correct=false), 2 on a usage
 * error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/names.hh"
#include "base/rng.hh"
#include "core/auto_tuner.hh"
#include "core/colocation.hh"
#include "core/proxy_cache.hh"
#include "core/proxy_factory.hh"
#include "core/reference_cache.hh"
#include "runner/pipeline_service.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/colocation.hh"
#include "sim/compressed_trace.hh"
#include "sim/engine.hh"
#include "sim/partition_policy.hh"
#include "sim/trace.hh"
#include "spans.hh"
#include "workloads/registry.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace dmpb;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/** Per-tenant address stride of the probe streams (as co-location). */
constexpr std::uint64_t kTenantAddrStride = 1ULL << 45;

/** Traced-bytes cap per proxy edge of the probe capture. */
constexpr std::uint64_t kProbeTraceCap = 256 * 1024;

/** Events per capture block and per probe decode/replay chunk. */
constexpr std::size_t kProbeChunkEvents = 64 * 1024;

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    std::uint64_t seed = 99;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build/perfbench-work";
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long x = 0;
    try {
        x = std::stoull(v, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != v.size() || v[0] == '-')
        throw std::invalid_argument(flag + ": not a whole number: " + v);
    return x;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseU64(flag, v);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseU64(flag, v));
        else if (flag == "--trace")
            o.trace = parseU64(flag, v) != 0;
        else if (flag == "--work-dir")
            o.work_dir = v;
        else if (flag == "--commit")
            o.commit = v;
        else if (flag == "--source-digest")
            o.source_digest = v;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    return o;
}

// ---------------------------------------------------------- workloads

enum class Kind { Cold, Warm, Colocate };

struct BenchWorkload
{
    std::string name;
    Kind kind;
    Scale scale;
    std::vector<std::string> cells;  ///< pipelines, or the tenants
};

std::vector<BenchWorkload>
benchWorkloads()
{
    const std::vector<std::string> all =
        WorkloadRegistry::instance().names();
    return {
        {"quick-cold", Kind::Cold, Scale::Quick, all},
        {"paper-tune", Kind::Cold, Scale::Paper,
         {"terasort", "kmeans", "grep"}},
        {"quick-warm", Kind::Warm, Scale::Quick, all},
        {"colocate-cpa", Kind::Colocate, Scale::Quick,
         {"grep", "kmeans", "terasort", "pagerank"}},
    };
}

const char *kColocationPolicy = "critical-phase-aware";

// -------------------------------------------------------------- knobs

/** Every host-adapted engine knob, set explicitly and recorded. */
struct Knobs
{
    unsigned nproc = 1;
    std::size_t tuner_jobs = 1;
    SimConfig sim;
    std::size_t mem_entries = CacheConfig::kDefaultMemEntries;
};

/**
 * Runnable threads stay at or below nproc. Pipelines: one tuner job per
 * hardware thread (capped at 8, the library default), unsharded
 * simulation and the unbatched inline replay path, which starts no
 * AsyncReplayer worker per trace context. Co-location has no tuner and
 * its capture pins its own block size; its tenants shard across the
 * hardware threads.
 */
Knobs
chooseKnobs(const BenchWorkload &w)
{
    Knobs k;
    k.nproc = std::max(1u, std::thread::hardware_concurrency());
    k.tuner_jobs = std::clamp<std::size_t>(k.nproc, 1, 8);
    k.sim.batch_capacity = 1;
    k.sim.replay = ReplayMode::Vectorized;
    k.sim.shards = w.kind == Kind::Colocate
                       ? std::min<std::size_t>(k.nproc, w.cells.size())
                       : 1;
    return k;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

// ------------------------------------------------------- scratch dirs

/** A fresh directory under the work dir, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &root)
    {
        static int counter = 0;
        path_ = (fs::path(root) / ("run-" + std::to_string(::getpid()) +
                                   "-" + std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// --------------------------------------------------------- cell results

/** What the checks compare about one completed cell. */
struct CellResult
{
    std::string cell;
    bool ok = false;
    std::string error;
    /** Digest of the outcome minus wall time, cache flags and tuner
     *  counters (which a cache hit legitimately changes). */
    std::uint64_t digest = 0;
    std::uint64_t checksum = 0;   ///< proxy / co-location checksum
    double accuracy = 0.0;        ///< Eq. 3 mean, as a fraction
    double speedup = 0.0;
    std::uint32_t iterations = 0;
    std::uint32_t evaluations = 0;
    bool from_cache = false;
    bool real_from_cache = false;
};

struct Digest
{
    std::uint64_t h = kFnvOffset;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kFnvPrime;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const std::string &s)
    {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= kFnvPrime;
        }
    }

    void
    add(const MetricVector &m)
    {
        for (std::size_t i = 0; i < kNumMetrics; ++i)
            add(m[static_cast<Metric>(i)]);
    }
};

CellResult
cellResult(const WorkloadOutcome &o)
{
    CellResult r;
    r.cell = o.short_name;
    r.ok = o.status == RunStatus::Ok;
    r.error = o.error;
    Digest d;
    d.add(o.short_name);
    d.add(static_cast<std::uint64_t>(o.status));
    d.add(o.real.runtime_s);
    d.add(o.real.metrics);
    d.add(o.proxy.runtime_s);
    d.add(o.proxy.metrics);
    d.add(o.proxy.checksum);
    d.add(o.speedup);
    d.add(o.avg_accuracy);
    for (double a : o.metric_accuracy)
        d.add(a);
    d.add(static_cast<std::uint64_t>(o.qualified));
    d.add(o.max_deviation);
    r.digest = d.h;
    r.checksum = o.proxy.checksum;
    r.accuracy = o.avg_accuracy;
    r.speedup = o.speedup;
    r.iterations = o.iterations;
    r.evaluations = o.evaluations;
    r.from_cache = o.from_cache;
    r.real_from_cache = o.real_from_cache;
    return r;
}

/**
 * A co-location scenario as one cell. Its two simulated numbers: the
 * mean Eq. 3 accuracy of every tenant's co-located metrics against its
 * isolated ones (how well an isolated proxy still describes the tenant
 * under LLC sharing) and the geometric mean of isolated over co-located
 * runtime (the speed a tenant keeps when co-scheduled).
 */
CellResult
cellResult(const ColocationOutcome &o)
{
    CellResult r;
    r.cell = "colocation";
    r.ok = o.status == RunStatus::Ok && !o.tenants.empty();
    r.error = o.error;
    r.digest = o.checksum;
    r.checksum = o.checksum;
    double acc = 0.0;
    double log_speed = 0.0;
    for (const TenantOutcome &t : o.tenants) {
        acc += averageAccuracy(t.isolated_metrics, t.colocated_metrics);
        log_speed += std::log(speedup(t.isolated_runtime_s,
                                      t.colocated_runtime_s));
    }
    if (!o.tenants.empty()) {
        const double n = static_cast<double>(o.tenants.size());
        r.accuracy = acc / n;
        r.speedup = std::exp(log_speed / n);
    }
    return r;
}

struct Round
{
    double seconds = 0.0;
    std::vector<CellResult> cells;
};

// ------------------------------------------------------------ checks

/** Failed cells and mismatches, with one diagnostic each. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &what)
    {
        errors.push_back(what);
    }

    /** Count a round's cells; failed cells count against it. */
    void
    countRound(const Round &r)
    {
        for (const CellResult &c : r.cells) {
            ++attempted;
            if (!c.ok) {
                ++failed;
                fail(c.cell + " failed: " + c.error);
            }
        }
    }

    /** @p got must reproduce @p want cell for cell. */
    void
    sameCells(const std::vector<CellResult> &want,
              const std::vector<CellResult> &got, bool tuner_counters,
              const std::string &what)
    {
        if (want.size() != got.size()) {
            fail(what + ": cell count differs");
            return;
        }
        for (std::size_t i = 0; i < want.size(); ++i) {
            const CellResult &a = want[i];
            const CellResult &b = got[i];
            bool same = a.cell == b.cell && a.digest == b.digest &&
                        a.checksum == b.checksum &&
                        a.accuracy == b.accuracy;
            if (tuner_counters)
                same = same && a.evaluations == b.evaluations &&
                       a.iterations == b.iterations;
            if (!same)
                fail(what + ": " + a.cell + " differs");
        }
    }

    bool correct() const { return failed == 0 && errors.empty(); }
};

// ------------------------------------------------------------ bench

class Bench
{
  public:
    Bench(const Options &opt, BenchWorkload w)
        : opt_(opt), w_(std::move(w)), knobs_(chooseKnobs(w_))
    {}

    const Knobs &knobs() const { return knobs_; }

    /** Repeated warm-up median, plus quick-warm's one cache fill. */
    double
    setUp(Checks &checks)
    {
        std::vector<double> times;
        for (int i = 0; i < kSetupRepeats; ++i) {
            const Clock::time_point t0 = Clock::now();
            warmUp(checks);
            times.push_back(secondsSince(t0));
        }
        double setup = median(times);
        if (w_.kind == Kind::Warm) {
            const Clock::time_point t0 = Clock::now();
            warm_dir_ = std::make_unique<ScratchDir>(opt_.work_dir);
            PipelineService service(serviceConfig(warm_dir_->path()));
            for (const std::string &cell : w_.cells) {
                fill_.push_back(cellResult(service.execute(request(cell))));
                if (!fill_.back().ok)
                    checks.fail("set-up fill: " + cell + " failed: " +
                                fill_.back().error);
            }
            setup += secondsSince(t0);
        }
        return setup;
    }

    /** One untraced pass over every cell, timed. */
    Round
    runRound(MemoryCacheStats &mem)
    {
        Round r;
        const Clock::time_point t0 = Clock::now();
        if (w_.kind == Kind::Colocate) {
            r.cells.push_back(cellResult(runColocation(
                colocationSpec(), cluster(), CacheConfig{"", "", 0},
                CachePolicy::Bypass)));
            r.seconds = secondsSince(t0);
            return r;
        }
        std::unique_ptr<ScratchDir> cold;
        if (w_.kind == Kind::Cold)
            cold = std::make_unique<ScratchDir>(opt_.work_dir);
        PipelineService service(
            serviceConfig(cold ? cold->path() : warm_dir_->path()));
        for (const std::string &cell : w_.cells)
            r.cells.push_back(cellResult(service.execute(request(cell))));
        r.seconds = secondsSince(t0);
        const MemoryCacheStats ref = service.referenceCacheStats();
        const MemoryCacheStats tun = service.tunerCacheStats();
        mem.hits += ref.hits + tun.hits;
        mem.misses += ref.misses + tun.misses;
        return r;
    }

    /** The same pass with every layer call made here, inside spans. */
    Round
    runTracedRound(Tracer &tracer)
    {
        Round r;
        const Clock::time_point t0 = Clock::now();
        if (w_.kind == Kind::Colocate) {
            ScopedSpan span(tracer, "core.colocation", "colocation");
            r.cells.push_back(cellResult(runColocation(
                colocationSpec(), cluster(), CacheConfig{"", "", 0},
                CachePolicy::Bypass)));
            r.seconds = secondsSince(t0);
            return r;
        }
        std::unique_ptr<ScratchDir> cold;
        if (w_.kind == Kind::Cold)
            cold = std::make_unique<ScratchDir>(opt_.work_dir);
        // The service only normalizes the configuration here; every
        // layer below is called directly.
        PipelineService service(
            serviceConfig(cold ? cold->path() : warm_dir_->path()));
        for (const std::string &cell : w_.cells) {
            ScopedSpan span(tracer, "bench.cell", cell);
            r.cells.push_back(
                cellResult(tracedPipeline(tracer, service.config(), cell)));
        }
        r.seconds = secondsSince(t0);
        return r;
    }

    /** Outcomes the quick-warm set-up stored (empty otherwise). */
    const std::vector<CellResult> &fill() const { return fill_; }

    ClusterConfig
    cluster() const
    {
        ClusterConfig c = paperCluster5();
        c.sim = knobs_.sim;
        return c;
    }

  private:
    ServiceConfig
    serviceConfig(const std::string &dir) const
    {
        ServiceConfig c;
        c.cluster = paperCluster5();
        c.tuner.jobs = knobs_.tuner_jobs;
        c.sim = knobs_.sim;
        c.cache.proxy_dir = dir;
        c.cache.ref_dir = dir;
        c.cache.mem_entries = knobs_.mem_entries;
        return c;
    }

    PipelineRequest
    request(const std::string &cell) const
    {
        PipelineRequest req;
        req.workload = cell;
        req.scale = w_.scale;
        req.seed = opt_.seed;
        req.cache_policy = CachePolicy::Use;
        return req;
    }

    ColocationSpec
    colocationSpec() const
    {
        ColocationSpec spec;
        spec.workloads = w_.cells;
        spec.policy = kColocationPolicy;
        spec.scale = w_.scale;
        spec.seed = opt_.seed;
        return spec;
    }

    /** The repeated set-up: fresh caches and one small end-to-end
     *  request, so lazy initialisation is done before timing starts. */
    void
    warmUp(Checks &checks)
    {
        if (w_.kind == Kind::Colocate) {
            ColocationSpec spec = colocationSpec();
            spec.workloads = {"grep", "terasort"};
            spec.scale = Scale::Tiny;
            ColocationOutcome o = runColocation(
                spec, cluster(), CacheConfig{"", "", 0},
                CachePolicy::Bypass);
            if (o.status != RunStatus::Ok)
                checks.fail("set-up co-location failed: " + o.error);
            return;
        }
        ScratchDir dir(opt_.work_dir);
        PipelineService service(serviceConfig(dir.path()));
        PipelineRequest req = request("terasort");
        req.scale = Scale::Quick;
        WorkloadOutcome o = service.execute(req);
        if (o.status != RunStatus::Ok)
            checks.fail("set-up pipeline failed: " + o.error);
    }

    /**
     * PipelineService::run, spelled out: the same seeds (mixSeed), the
     * same scaled tuner budget and the same cache keys, so the outcome
     * must match the untraced request bit for bit.
     */
    WorkloadOutcome
    tracedPipeline(Tracer &tracer, const ServiceConfig &sc,
                   const std::string &cell)
    {
        WorkloadOutcome out;
        std::unique_ptr<Workload> workload;
        {
            ScopedSpan span(tracer, "workloads.make", cell);
            WorkloadSpec spec;
            spec.name = cell;
            spec.scale = w_.scale;
            workload = WorkloadRegistry::instance().make(spec);
        }
        out.name = workload->name();
        out.short_name = shortName(out.name);
        const std::string &dir = sc.cache.ref_dir;

        const std::string ref_key = referenceCacheKey(
            out.short_name, sc.cluster.cacheId(),
            workload->referenceDataBytes(), opt_.seed);
        {
            ScopedSpan span(tracer, "core.cache_read", cell);
            out.real_from_cache = loadReference(dir, ref_key, out.real);
        }
        if (!out.real_from_cache) {
            {
                ScopedSpan span(tracer, "workloads.reference", cell);
                out.real = workload->run(sc.cluster);
            }
            ScopedSpan span(tracer, "core.cache_write", cell);
            saveReference(dir, ref_key, out.real);
        }

        ProxyBenchmark proxy = [&] {
            ScopedSpan span(tracer, "core.decompose", cell);
            return decomposeWorkload(*workload);
        }();
        proxy.setSimConfig(sc.sim);
        proxy.baseParams().seed = mixSeed(opt_.seed, out.short_name);
        TunerConfig tuner = scaleTunerConfig(w_.scale, sc.tuner);
        tuner.seed = mixSeed(opt_.seed, out.short_name + "/tuner");

        std::ostringstream key;
        key << out.short_name << "-" << sc.cluster.cacheId() << "-seed"
            << opt_.seed << "-thr" << tuner.threshold << "-bytes"
            << workload->proxyDataBytes() << "-ref"
            << workload->referenceDataBytes() << "-it"
            << tuner.max_iterations << "-cap" << tuner.trace_cap
            << "-spec" << tuner.speculation;
        bool stored_qualified = false;
        bool hit = false;
        {
            ScopedSpan span(tracer, "core.cache_read", cell);
            hit = loadProxyParams(dir, key.str(), proxy,
                                  &stored_qualified);
        }
        TunerReport report;
        if (hit) {
            ScopedSpan span(tracer, "core.proxy_execute", cell);
            report = replayTunedParams(proxy, out.real.metrics,
                                       sc.cluster.node, tuner,
                                       stored_qualified);
        } else {
            {
                ScopedSpan span(tracer, "core.tune", cell);
                AutoTuner auto_tuner(out.real.metrics, tuner);
                report = auto_tuner.tune(proxy, sc.cluster.node);
                span.items = report.evaluations;
            }
            if (report.qualified || !report.interrupted) {
                ScopedSpan span(tracer, "core.cache_write", cell);
                saveProxyParams(dir, key.str(), proxy, report.qualified);
            }
        }
        out.from_cache = report.from_cache;
        out.proxy = report.final_result;
        out.qualified = report.qualified;
        out.iterations = report.iterations;
        out.evaluations = report.evaluations;
        out.avg_accuracy = report.avg_accuracy;
        out.max_deviation = report.max_deviation;
        out.metric_accuracy = report.metric_accuracy;
        out.speedup = speedup(out.real.runtime_s, out.proxy.runtime_s);
        out.status = RunStatus::Ok;
        return out;
    }

    const Options &opt_;
    BenchWorkload w_;
    Knobs knobs_;
    std::unique_ptr<ScratchDir> warm_dir_;
    std::vector<CellResult> fill_;
};

// ------------------------------------------------------------ probes

/** Rebase each captured block into its tenant slot, then compress. */
struct ProbeSink final : BatchSink
{
    CompressedTrace *trace = nullptr;
    std::uint64_t rebase_offset = 0;

    void
    consume(AccessBatch &block) override
    {
        block.rebase(rebase_offset);
        trace->append(block);
    }
};

/**
 * Trace each cell's decomposed proxy into a capture-sink TraceContext,
 * one edge after another over a bounded working set, the way the
 * co-location capture does.
 */
std::vector<TenantStream>
captureProbeStreams(Tracer &tracer, const BenchWorkload &w,
                    const MachineConfig &machine, std::uint64_t seed)
{
    std::vector<TenantStream> streams(w.cells.size());
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        WorkloadSpec spec;
        spec.name = w.cells[i];
        spec.scale = w.scale;
        std::unique_ptr<Workload> workload =
            WorkloadRegistry::instance().make(spec);
        ProxyBenchmark proxy = decomposeWorkload(*workload);
        const std::string short_name = shortName(workload->name());
        proxy.baseParams().seed = mixSeed(seed, short_name);
        streams[i].name = short_name;

        ScopedSpan span(tracer, "sim.capture", w.cells[i]);
        ProbeSink sink;
        sink.trace = &streams[i].trace;
        sink.rebase_offset = i * kTenantAddrStride;
        TraceContext ctx(machine, 1, 1, kProbeChunkEvents);
        ctx.setCaptureSink(&sink);
        ctx.setCodeFootprint(48 * 1024);
        const MotifParams &base = proxy.baseParams();
        const std::uint64_t tasks =
            std::max<std::uint32_t>(1, base.num_tasks);
        const std::uint64_t working_set = std::max<std::uint64_t>(
            64 * 1024, std::min(base.data_size / tasks, kProbeTraceCap));
        for (std::size_t ei = 0; ei < proxy.edges().size(); ++ei) {
            const ProxyEdge &edge = proxy.edges()[ei];
            MotifParams p = base;
            p.seed = base.seed ^ mix64(ei + 1);
            if (edge.motif->isAi()) {
                p.total_size = 0;
            } else {
                p.data_size = working_set;
                p.chunk_size = std::min(p.chunk_size, p.data_size);
            }
            edge.motif->run(ctx, p);
        }
        ctx.profile();  // flushes the last partial block into the sink
        streams[i].trace.shrinkToFit();
        span.items = streams[i].trace.events();
    }
    return streams;
}

bool
sameStats(const TenantReplayStats &a, const TenantReplayStats &b)
{
    auto same = [](const CacheStats &x, const CacheStats &y) {
        return x.accesses == y.accesses && x.misses == y.misses &&
               x.writebacks == y.writebacks;
    };
    return same(a.l1i, b.l1i) && same(a.l1d, b.l1d) && same(a.l2, b.l2) &&
           same(a.l3, b.l3) && a.branch.branches == b.branch.branches &&
           a.branch.mispredicts == b.branch.mispredicts;
}

/** Replay one stream through private models, one span per chunk. */
TenantReplayStats
probeReplay(Tracer &tracer, const TenantStream &stream,
            const MachineConfig &machine, ReplayMode mode,
            const std::string &span_name)
{
    CacheHierarchy caches(machine.caches, 1);
    GsharePredictor predictor(machine.predictor.table_bits,
                              machine.predictor.history_bits);
    CompressedTrace::Cursor cursor(stream.trace);
    AccessBatch chunk;
    while (cursor.decode(chunk, kProbeChunkEvents) > 0) {
        ScopedSpan span(tracer, span_name, stream.name);
        replayBatch(chunk, caches, predictor, mode);
        span.items = chunk.size();
    }
    TenantReplayStats st;
    st.l1i = caches.l1i().stats();
    st.l1d = caches.l1d().stats();
    st.l2 = caches.l2().stats();
    st.l3 = caches.l3Stats();
    st.branch = predictor.stats();
    return st;
}

/** Run every sim-layer probe over @p streams; checks go to @p checks. */
void
runProbes(Tracer &tracer, const std::vector<TenantStream> &streams,
          const MachineConfig &machine, Checks &checks)
{
    for (const TenantStream &s : streams) {
        // Codec: decode chunk by chunk, time re-encoding each chunk.
        {
            ScopedSpan span(tracer, "sim.decode", s.name);
            CompressedTrace::Cursor cursor(s.trace);
            AccessBatch chunk;
            while (cursor.decode(chunk, kProbeChunkEvents) > 0) {
            }
            span.items = cursor.decodedEvents();
        }
        CompressedTrace copy;
        CompressedTrace::Cursor cursor(s.trace);
        AccessBatch chunk;
        while (cursor.decode(chunk, kProbeChunkEvents) > 0) {
            const std::uint64_t before = copy.rawBytes();
            ScopedSpan span(tracer, "sim.encode", s.name);
            copy.append(chunk);
            span.items = copy.rawBytes() - before;
        }
        if (copy.compressedBytes() != s.trace.compressedBytes() ||
            copy.events() != s.trace.events())
            checks.fail("codec re-encode of " + s.name + " differs");

        const TenantReplayStats vec = probeReplay(
            tracer, s, machine, ReplayMode::Vectorized, "sim.replay");
        const TenantReplayStats scalar = probeReplay(
            tracer, s, machine, ReplayMode::Scalar, "sim.replay_scalar");
        if (!sameStats(vec, scalar))
            checks.fail("vectorized and scalar replay of " + s.name +
                        " disagree");
    }
    std::unique_ptr<PartitionPolicy> policy =
        makePartitionPolicy(kColocationPolicy);
    std::uint64_t events = 0;
    for (const TenantStream &s : streams)
        events += s.events();
    ScopedSpan span(tracer, "sim.interleave", "probe");
    interleaveReplay(machine, streams, *policy, InterleaveConfig{},
                     ReplayMode::Vectorized);
    span.items = events;
}

// ------------------------------------------------------------ output

struct MetricOut
{
    std::string name;
    double value;
    std::string unit;
};

double
perSecond(std::uint64_t items, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * Timed rounds: whole passes for about @p seconds. Always at least
 * one; another starts only while it would end by half a round past
 * the budget at most, so a round barely shorter than the budget does
 * not double the run.
 */
template <class Fn>
std::vector<Round>
timedRounds(double seconds, Fn &&round)
{
    std::vector<Round> rounds;
    const Clock::time_point t0 = Clock::now();
    do {
        rounds.push_back(round());
    } while (secondsSince(t0) + rounds.back().seconds / 2 < seconds);
    return rounds;
}

double
cellsPerSecond(const std::vector<Round> &rounds)
{
    std::vector<double> t;
    for (const Round &r : rounds)
        t.push_back(r.seconds);
    return static_cast<double>(rounds.front().cells.size()) / median(t);
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** The record line: host, knobs, rounds and per-cell checksums. */
std::string
infoLine(const Options &opt, const Bench &bench,
         const std::vector<Round> &rounds, const Checks &checks)
{
    const Knobs &k = bench.knobs();
    JsonWriter w;
    w.openObject();
    w.openObject("perfbench");
    w.field("workload", opt.workload);
    w.field("seed", opt.seed);
    w.field("seconds", opt.seconds);
    w.field("trace", opt.trace);
    w.openObject("env");
    w.field("nproc", static_cast<std::uint64_t>(k.nproc));
    w.field("compiler", compilerName());
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("commit", opt.commit);
    w.field("source_digest", opt.source_digest);
    w.closeObject();
    w.openObject("knobs");
    w.field("sim.shards", static_cast<std::uint64_t>(k.sim.shards));
    w.field("sim.batch_capacity",
            static_cast<std::uint64_t>(k.sim.batch_capacity));
    w.field("sim.replay", k.sim.replay == ReplayMode::Vectorized
                              ? "vector"
                              : "scalar");
    w.field("tuner.jobs", static_cast<std::uint64_t>(k.tuner_jobs));
    w.field("mem_entries", static_cast<std::uint64_t>(k.mem_entries));
    w.closeObject();
    w.openArray("round_s");
    for (const Round &r : rounds)
        w.element(r.seconds);
    w.closeArray();
    w.openArray("cells");
    if (!rounds.empty()) {
        for (const CellResult &c : rounds.front().cells) {
            w.openObject();
            w.field("cell", c.cell);
            w.field("checksum", hex(c.checksum));
            w.field("digest", hex(c.digest));
            w.field("accuracy", c.accuracy);
            w.field("speedup", c.speedup);
            w.closeObject();
        }
    }
    w.closeArray();
    w.openArray("errors");
    for (const std::string &e : checks.errors)
        w.element(e);
    w.closeArray();
    w.closeObject();
    w.closeObject();
    return w.str();
}

std::string
resultLine(const Checks &checks, const std::vector<MetricOut> &metrics)
{
    JsonWriter w;
    w.openObject();
    w.field("correct", checks.correct());
    w.field("attempted", std::max<std::uint64_t>(1, checks.attempted));
    w.field("failed", checks.failed);
    w.openObject("metrics");
    for (const MetricOut &m : metrics) {
        w.openObject(m.name);
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.closeObject();
    }
    w.closeObject();
    w.closeObject();
    return w.str();
}

/** Proxy accuracy (%) and geometric-mean speedup (x) of one round. */
std::pair<double, double>
headline(const Round &r)
{
    double acc = 0.0;
    double log_speed = 0.0;
    for (const CellResult &c : r.cells) {
        acc += c.accuracy;
        log_speed += std::log(std::max(c.speedup, 1e-300));
    }
    const double n = static_cast<double>(r.cells.size());
    return {100.0 * acc / n, std::exp(log_speed / n)};
}

int
run(const Options &opt)
{
    BenchWorkload chosen;
    bool found = false;
    std::string names;
    for (const BenchWorkload &w : benchWorkloads()) {
        names += (names.empty() ? "" : ", ") + w.name;
        if (w.name == opt.workload) {
            chosen = w;
            found = true;
        }
    }
    if (!found)
        throw std::invalid_argument("unknown workload '" + opt.workload +
                                    "' (valid: " + names + ")");
    fs::create_directories(opt.work_dir);

    Bench bench(opt, chosen);
    Checks checks;
    Tracer tracer;
    const double setup_s = bench.setUp(checks);
    std::vector<TenantStream> streams;
    if (opt.trace) {
        streams = captureProbeStreams(tracer, chosen, bench.cluster().node,
                                      opt.seed);
    }

    MemoryCacheStats mem;
    const std::vector<Round> rounds =
        timedRounds(opt.seconds, [&] { return bench.runRound(mem); });
    for (const Round &r : rounds) {
        checks.countRound(r);
        checks.sameCells(rounds.front().cells, r.cells, true,
                         "round-to-round");
    }
    if (chosen.kind == Kind::Warm) {
        for (const CellResult &c : rounds.front().cells)
            if (!c.from_cache || !c.real_from_cache)
                checks.fail(c.cell + " was not served from the cache");
        checks.sameCells(bench.fill(), rounds.front().cells, false,
                         "warm vs set-up");
    }
    const double cells_per_s = cellsPerSecond(rounds);

    std::vector<MetricOut> metrics;
    if (!opt.trace) {
        const auto [accuracy, speed] = headline(rounds.front());
        metrics = {
            {"setup_s", setup_s, "s"},
            {"cells_per_s", cells_per_s, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"proxy_accuracy", accuracy, "%"},
            {"proxy_speedup", speed, "x"},
        };
    } else {
        const std::vector<Round> traced = timedRounds(
            opt.seconds, [&] { return bench.runTracedRound(tracer); });
        for (const Round &r : traced) {
            checks.countRound(r);
            checks.sameCells(rounds.front().cells, r.cells, true,
                             "traced vs untraced");
        }
        runProbes(tracer, streams, bench.cluster().node, checks);

        std::vector<double> traced_t;
        for (const Round &r : traced)
            traced_t.push_back(r.seconds);
        const double n = static_cast<double>(traced.size());
        const double round_s = median(traced_t);
        auto perRound = [&](const char *name) {
            return tracer.totalSeconds(name) / n;
        };
        const double reference_s = perRound("workloads.reference");
        const double tune_s = perRound("core.tune");
        const double evaluations =
            static_cast<double>(tracer.totalItems("core.tune")) / n;
        double iterations = 0.0;
        for (const CellResult &c : traced.front().cells)
            iterations += c.iterations;
        std::uint64_t raw = 0;
        std::uint64_t compressed = 0;
        std::uint64_t captured = 0;
        for (const TenantStream &s : streams) {
            raw += s.trace.rawBytes();
            compressed += s.trace.compressedBytes();
            captured += s.events();
        }
        const double lookups = static_cast<double>(mem.hits + mem.misses);
        metrics = {
            {"workloads.reference_s", reference_s, "s"},
            {"workloads.reference_share", reference_s / round_s, "ratio"},
            {"core.tune_s", tune_s, "s"},
            {"core.tune_share", tune_s / round_s, "ratio"},
            {"core.evaluation_ms",
             evaluations > 0 ? 1000.0 * tune_s / evaluations : 0.0, "ms"},
            {"core.tune_evaluations", evaluations, "count"},
            {"core.tune_iterations", iterations, "count"},
            {"core.proxy_execute_s", perRound("core.proxy_execute"), "s"},
            {"core.cache_read_s", perRound("core.cache_read"), "s"},
            {"core.mem_cache_hit_ratio",
             lookups > 0 ? static_cast<double>(mem.hits) / lookups : 0.0,
             "ratio"},
            {"sim.capture_events_per_s",
             perSecond(tracer.totalItems("sim.capture"),
                       tracer.totalSeconds("sim.capture")),
             "1/s"},
            {"sim.encode_mb_per_s",
             perSecond(tracer.totalItems("sim.encode"),
                       tracer.totalSeconds("sim.encode")) /
                 1e6,
             "MB/s"},
            {"sim.decode_events_per_s",
             perSecond(tracer.totalItems("sim.decode"),
                       tracer.totalSeconds("sim.decode")),
             "1/s"},
            {"sim.compression_ratio",
             compressed > 0 ? static_cast<double>(raw) /
                                  static_cast<double>(compressed)
                            : 0.0,
             "x"},
            {"sim.replay_events_per_s",
             perSecond(tracer.totalItems("sim.replay"),
                       tracer.totalSeconds("sim.replay")),
             "1/s"},
            {"sim.replay_scalar_events_per_s",
             perSecond(tracer.totalItems("sim.replay_scalar"),
                       tracer.totalSeconds("sim.replay_scalar")),
             "1/s"},
            {"sim.interleave_events_per_s",
             perSecond(tracer.totalItems("sim.interleave"),
                       tracer.totalSeconds("sim.interleave")),
             "1/s"},
            {"sim.captured_events", static_cast<double>(captured),
             "count"},
            {"bench.trace_overhead_share",
             round_s * cells_per_s /
                     static_cast<double>(traced.front().cells.size()) -
                 1.0,
             "ratio"},
        };
        const std::string path =
            (fs::path(opt.work_dir) /
             ("spans-" + opt.workload + "-" + std::to_string(opt.seed) +
              ".json"))
                .string();
        if (!tracer.write(path, opt.workload, opt.seed))
            checks.fail("could not write " + path);
        else
            std::cerr << "perfbench: spans written to " << path << "\n";
    }

    std::cout << infoLine(opt, bench, rounds, checks) << "\n"
              << resultLine(checks, metrics) << std::endl;
    for (const std::string &e : checks.errors)
        std::cerr << "perfbench: check failed: " << e << "\n";
    return checks.correct() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseOptions(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n"
                  << "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--work-dir DIR] "
                     "[--commit ID] [--source-digest D]\n";
        return 2;
    }
    try {
        return run(opt);
    } catch (const std::invalid_argument &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 1;
    }
}
