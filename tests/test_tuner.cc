/**
 * @file
 * Regression tests for the parallel batched auto-tuner and the
 * tuned-parameter cache hardening:
 *   - corrupt / truncated / legacy cache files fall back to tuning
 *     (and are deleted) instead of throwing into the suite run,
 *   - sanitized-key collisions ("k-means" vs "k_means") stay
 *     isolated via the hashed filename + stored raw key,
 *   - a proxy already within the deviation gate reports zero
 *     iterations, and an unqualified stored vector is surfaced as
 *     such on cache hits,
 *   - a deadline that trips inside the impact sweep skips only the
 *     candidates with an unsimulated edge, and nothing is cached,
 *   - the speculative batched tuner produces a bit-identical
 *     TunerReport for every jobs value, on big-data and AI proxies.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "core/auto_tuner.hh"
#include "core/proxy_benchmark.hh"
#include "core/proxy_cache.hh"
#include "core/proxy_factory.hh"
#include "sim/machine.hh"
#include "stack/cluster.hh"
#include "workloads/workload.hh"

namespace dmpb {
namespace {

namespace fs = std::filesystem;

ProxyBenchmark
tinyProxy()
{
    MotifParams base;
    base.data_size = 4 * kMiB;
    base.chunk_size = 256 * kKiB;
    base.num_tasks = 4;
    ProxyBenchmark proxy("tiny", base);
    proxy.addEdge("quick_sort", 0.5);
    proxy.addEdge("min_max", 0.3);
    proxy.addEdge("md5_hash", 0.2);
    return proxy;
}

/** RAII temp cache dir so a failing test cannot leak state. */
struct TempCacheDir
{
    explicit TempCacheDir(std::string name) : path(std::move(name))
    {
        fs::remove_all(path);
    }
    ~TempCacheDir() { fs::remove_all(path); }

    /** All .params files currently in the directory. */
    std::vector<fs::path>
    files() const
    {
        std::vector<fs::path> out;
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(path, ec))
            out.push_back(e.path());
        return out;
    }

    std::string path;
};

// ------------------------------------------------- cache robustness

TEST(ProxyCacheRobustness, CorruptValueFallsBackAndDeletesFile)
{
    TempCacheDir dir("test-tuner-cache-corrupt");
    ProxyBenchmark saved = tinyProxy();
    ASSERT_TRUE(saveProxyParams(dir.path, "corrupt-key", saved));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);

    // Corrupt one value in place: std::stod would have thrown here;
    // from_chars-based parsing must reject the whole file instead.
    {
        std::ifstream in(files[0]);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        auto pos = content.find("data_size=");
        ASSERT_NE(pos, std::string::npos);
        content.replace(pos, std::string("data_size=").size() + 3,
                        "data_size=12x");
        std::ofstream out(files[0]);
        out << content;
    }

    ProxyBenchmark loaded = tinyProxy();
    EXPECT_FALSE(loadProxyParams(dir.path, "corrupt-key", loaded));
    // The bad file is gone, so the next tuneWithCache re-tunes.
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(ProxyCacheRobustness, TruncatedFileFallsBackAndDeletesFile)
{
    TempCacheDir dir("test-tuner-cache-truncated");
    ProxyBenchmark saved = tinyProxy();
    ASSERT_TRUE(saveProxyParams(dir.path, "truncated-key", saved));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);

    // Drop the last line (as a crashed writer would).
    {
        std::ifstream in(files[0]);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        auto cut = content.rfind('=');
        ASSERT_NE(cut, std::string::npos);
        std::ofstream out(files[0]);
        out << content.substr(0, cut);
    }

    ProxyBenchmark loaded = tinyProxy();
    EXPECT_FALSE(loadProxyParams(dir.path, "truncated-key", loaded));
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(ProxyCacheRobustness, LegacyFormatInvalidatedOnce)
{
    TempCacheDir dir("test-tuner-cache-legacy");
    ProxyBenchmark saved = tinyProxy();
    ASSERT_TRUE(saveProxyParams(dir.path, "legacy-key", saved));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);

    // Rewrite as the pre-v2 format: bare name=value lines, no header.
    {
        std::ofstream out(files[0]);
        for (const TunableParam &p : saved.parameters())
            out << p.name << "=" << p.value << "\n";
    }
    ProxyBenchmark loaded = tinyProxy();
    EXPECT_FALSE(loadProxyParams(dir.path, "legacy-key", loaded));
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(ProxyCacheRobustness, SanitizedKeyCollisionsAreIsolated)
{
    // "k-means" and "k_means" sanitize to the same stem; before the
    // hashed filename they shared one file, and because distinct
    // workloads expose identical parameter-name lists the name check
    // passed and one silently loaded the other's tuned P.
    TempCacheDir dir("test-tuner-cache-collide");
    ProxyBenchmark a = tinyProxy();
    a.setParameter("data_size", 8.0 * kMiB);
    ASSERT_TRUE(saveProxyParams(dir.path, "k-means", a));
    ProxyBenchmark b = tinyProxy();
    b.setParameter("data_size", 32.0 * kMiB);
    ASSERT_TRUE(saveProxyParams(dir.path, "k_means", b));
    EXPECT_EQ(dir.files().size(), 2u);  // distinct files

    ProxyBenchmark load_a = tinyProxy();
    ASSERT_TRUE(loadProxyParams(dir.path, "k-means", load_a));
    EXPECT_DOUBLE_EQ(load_a.parameter("data_size"), 8.0 * kMiB);
    ProxyBenchmark load_b = tinyProxy();
    ASSERT_TRUE(loadProxyParams(dir.path, "k_means", load_b));
    EXPECT_DOUBLE_EQ(load_b.parameter("data_size"), 32.0 * kMiB);
}

TEST(ProxyCacheRobustness, StoredRawKeyIsVerified)
{
    // Even if two keys ever landed on the same file (hash collision,
    // manual copy), the raw key stored on the first line must reject
    // the foreign content.
    TempCacheDir dir("test-tuner-cache-rawkey");
    ProxyBenchmark a = tinyProxy();
    ASSERT_TRUE(saveProxyParams(dir.path, "workload-A", a));
    auto a_files = dir.files();
    ASSERT_EQ(a_files.size(), 1u);
    ASSERT_TRUE(saveProxyParams(dir.path, "workload-B", a));
    fs::path b_file;
    for (const auto &f : dir.files()) {
        if (f != a_files[0])
            b_file = f;
    }
    ASSERT_FALSE(b_file.empty());

    // Simulate the collision: A's content under B's filename.
    fs::copy_file(a_files[0], b_file,
                  fs::copy_options::overwrite_existing);
    ProxyBenchmark loaded = tinyProxy();
    EXPECT_FALSE(loadProxyParams(dir.path, "workload-B", loaded));
    EXPECT_FALSE(fs::exists(b_file));
    // A's own file is untouched and still loads.
    EXPECT_TRUE(loadProxyParams(dir.path, "workload-A", loaded));
}

// ------------------------------------------- report bookkeeping fixes

TEST(TunerReportFixes, ZeroIterationsWhenAlreadyQualified)
{
    ProxyBenchmark proxy = tinyProxy();
    TunerConfig cfg;
    cfg.trace_cap = 256 * kKiB;
    MachineConfig machine = westmereE5645();
    ProxyResult self = proxy.execute(machine, cfg.trace_cap);

    // Target == the proxy's own metrics: within the gate before any
    // adjustment, so the report must say 0 iterations (it used to
    // say 1) and a single evaluation.
    AutoTuner tuner(self.metrics, cfg);
    TunerReport rep = tuner.tune(proxy, machine);
    EXPECT_TRUE(rep.qualified);
    EXPECT_EQ(rep.iterations, 0u);
    EXPECT_EQ(rep.evaluations, 1u);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_LE(rep.max_deviation, cfg.threshold);
}

TEST(TunerReportFixes, UnqualifiedFlagSurfacedOnCacheHit)
{
    TempCacheDir dir("test-tuner-cache-qualified");
    ProxyBenchmark proxy = tinyProxy();
    TunerConfig cfg;
    cfg.trace_cap = 256 * kKiB;
    MachineConfig machine = westmereE5645();
    MetricVector target =
        proxy.execute(machine, cfg.trace_cap).metrics;

    // Persist the vector as NOT qualified (as the tuner does when it
    // gives up): a later cache hit must not report success, even
    // though re-execution happens to sit within the gate.
    ASSERT_TRUE(saveProxyParams(dir.path, "unq", proxy,
                                /*qualified=*/false));
    bool stored = true;
    ProxyBenchmark probe = tinyProxy();
    ASSERT_TRUE(loadProxyParams(dir.path, "unq", probe, &stored));
    EXPECT_FALSE(stored);

    ProxyBenchmark hit = tinyProxy();
    TunerReport rep =
        tuneWithCache(dir.path, "unq", hit, target, machine, cfg);
    EXPECT_TRUE(rep.from_cache);
    EXPECT_EQ(rep.iterations, 0u);
    EXPECT_LE(rep.max_deviation, cfg.threshold);  // measured fine...
    EXPECT_FALSE(rep.qualified);  // ...but never tuned to the gate
}

TEST(TunerReportFixes, QualifiedCacheHitStaysQualified)
{
    TempCacheDir dir("test-tuner-cache-hit");
    ProxyBenchmark proxy = tinyProxy();
    TunerConfig cfg;
    cfg.trace_cap = 256 * kKiB;
    MachineConfig machine = westmereE5645();
    MetricVector target =
        proxy.execute(machine, cfg.trace_cap).metrics;

    // Miss: tunes (instantly qualified) and stores qualified=1.
    ProxyBenchmark first = tinyProxy();
    TunerReport miss =
        tuneWithCache(dir.path, "q", first, target, machine, cfg);
    EXPECT_FALSE(miss.from_cache);
    EXPECT_TRUE(miss.qualified);

    // Hit: restored, re-executed, still qualified.
    ProxyBenchmark second = tinyProxy();
    TunerReport hit =
        tuneWithCache(dir.path, "q", second, target, machine, cfg);
    EXPECT_TRUE(hit.from_cache);
    EXPECT_TRUE(hit.qualified);
    EXPECT_EQ(hit.evaluations, 1u);
}

TEST(TunerReportFixes, InterruptedUnqualifiedSearchIsNotCached)
{
    TempCacheDir dir("test-tuner-cache-interrupted");
    TunerConfig cfg;
    cfg.trace_cap = 256 * kKiB;
    cfg.max_iterations = 2;
    cfg.impact_samples = 1;
    MachineConfig machine = westmereE5645();
    ProxyBenchmark probe = tinyProxy();
    MetricVector target =
        probe.execute(machine, cfg.trace_cap).metrics;
    target[Metric::Ipc] *= 3.0;  // unreachable: never qualifies

    // Deadline already expired: the search is cut short after the
    // baseline. The truncated, unqualified vector must NOT be
    // persisted -- it would short-circuit every future run.
    cfg.should_stop = []() { return true; };
    ProxyBenchmark first = tinyProxy();
    TunerReport rep =
        tuneWithCache(dir.path, "intr", first, target, machine, cfg);
    EXPECT_TRUE(rep.interrupted);
    EXPECT_FALSE(rep.qualified);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_TRUE(dir.files().empty());

    // A later unbounded run gets its full budget and does persist
    // (a full-budget search is deterministic, qualified or not).
    cfg.should_stop = nullptr;
    ProxyBenchmark second = tinyProxy();
    TunerReport full =
        tuneWithCache(dir.path, "intr", second, target, machine, cfg);
    EXPECT_FALSE(full.from_cache);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(dir.files().size(), 1u);
}

TEST(TunerReportFixes, StopMidImpactSweepSkipsOnlyUnsimulatedCandidates)
{
    TempCacheDir dir("test-tuner-cache-midsweep");
    TunerConfig cfg;
    cfg.trace_cap = 256 * kKiB;
    cfg.impact_samples = 2;
    MachineConfig machine = westmereE5645();
    ProxyBenchmark probe = tinyProxy();
    MetricVector target =
        probe.execute(machine, cfg.trace_cap).metrics;
    target[Metric::Ipc] *= 3.0;  // unreachable: never qualifies

    // The uninterrupted sweep alone: the baseline plus every impact
    // candidate.
    TunerConfig sweep_only = cfg;
    sweep_only.max_iterations = 0;
    ProxyBenchmark swept = tinyProxy();
    const std::uint32_t full_sweep =
        AutoTuner(target, sweep_only).tune(swept, machine).evaluations;

    for (std::size_t jobs : {1, 4}) {
        // Two edge simulations, then the deadline trips inside the
        // impact sweep (the baseline is never polled).
        auto polls = std::make_shared<std::atomic<int>>(0);
        cfg.jobs = jobs;
        cfg.should_stop = [polls]() { return polls->fetch_add(1) >= 2; };
        ProxyBenchmark proxy = tinyProxy();
        TunerReport rep = tuneWithCache(dir.path, "midsweep", proxy,
                                        target, machine, cfg);
        EXPECT_GT(polls->load(), 2) << "jobs " << jobs;
        EXPECT_TRUE(rep.interrupted) << "jobs " << jobs;
        EXPECT_FALSE(rep.qualified) << "jobs " << jobs;
        EXPECT_EQ(rep.iterations, 0u) << "jobs " << jobs;
        // Candidates served entirely from the memo (weight moves)
        // still count; those with a skipped edge stay unexecuted.
        EXPECT_GT(rep.evaluations, 1u) << "jobs " << jobs;
        EXPECT_LT(rep.evaluations, full_sweep) << "jobs " << jobs;
        EXPECT_TRUE(dir.files().empty()) << "jobs " << jobs;
    }
}

// ------------------------------------------- parallel determinism

/**
 * Tune @p workload's proxy toward @p target with 1, 3 and 4 workers
 * (3 does not divide the speculation width of 4): the whole report
 * and the tuned parameter vector must match bit for bit.
 */
void
expectTunerReportIndependentOfJobs(const Workload &workload,
                                   const MetricVector &target)
{
    auto tuneWith = [&](std::size_t jobs) {
        ProxyBenchmark proxy = decomposeWorkload(workload);
        TunerConfig cfg;
        cfg.max_iterations = 3;
        cfg.impact_samples = 1;
        cfg.trace_cap = 128 * kKiB;
        cfg.jobs = jobs;
        AutoTuner tuner(target, cfg);
        TunerReport rep = tuner.tune(proxy, westmereE5645());
        return std::make_pair(rep, proxy.parameters());
    };

    auto [serial, serial_params] = tuneWith(1);
    EXPECT_GT(serial.evaluations, 1u);  // the search actually ran
    for (std::size_t jobs : {3, 4}) {
        auto [parallel, parallel_params] = tuneWith(jobs);
        // The speculative-descent width is independent of the job
        // count, candidates are enumerated and merged in a fixed
        // order, and acceptance ties break by rank -- so the whole
        // report matches bit for bit.
        EXPECT_EQ(serial.evaluations, parallel.evaluations) << jobs;
        EXPECT_EQ(serial.iterations, parallel.iterations) << jobs;
        EXPECT_EQ(serial.qualified, parallel.qualified) << jobs;
        EXPECT_EQ(serial.max_deviation, parallel.max_deviation) << jobs;
        EXPECT_EQ(serial.avg_accuracy, parallel.avg_accuracy) << jobs;
        EXPECT_EQ(serial.final_result.checksum,
                  parallel.final_result.checksum)
            << jobs;
        for (Metric m : accuracyMetricSet()) {
            EXPECT_EQ(serial.proxy_metrics[m], parallel.proxy_metrics[m])
                << metricName(m) << " jobs " << jobs;
        }
        ASSERT_EQ(serial_params.size(), parallel_params.size());
        for (std::size_t i = 0; i < serial_params.size(); ++i) {
            EXPECT_EQ(serial_params[i].value, parallel_params[i].value)
                << serial_params[i].name << " jobs " << jobs;
        }
    }
}

TEST(ParallelTuner, ReportIsBitIdenticalForAnyJobCount)
{
    auto w = makeTeraSort(2ULL << 30);
    WorkloadResult real = w->run(paperCluster5());
    expectTunerReportIndependentOfJobs(*w, real.metrics);
}

TEST(ParallelTuner, AiReportIsBitIdenticalForAnyJobCount)
{
    auto w = makeAlexNet(10, 32);
    WorkloadResult real = w->run(paperCluster5());
    expectTunerReportIndependentOfJobs(*w, real.metrics);
}

} // namespace
} // namespace dmpb
