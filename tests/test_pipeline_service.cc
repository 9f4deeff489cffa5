/**
 * @file
 * Unit tests for runner/pipeline_service: the request/response API
 * behind the suite runner. The invariants pinned here: the registry
 * path equals the suite path, cache policy Bypass equals a cache-less
 * service bit for bit, and concurrent cold misses against one on-disk
 * cache directory produce one coherent answer (no torn files, no
 * divergence between the threads that tuned the same cell).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "runner/pipeline_service.hh"
#include "runner/report.hh"
#include "runner/suite.hh"

namespace dmpb {
namespace {

TunerConfig
quickTuner()
{
    TunerConfig t;
    t.max_iterations = 2;
    t.impact_samples = 1;
    t.trace_cap = 128 * 1024;
    return t;
}

ServiceConfig
quickService(const std::string &cache_dir = "")
{
    ServiceConfig c;
    c.cluster = paperCluster5();
    c.tuner = quickTuner();
    c.cache.proxy_dir = cache_dir;
    c.cache.ref_dir = cache_dir;
    return c;
}

PipelineRequest
tinyRequest(const std::string &workload)
{
    PipelineRequest r;
    r.workload = workload;
    r.scale = Scale::Tiny;
    r.seed = 7;
    return r;
}

/**
 * The bit-identity contract: everything the pipeline *computed* is
 * equal. Cache markers (from_cache, and the iterations/evaluations
 * effort counters a hit-replay reports as 0/1) are deliberately NOT
 * compared -- they describe how the answer was obtained, not the
 * answer.
 */
void
expectBitIdentical(const WorkloadOutcome &a, const WorkloadOutcome &b)
{
    EXPECT_EQ(a.status, RunStatus::Ok);
    EXPECT_EQ(b.status, RunStatus::Ok);
    EXPECT_EQ(a.proxy.checksum, b.proxy.checksum);
    EXPECT_EQ(a.real.runtime_s, b.real.runtime_s);
    EXPECT_EQ(a.proxy.runtime_s, b.proxy.runtime_s);
    EXPECT_EQ(a.qualified, b.qualified);
    EXPECT_EQ(a.avg_accuracy, b.avg_accuracy);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(a.real.metrics[m], b.real.metrics[m])
            << metricName(m);
        EXPECT_EQ(a.proxy.metrics[m], b.proxy.metrics[m])
            << metricName(m);
    }
}

class PipelineServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLoggingEnabled(false); }
    void TearDown() override { setLoggingEnabled(true); }
};

TEST_F(PipelineServiceTest, RegistryPathEqualsSuitePath)
{
    // execute(request) resolves (workload, scale) through the
    // registry and applies the scale's tuner preset per request; the
    // one-shot CLI pre-scales the tuner and hands the suite a built
    // workload. Both must tune identically.
    PipelineService service(quickService());
    WorkloadOutcome resolved = service.execute(tinyRequest("terasort"));

    SuiteOptions options;
    options.cluster = paperCluster5();
    options.tuner = scaleTunerConfig(Scale::Tiny, quickTuner());
    options.seed = 7;
    options.workloads = {"terasort"};
    SuiteRunner runner(options);
    runner.addScaleWorkloads(Scale::Tiny);
    SuiteResult suite = runner.run();

    ASSERT_EQ(suite.outcomes.size(), 1u);
    expectBitIdentical(resolved, suite.outcomes[0]);
    // Including the serialized form, modulo the timing field.
    std::string a = writeOutcomeJson(resolved);
    std::string b = writeOutcomeJson(suite.outcomes[0]);
    auto strip = [](std::string s) {
        std::size_t at = s.find("\"elapsed_s\":");
        std::size_t end = s.find(',', at);
        return s.erase(at, end - at);
    };
    EXPECT_EQ(strip(a), strip(b));
}

TEST_F(PipelineServiceTest, UnknownWorkloadFailsWithoutThrowing)
{
    PipelineService service(quickService());
    PipelineRequest request = tinyRequest("no-such-workload");
    WorkloadOutcome out = service.execute(request);
    EXPECT_EQ(out.status, RunStatus::Failed);
    EXPECT_NE(out.error.find("no-such-workload"), std::string::npos);
}

TEST_F(PipelineServiceTest, TimeoutMarksRequestTimedOut)
{
    PipelineService service(quickService());
    PipelineRequest request = tinyRequest("terasort");
    request.timeout_s = 1e-9;
    WorkloadOutcome out = service.execute(request);
    EXPECT_EQ(out.status, RunStatus::TimedOut);
}

TEST_F(PipelineServiceTest, BypassPolicyEqualsCachelessBitForBit)
{
    const std::string dir = "test-psvc-bypass-cache";
    std::filesystem::remove_all(dir);

    PipelineService cached(quickService(dir));
    PipelineRequest request = tinyRequest("wordcount");

    // Populate every cache level, then bypass them.
    WorkloadOutcome cold = cached.execute(request);
    EXPECT_FALSE(cold.from_cache);
    request.cache_policy = CachePolicy::Bypass;
    WorkloadOutcome bypass = cached.execute(request);
    std::filesystem::remove_all(dir);

    EXPECT_FALSE(bypass.from_cache);
    EXPECT_FALSE(bypass.real_from_cache);
    expectBitIdentical(cold, bypass);
    // And the bypass wrote nothing back: stats show no new entries
    // beyond the cold run's.
    EXPECT_EQ(cached.referenceCacheStats().entries, 1u);
    EXPECT_EQ(cached.tunerCacheStats().entries, 1u);
}

TEST_F(PipelineServiceTest, MemoryAndDiskHitsReplayIdentically)
{
    const std::string dir = "test-psvc-levels-cache";
    std::filesystem::remove_all(dir);
    PipelineRequest request = tinyRequest("grep");

    PipelineService first(quickService(dir));
    WorkloadOutcome cold = first.execute(request);
    WorkloadOutcome mem_hit = first.execute(request);
    EXPECT_EQ(first.tunerCacheStats().hits, 1u);

    // A fresh service over the same directory has a cold memory
    // layer: this hit comes from disk.
    PipelineService second(quickService(dir));
    WorkloadOutcome disk_hit = second.execute(request);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(second.tunerCacheStats().hits, 0u);

    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(mem_hit.from_cache);
    EXPECT_TRUE(disk_hit.from_cache);
    EXPECT_TRUE(mem_hit.real_from_cache);
    EXPECT_TRUE(disk_hit.real_from_cache);
    expectBitIdentical(cold, mem_hit);
    expectBitIdentical(cold, disk_hit);
    expectBitIdentical(mem_hit, disk_hit);
}

TEST_F(PipelineServiceTest, ConcurrentColdMissesConverge)
{
    // Many threads race the same cold scenario cell against one
    // on-disk directory. Every thread that finds nothing published
    // yet measures and tunes the cell itself and publishes the same
    // .params and .ref files, so the atomic publish (core/cache_file)
    // is what keeps the files whole -- and every outcome is
    // bit-identical.
    const std::string dir = "test-psvc-stampede-cache";
    std::filesystem::remove_all(dir);
    PipelineService service(quickService(dir));
    PipelineRequest request = tinyRequest("terasort");

    constexpr std::size_t kThreads = 6;
    std::vector<WorkloadOutcome> outcomes(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            outcomes[i] = service.execute(request);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < kThreads; ++i) {
        EXPECT_EQ(outcomes[i].status, RunStatus::Ok) << i;
        expectBitIdentical(outcomes[0], outcomes[i]);
    }
    // The tuned-parameter artefact on disk is readable by a fresh
    // service (i.e. not torn by the concurrent publishers).
    PipelineService fresh(quickService(dir));
    WorkloadOutcome replay = fresh.execute(request);
    EXPECT_TRUE(replay.from_cache);
    expectBitIdentical(outcomes[0], replay);
    std::filesystem::remove_all(dir);
}

TEST_F(PipelineServiceTest, ConcurrentDistinctCellsShareOneDirectory)
{
    // Different scenario cells racing into one directory must not
    // cross-contaminate: each converges to its own solo-run result.
    const std::string dir = "test-psvc-mixed-cache";
    std::filesystem::remove_all(dir);
    const std::vector<std::string> names = {"terasort", "grep",
                                            "wordcount"};

    std::vector<WorkloadOutcome> solo(names.size());
    {
        PipelineService service(quickService());
        for (std::size_t i = 0; i < names.size(); ++i)
            solo[i] = service.execute(tinyRequest(names[i]));
    }

    PipelineService service(quickService(dir));
    std::vector<WorkloadOutcome> raced(names.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < names.size(); ++i) {
        threads.emplace_back([&, i] {
            raced[i] = service.execute(tinyRequest(names[i]));
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::filesystem::remove_all(dir);

    for (std::size_t i = 0; i < names.size(); ++i)
        expectBitIdentical(solo[i], raced[i]);
}

} // namespace
} // namespace dmpb
