/**
 * @file
 * Regression tests for the reference-measurement cache
 * (core/reference_cache), mirroring the proxy-cache hardening suite:
 *   - cold-vs-warm bit-identity: a cache-served measurement carries
 *     the exact runtime and metric doubles of the run that saved it,
 *   - corrupt / truncated / foreign files fall back to a fresh
 *     measurement (and are deleted) instead of throwing,
 *   - sanitized-key collisions stay isolated via the hashed filename
 *     plus the stored raw key,
 *   - quick and full configurations of the same workload key apart
 *     (via Workload::referenceDataBytes), as do clusters and seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/reference_cache.hh"
#include "sim/metrics.hh"
#include "stack/cluster.hh"
#include "workloads/workload.hh"

namespace dmpb {
namespace {

namespace fs = std::filesystem;

/** RAII temp cache dir so a failing test cannot leak state. */
struct TempCacheDir
{
    explicit TempCacheDir(std::string name) : path(std::move(name))
    {
        fs::remove_all(path);
    }
    ~TempCacheDir() { fs::remove_all(path); }

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

/** A reference result with awkward (non-round) doubles, so the
 *  round-trip genuinely exercises 17-digit serialisation. */
WorkloadResult
fakeResult(double scale = 1.0)
{
    WorkloadResult r;
    r.name = "Fake Workload";
    r.runtime_s = 1234.5678901234567 * scale;
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        r.metrics[m] = scale * (0.1 + static_cast<double>(i)) / 3.0;
    }
    return r;
}

/** Counts how often run() executes; returns fakeResult(scale). */
class CountingWorkload : public Workload
{
  public:
    explicit CountingWorkload(double scale = 1.0) : scale_(scale) {}

    std::string name() const override { return "Fake Workload"; }

    WorkloadResult
    run(const ClusterConfig &) const override
    {
        ++runs;
        return fakeResult(scale_);
    }

    std::vector<MotifWeight>
    motifWeights() const override
    {
        return {{"quick_sort", 1.0}};
    }

    std::uint64_t proxyDataBytes() const override { return 1 << 20; }

    mutable int runs = 0;

  private:
    double scale_;
};

std::string
testKey(const char *salt = "k")
{
    return referenceCacheKey("Fake Workload", salt, 1 << 20, 7);
}

// --------------------------------------------------------- round trip

TEST(ReferenceCache, SaveLoadRoundTripsBitExactly)
{
    TempCacheDir dir("test-ref-cache-roundtrip");
    WorkloadResult saved = fakeResult();
    ASSERT_TRUE(saveReference(dir.path, testKey(), saved));

    WorkloadResult loaded;
    ASSERT_TRUE(loadReference(dir.path, testKey(), loaded));
    // Bit-exact doubles, not approximate: the warm path must be
    // indistinguishable from the cold measurement in every report.
    EXPECT_EQ(loaded.runtime_s, saved.runtime_s);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(loaded.metrics[m], saved.metrics[m]) << metricName(m);
    }
}

TEST(ReferenceCache, MissingEntryLoadsNothing)
{
    TempCacheDir dir("test-ref-cache-missing");
    WorkloadResult loaded;
    EXPECT_FALSE(loadReference(dir.path, testKey(), loaded));
    EXPECT_FALSE(loadReference("no-such-dir-at-all", testKey(), loaded));
}

// ---------------------------------------------------- cold-vs-warm

TEST(ReferenceCache, ColdMeasuresWarmLoadsBitIdentically)
{
    TempCacheDir dir("test-ref-cache-warm");
    CountingWorkload workload;
    ClusterConfig cluster = paperCluster5();

    bool from_cache = true;
    WorkloadResult cold = measureWithCache(dir.path, testKey(),
                                           workload, cluster,
                                           &from_cache);
    EXPECT_FALSE(from_cache);
    EXPECT_EQ(workload.runs, 1);

    WorkloadResult warm = measureWithCache(dir.path, testKey(),
                                           workload, cluster,
                                           &from_cache);
    EXPECT_TRUE(from_cache);
    EXPECT_EQ(workload.runs, 1);  // served, not re-measured
    EXPECT_EQ(warm.runtime_s, cold.runtime_s);
    EXPECT_EQ(warm.name, cold.name);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(warm.metrics[m], cold.metrics[m]) << metricName(m);
    }
}

// ------------------------------------------------- file robustness

TEST(ReferenceCache, CorruptValueFallsBackAndDeletesFile)
{
    TempCacheDir dir("test-ref-cache-corrupt");
    ASSERT_TRUE(saveReference(dir.path, testKey(), fakeResult()));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);

    {
        std::ifstream in(files[0]);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        auto pos = content.find("runtime_s=");
        ASSERT_NE(pos, std::string::npos);
        content.replace(pos, std::string("runtime_s=").size() + 3,
                        "runtime_s=1x2");
        std::ofstream out(files[0]);
        out << content;
    }

    WorkloadResult loaded;
    EXPECT_FALSE(loadReference(dir.path, testKey(), loaded));
    EXPECT_FALSE(fs::exists(files[0]));  // dropped, next run re-measures
}

TEST(ReferenceCache, NonFiniteValuesFallBackAndDeleteFile)
{
    // from_chars parses "nan" and "inf"; no writer produces them, so
    // a file holding one is hostile and must not be served.
    for (const char *bad : {"nan", "inf", "-inf"}) {
        for (const std::string field : {"runtime_s=", "IPC="}) {
            TempCacheDir dir("test-ref-cache-nonfinite");
            ASSERT_TRUE(saveReference(dir.path, testKey(), fakeResult()));
            auto files = dir.files();
            ASSERT_EQ(files.size(), 1u);
            {
                std::ifstream in(files[0]);
                std::string content(
                    (std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
                auto pos = content.find(field);
                ASSERT_NE(pos, std::string::npos) << field;
                pos += field.size();
                content.replace(pos, content.find('\n', pos) - pos, bad);
                std::ofstream out(files[0]);
                out << content;
            }
            WorkloadResult loaded;
            EXPECT_FALSE(loadReference(dir.path, testKey(), loaded))
                << field << bad;
            EXPECT_FALSE(fs::exists(files[0])) << field << bad;
        }
    }
}

TEST(ReferenceCache, TruncatedFileFallsBackAndDeletesFile)
{
    TempCacheDir dir("test-ref-cache-truncated");
    ASSERT_TRUE(saveReference(dir.path, testKey(), fakeResult()));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);

    // Drop the tail (as a crashed writer would).
    {
        std::ifstream in(files[0]);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        std::ofstream out(files[0]);
        out << content.substr(0, content.size() / 2);
    }

    WorkloadResult loaded;
    EXPECT_FALSE(loadReference(dir.path, testKey(), loaded));
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(ReferenceCache, TrailingGarbageFallsBackAndDeletesFile)
{
    TempCacheDir dir("test-ref-cache-trailing");
    ASSERT_TRUE(saveReference(dir.path, testKey(), fakeResult()));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);
    {
        std::ofstream out(files[0], std::ios::app);
        out << "extra=1\n";
    }
    WorkloadResult loaded;
    EXPECT_FALSE(loadReference(dir.path, testKey(), loaded));
    EXPECT_FALSE(fs::exists(files[0]));
}

TEST(ReferenceCache, ForeignFileAtKeyPathIsRejectedAndDeleted)
{
    TempCacheDir dir("test-ref-cache-foreign");
    // Write a valid-looking file under a *different* raw key, then
    // copy it to the path of our key: the stored header key must
    // reject it (a filename-level collision can never smuggle one
    // workload's reference into another's pipeline).
    ASSERT_TRUE(saveReference(dir.path, testKey("other"), fakeResult()));
    auto files = dir.files();
    ASSERT_EQ(files.size(), 1u);
    ASSERT_TRUE(saveReference(dir.path, testKey(), fakeResult()));
    auto all = dir.files();
    ASSERT_EQ(all.size(), 2u);
    fs::path mine = all[0] == files[0] ? all[1] : all[0];
    fs::copy_file(files[0], mine,
                  fs::copy_options::overwrite_existing);

    WorkloadResult loaded;
    EXPECT_FALSE(loadReference(dir.path, testKey(), loaded));
    EXPECT_FALSE(fs::exists(mine));
}

// ----------------------------------------------------- key isolation

TEST(ReferenceCache, SanitizedKeyCollisionsStayIsolated)
{
    TempCacheDir dir("test-ref-cache-collision");
    // "k-means" and "k_means" sanitize to the same stem; the hashed
    // filename keeps their entries apart and both round-trip.
    std::string a = referenceCacheKey("k-means", "c", 1, 1);
    std::string b = referenceCacheKey("k_means", "c", 1, 1);
    ASSERT_TRUE(saveReference(dir.path, a, fakeResult(1.0)));
    ASSERT_TRUE(saveReference(dir.path, b, fakeResult(2.0)));
    EXPECT_EQ(dir.files().size(), 2u);

    WorkloadResult ra, rb;
    ASSERT_TRUE(loadReference(dir.path, a, ra));
    ASSERT_TRUE(loadReference(dir.path, b, rb));
    EXPECT_EQ(ra.runtime_s, fakeResult(1.0).runtime_s);
    EXPECT_EQ(rb.runtime_s, fakeResult(2.0).runtime_s);
}

TEST(ReferenceCache, QuickAndFullConfigurationsKeyApart)
{
    // The quick CNNs train ~1000x fewer pixels; referenceDataBytes
    // reflects that, so their cache keys can never alias the full
    // Section III-B configuration (whose runtime is ~100x larger).
    auto full = makeAlexNet();
    auto quick = makeAlexNet(100, 128);
    EXPECT_NE(full->referenceDataBytes(), quick->referenceDataBytes());
    EXPECT_NE(
        referenceCacheKey("AlexNet", "c", full->referenceDataBytes(), 9),
        referenceCacheKey("AlexNet", "c", quick->referenceDataBytes(),
                          9));
    // Cluster and seed separate keys too.
    EXPECT_NE(referenceCacheKey("AlexNet", "paper5", 1, 9),
              referenceCacheKey("AlexNet", "paper3", 1, 9));
    EXPECT_NE(referenceCacheKey("AlexNet", "paper5", 1, 9),
              referenceCacheKey("AlexNet", "paper5", 1, 10));
}

TEST(ReferenceCache, BigDataWorkloadsScaleReferenceBytesWithInput)
{
    EXPECT_GT(makeTeraSort(100ULL << 30)->referenceDataBytes(),
              100 * makeTeraSort(128ULL << 20)->referenceDataBytes() /
                  128);
    EXPECT_NE(makePageRank(1ULL << 26)->referenceDataBytes(),
              makePageRank(1ULL << 16)->referenceDataBytes());
}

} // namespace
} // namespace dmpb
