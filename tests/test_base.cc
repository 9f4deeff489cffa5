/**
 * @file
 * Unit tests for src/base: RNG, Zipf, thread pool, stats, units, table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "base/names.hh"
#include "base/rng.hh"
#include "base/stats_util.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"

namespace dmpb {
namespace {

TEST(Names, ShortNameTakesLastToken)
{
    EXPECT_EQ(shortName("Hadoop TeraSort"), "TeraSort");
    EXPECT_EQ(shortName("TensorFlow Inception-V3"), "Inception-V3");
    EXPECT_EQ(shortName("TeraSort"), "TeraSort");
    EXPECT_EQ(shortName(""), "");
    EXPECT_EQ(shortName("trailing "), "");
}

TEST(Names, CanonNameFoldsCaseAndPunctuation)
{
    EXPECT_EQ(canonName("K-means"), "kmeans");
    EXPECT_EQ(canonName("kmeans"), "kmeans");
    EXPECT_EQ(canonName("K_MEANS"), "kmeans");
    EXPECT_EQ(canonName("Inception-V3"), "inceptionv3");
    EXPECT_EQ(canonName("--- "), "");
}

TEST(Names, SanitizeFileStemKeepsAlnumOnly)
{
    EXPECT_EQ(sanitizeFileStem("k-means seed9"), "k_means_seed9");
    EXPECT_EQ(sanitizeFileStem("abc123"), "abc123");
    // Lossy by design: distinct keys may collide on the stem (cache
    // filenames append fnv1a64 of the raw key to disambiguate).
    EXPECT_EQ(sanitizeFileStem("k-means"), sanitizeFileStem("k_means"));
}

TEST(Names, Fnv1a64MatchesReferenceVectors)
{
    // Standard FNV-1a test vectors: the offset basis for "", and the
    // published hash of "a". Pinned so the function can never drift
    // (cache filenames and seeds on disk depend on it).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(fnv1a64("k-means"), fnv1a64("k_means"));
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextU64RespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000000007ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextU64(bound), bound);
    }
}

TEST(Rng, NextI64CoversRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.nextI64(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats st;
    for (int i = 0; i < 200000; ++i)
        st.add(rng.nextGaussian());
    EXPECT_NEAR(st.mean(), 0.0, 0.02);
    EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng base(42);
    Rng a = base.split(1), b = base.split(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipf, SamplesWithinUniverse)
{
    Rng rng(5);
    ZipfSampler z(1000, 0.9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SkewConcentratesOnHead)
{
    Rng rng(5);
    ZipfSampler z(10000, 0.9);
    std::uint64_t head = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        head += z.sample(rng) < 100;
    // With theta=0.9 the first 1% of ranks should attract far more
    // than 1% of the probability mass.
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(Zipf, ZeroThetaIsNearUniform)
{
    Rng rng(6);
    ZipfSampler z(1000, 0.0);
    std::uint64_t head = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        head += z.sample(rng) < 100;
    EXPECT_NEAR(static_cast<double>(head) / n, 0.1, 0.03);
}

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndexSpace)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(257, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle();  // must not deadlock
    SUCCEED();
}

// Regression (static-analysis sweep): a throwing parallelFor task
// used to unwind through the worker thread and std::terminate the
// process. The exception must instead propagate to the caller, and
// deterministically so: the lowest-index failure wins, regardless of
// worker scheduling (same contract as runShardedJobs).
TEST(ThreadPool, ParallelForPropagatesLowestIndexException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(64, [&](std::size_t i) {
            ran.fetch_add(1);
            if (i == 7 || i == 55)
                throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the task exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 7");
    }
    // Every chunk still ran to its failure point; the pool survives.
    EXPECT_GT(ran.load(), 0);
    std::atomic<int> after{0};
    pool.parallelFor(16, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 16);
}

TEST(RunningStats, MeanAndVariance)
{
    RunningStats st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(v);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.variance(), 4.0);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(77);
    RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextGaussian() * 3 + 1;
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.count(), all.count());
}

TEST(StatsUtil, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
}

TEST(StatsUtil, PearsonPerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4}, y{2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> yn{8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(StatsUtil, MedianEvenOdd)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(Units, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(1.5), "1.50 s");
    EXPECT_EQ(formatSeconds(0.0015), "1.5 ms");
    EXPECT_EQ(formatSeconds(7200.0), "2h00m");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::string s = t.render();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
    EXPECT_NE(s.find("xx"), std::string::npos);
}

} // namespace
} // namespace dmpb
