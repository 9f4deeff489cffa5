/**
 * @file
 * Unit tests for the suite-runner subsystem: registration and
 * selection, parallel-execution determinism under a fixed seed,
 * failure/timeout isolation, and the JSON report shape.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/colocation.hh"
#include "runner/cli_parse.hh"
#include "runner/report.hh"
#include "runner/suite.hh"
#include "stack/cluster.hh"

namespace dmpb {
namespace {

/** Quick tuner budget so one pipeline runs in well under a second. */
TunerConfig
quickTuner()
{
    TunerConfig t;
    t.max_iterations = 2;
    t.impact_samples = 1;
    t.trace_cap = 128 * 1024;
    return t;
}

SuiteOptions
quickOptions()
{
    SuiteOptions o;
    o.cluster = paperCluster5();
    o.tuner = quickTuner();
    o.seed = 7;
    return o;  // no cache dir: memoisation off by default in tests
}

/** A workload whose run() always throws (failure-isolation probe). */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "Broken Workload"; }

    WorkloadResult
    run(const ClusterConfig &) const override
    {
        throw std::runtime_error("synthetic pipeline failure");
    }

    std::vector<MotifWeight>
    motifWeights() const override
    {
        return {{"quick_sort", 1.0}};
    }

    std::uint64_t proxyDataBytes() const override { return 1 << 20; }
};

class RunnerTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLoggingEnabled(false); }
    void TearDown() override { setLoggingEnabled(true); }
};

TEST_F(RunnerTest, RegistersEveryRegistryWorkload)
{
    SuiteRunner runner(quickOptions());
    runner.addPaperWorkloads();
    std::vector<std::string> names = runner.registeredNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "TeraSort");
    EXPECT_EQ(names[1], "K-means");
    EXPECT_EQ(names[2], "PageRank");
    EXPECT_EQ(names[3], "AlexNet");
    EXPECT_EQ(names[4], "Inception-V3");
    EXPECT_EQ(names[5], "Grep");
    EXPECT_EQ(names[6], "WordCount");
    EXPECT_EQ(names[7], "NaiveBayes");
}

TEST_F(RunnerTest, RegisteredNamesMatchRegistryEnumeration)
{
    // The --list output is registeredNames(); it must be exactly the
    // registry enumeration, at every scale.
    for (Scale s : {Scale::Tiny, Scale::Quick, Scale::Paper}) {
        SuiteRunner runner(quickOptions());
        runner.addScaleWorkloads(s);
        EXPECT_EQ(runner.registeredNames(),
                  WorkloadRegistry::instance().names())
            << scaleName(s);
    }
}

TEST_F(RunnerTest, SelectionFiltersByShortNameCaseInsensitive)
{
    SuiteOptions options = quickOptions();
    options.workloads = {"TERASORT"};
    SuiteRunner runner(options);
    runner.addQuickWorkloads();
    SuiteResult result = runner.run();
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes[0].short_name, "TeraSort");
    EXPECT_EQ(result.outcomes[0].status, RunStatus::Ok);
}

TEST_F(RunnerTest, SelectionFindsTheNewTextWorkloads)
{
    SuiteOptions options = quickOptions();
    options.workloads = {"grep"};
    SuiteRunner runner(options);
    runner.addScaleWorkloads(Scale::Tiny);
    SuiteResult result = runner.run();
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes[0].short_name, "Grep");
    EXPECT_EQ(result.outcomes[0].name, "Hadoop Grep");
    EXPECT_EQ(result.outcomes[0].status, RunStatus::Ok);
}

TEST_F(RunnerTest, DuplicateSelectionsStayDeduplicated)
{
    SuiteOptions options = quickOptions();
    options.workloads = {"wordcount", "WordCount", "WORDCOUNT"};
    SuiteRunner runner(options);
    runner.addScaleWorkloads(Scale::Tiny);
    SuiteResult result = runner.run();
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes[0].short_name, "WordCount");
}

TEST_F(RunnerTest, UnknownWorkloadSelectionThrows)
{
    SuiteOptions options = quickOptions();
    options.workloads = {"no-such-workload"};
    SuiteRunner runner(options);
    runner.addQuickWorkloads();
    try {
        runner.run();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The diagnostic names the offender and points at --list.
        EXPECT_NE(std::string(e.what()).find("no-such-workload"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--list"),
                  std::string::npos);
    }
}

TEST_F(RunnerTest, UnknownLlcPolicySelectionThrows)
{
    // The --colocate selection path mirrors workload selection: an
    // unknown --llc-policy is a usage error pointing at --list.
    ColocationSpec spec;
    spec.workloads = {"grep", "kmeans"};
    spec.policy = "no-such-policy";
    try {
        runColocation(spec, paperCluster5(), CacheConfig{},
                      CachePolicy::Use);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("no-such-policy"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--list"),
                  std::string::npos);
    }
}

// ------------------------------------------------- CLI flag parsing

/** Expects fn() to throw std::invalid_argument mentioning every
 * fragment; the diagnostic must name the flag so the user knows which
 * argument to fix. */
template <typename Fn>
void
expectFlagError(Fn fn, const std::vector<std::string> &fragments)
{
    try {
        fn();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        for (const std::string &fragment : fragments) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << "diagnostic '" << e.what() << "' lacks '"
                << fragment << "'";
        }
    }
}

TEST_F(RunnerTest, U64FlagParsesExactDecimal)
{
    EXPECT_EQ(cli::parseU64Flag("--jobs", "0"), 0u);
    EXPECT_EQ(cli::parseU64Flag("--jobs", "4"), 4u);
    EXPECT_EQ(cli::parseU64Flag("--seed", "18446744073709551615"),
              UINT64_MAX);
}

TEST_F(RunnerTest, U64FlagRejectsTrailingGarbage)
{
    // The historical strtoull parser read "4x" as 4; the suite then
    // ran with a silently truncated value. Now it is a usage error.
    expectFlagError([] { cli::parseU64Flag("--sim-shards", "4x"); },
                    {"--sim-shards", "4x"});
    expectFlagError([] { cli::parseU64Flag("--jobs", "1 2"); },
                    {"--jobs"});
    expectFlagError([] { cli::parseU64Flag("--jobs", "0x10"); },
                    {"--jobs"});
}

TEST_F(RunnerTest, U64FlagRejectsSignWhitespaceAndEmpty)
{
    // strtoull wrapped "-4" around to 2^64-4; from_chars refuses any
    // sign, leading whitespace, or empty string outright.
    expectFlagError([] { cli::parseU64Flag("--jobs", "-4"); },
                    {"--jobs", "-4"});
    expectFlagError([] { cli::parseU64Flag("--jobs", "+4"); },
                    {"--jobs"});
    expectFlagError([] { cli::parseU64Flag("--jobs", " 4"); },
                    {"--jobs"});
    expectFlagError([] { cli::parseU64Flag("--jobs", ""); },
                    {"--jobs"});
}

TEST_F(RunnerTest, U64FlagRejectsOverflowNamingTheFlag)
{
    // strtoull saturated to ULLONG_MAX and reported success.
    expectFlagError(
        [] { cli::parseU64Flag("--seed", "99999999999999999999"); },
        {"--seed", "range"});
}

TEST_F(RunnerTest, DoubleFlagParsesPlainNumbers)
{
    EXPECT_DOUBLE_EQ(cli::parseDoubleFlag("--timeout", "1.5"), 1.5);
    EXPECT_DOUBLE_EQ(cli::parseDoubleFlag("--threshold", "-2"), -2.0);
    EXPECT_DOUBLE_EQ(cli::parseDoubleFlag("--timeout", "1e3"), 1000.0);
}

TEST_F(RunnerTest, DoubleFlagRejectsGarbageInfNan)
{
    expectFlagError([] { cli::parseDoubleFlag("--timeout", "1.5x"); },
                    {"--timeout", "1.5x"});
    expectFlagError([] { cli::parseDoubleFlag("--timeout", ""); },
                    {"--timeout"});
    // strtod accepted these; no runner flag means anything non-finite
    // or hexadecimal.
    expectFlagError([] { cli::parseDoubleFlag("--timeout", "inf"); },
                    {"--timeout"});
    expectFlagError([] { cli::parseDoubleFlag("--timeout", "nan"); },
                    {"--timeout"});
    expectFlagError([] { cli::parseDoubleFlag("--timeout", "0x10"); },
                    {"--timeout"});
}

TEST_F(RunnerTest, ReplayModeFlagParsesAndRejectsNamingOptions)
{
    EXPECT_EQ(cli::parseReplayModeFlag("--sim-replay", "vector"),
              ReplayMode::Vectorized);
    EXPECT_EQ(cli::parseReplayModeFlag("--sim-replay", "scalar"),
              ReplayMode::Scalar);
    // Unknown enum values fail fast like unknown workloads/policies:
    // std::invalid_argument naming the offender and the valid set.
    expectFlagError(
        [] { cli::parseReplayModeFlag("--sim-replay", "turbo"); },
        {"turbo", "--sim-replay", "vector", "scalar"});
    expectFlagError(
        [] { cli::parseReplayModeFlag("--sim-replay", "Vector"); },
        {"Vector"});
}

TEST_F(RunnerTest, ClusterByNameResolvesAndRejectsNamingOptions)
{
    EXPECT_EQ(clusterByName("paper5").node.name,
              paperCluster5().node.name);
    EXPECT_EQ(clusterByName("paper5").num_nodes, 5u);
    EXPECT_EQ(clusterByName("paper3").num_nodes, 3u);
    EXPECT_EQ(clusterByName("haswell3").node.name,
              haswellCluster3().node.name);
    EXPECT_EQ(clusterByName("accel3").node.name,
              accelCluster3().node.name);
    EXPECT_TRUE(clusterByName("accel3").node.accel.present);
    expectFlagError([] { clusterByName("power9"); },
                    {"power9", "paper5", "paper3", "haswell3",
                     "accel3"});
}

TEST_F(RunnerTest, ParallelExecutionIsDeterministicUnderFixedSeed)
{
    auto runSuite = [](std::size_t jobs) {
        SuiteOptions options = quickOptions();
        options.jobs = jobs;
        options.workloads = {"terasort", "kmeans", "pagerank"};
        SuiteRunner runner(options);
        runner.addQuickWorkloads();
        return runner.run();
    };

    SuiteResult serial = runSuite(1);
    SuiteResult parallel = runSuite(3);

    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const WorkloadOutcome &a = serial.outcomes[i];
        const WorkloadOutcome &b = parallel.outcomes[i];
        EXPECT_EQ(a.short_name, b.short_name);
        EXPECT_EQ(a.status, RunStatus::Ok);
        EXPECT_EQ(b.status, RunStatus::Ok);
        EXPECT_EQ(a.proxy.checksum, b.proxy.checksum) << a.short_name;
        // Traced kernels emit deterministic virtual addresses and
        // branch-site ids, so modelled metrics are bit-identical no
        // matter which thread (or process) ran the pipeline.
        EXPECT_DOUBLE_EQ(a.proxy.runtime_s, b.proxy.runtime_s);
        EXPECT_DOUBLE_EQ(a.avg_accuracy, b.avg_accuracy);
        EXPECT_DOUBLE_EQ(a.real.runtime_s, b.real.runtime_s);
    }
    EXPECT_EQ(serial.checksum(), parallel.checksum());
}

TEST_F(RunnerTest, DifferentSeedsProduceDifferentChecksums)
{
    auto runSeed = [](std::uint64_t seed) {
        SuiteOptions options = quickOptions();
        options.seed = seed;
        options.workloads = {"terasort"};
        SuiteRunner runner(options);
        runner.addQuickWorkloads();
        return runner.run();
    };
    EXPECT_NE(runSeed(1).checksum(), runSeed(2).checksum());
}

TEST_F(RunnerTest, FailingWorkloadIsIsolated)
{
    SuiteOptions options = quickOptions();
    options.jobs = 2;
    SuiteRunner runner(options);
    runner.add(std::make_unique<ThrowingWorkload>());
    runner.add(makeTeraSort(1 << 22));

    SuiteResult result = runner.run();
    ASSERT_EQ(result.outcomes.size(), 2u);
    EXPECT_EQ(result.outcomes[0].status, RunStatus::Failed);
    EXPECT_NE(result.outcomes[0].error.find("synthetic"),
              std::string::npos);
    EXPECT_EQ(result.outcomes[1].status, RunStatus::Ok);
    EXPECT_FALSE(result.allOk());
    // The failed slot contributes nothing to the suite checksum.
    EXPECT_NE(result.checksum(), 0u);
}

TEST_F(RunnerTest, TimeoutMarksWorkloadTimedOut)
{
    SuiteOptions options = quickOptions();
    options.timeout_s = 1e-9;  // expires at the first checkpoint
    options.workloads = {"terasort"};
    SuiteRunner runner(options);
    runner.addQuickWorkloads();
    SuiteResult result = runner.run();
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_EQ(result.outcomes[0].status, RunStatus::TimedOut);
    EXPECT_FALSE(result.allOk());
}

TEST_F(RunnerTest, ReferenceCacheServesWarmRunBitIdentically)
{
    std::filesystem::remove_all("test-runner-ref-cache");
    SuiteOptions options = quickOptions();
    options.cache.ref_dir = "test-runner-ref-cache";
    options.workloads = {"alexnet"};

    auto runOnce = [&]() {
        SuiteRunner runner(options);
        runner.addQuickWorkloads();
        return runner.run();
    };
    SuiteResult cold = runOnce();
    SuiteResult warm = runOnce();
    std::filesystem::remove_all("test-runner-ref-cache");

    ASSERT_EQ(cold.outcomes.size(), 1u);
    ASSERT_EQ(warm.outcomes.size(), 1u);
    const WorkloadOutcome &c = cold.outcomes[0];
    const WorkloadOutcome &w = warm.outcomes[0];
    EXPECT_EQ(c.status, RunStatus::Ok);
    EXPECT_EQ(w.status, RunStatus::Ok);
    EXPECT_FALSE(c.real_from_cache);
    EXPECT_TRUE(w.real_from_cache);
    // The cache-served reference is indistinguishable from the
    // measured one, so everything downstream (tuning, proxy,
    // checksums) reproduces bit for bit.
    EXPECT_EQ(c.real.runtime_s, w.real.runtime_s);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(c.real.metrics[m], w.real.metrics[m])
            << metricName(m);
    }
    EXPECT_EQ(c.proxy.checksum, w.proxy.checksum);
    EXPECT_EQ(cold.checksum(), warm.checksum());
    EXPECT_DOUBLE_EQ(c.avg_accuracy, w.avg_accuracy);
}

// ------------------------------------------------------- JSON report

/** Bare-bones recursive-descent JSON validator/extractor. */
class JsonProbe
{
  public:
    explicit JsonProbe(const std::string &text) : text_(text) {}

    /** Whole document parses as one JSON value. */
    bool
    valid()
    {
        pos_ = 0;
        return value() && (skipWs(), pos_ == text_.size());
    }

    bool
    hasKey(const std::string &key) const
    {
        return text_.find('"' + key + '"') != std::string::npos;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    literal(const char *s)
    {
        std::size_t n = std::string(s).size();
        if (text_.compare(pos_, n, s) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (text_[pos_] != '"')
            return false;
        for (++pos_; pos_ < text_.size(); ++pos_) {
            if (text_[pos_] == '\\')
                ++pos_;
            else if (text_[pos_] == '"')
                return ++pos_, true;
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                std::string("+-.eE").find(text_[pos_]) !=
                    std::string::npos)) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    container(char open, char close)
    {
        if (text_[pos_] != open)
            return false;
        ++pos_;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == close)
            return ++pos_, true;
        while (true) {
            if (open == '{') {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return false;
            }
            if (!value())
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == close)
                return ++pos_, true;
            if (text_[pos_++] != ',')
                return false;
        }
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{')
            return container('{', '}');
        if (c == '[')
            return container('[', ']');
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    std::string text_;
    std::size_t pos_ = 0;
};

TEST_F(RunnerTest, JsonReportShape)
{
    SuiteOptions options = quickOptions();
    options.jobs = 2;
    options.workloads = {"terasort", "kmeans"};
    SuiteRunner runner(options);
    runner.addQuickWorkloads();
    SuiteResult result = runner.run();

    std::string json = renderJson(result);
    JsonProbe probe(json);
    EXPECT_TRUE(probe.valid()) << json;
    for (const char *key :
         {"suite", "seed", "jobs", "cluster", "elapsed_s", "all_ok",
          "suite_checksum", "workloads", "name", "short_name",
          "status", "real", "proxy", "checksum", "tuning",
          "qualified", "iterations", "accuracy", "speedup",
          "metrics", "from_cache", "real_from_cache"}) {
        EXPECT_TRUE(probe.hasKey(key)) << "missing key: " << key;
    }
    // Hex checksums are strings, not numbers.
    EXPECT_NE(json.find("\"suite_checksum\":\"0x"), std::string::npos);
}

TEST_F(RunnerTest, JsonEscapesControlCharacters)
{
    SuiteResult result;
    WorkloadOutcome bad;
    bad.name = "quote\" backslash\\ newline\n";
    bad.short_name = "bad";
    bad.status = RunStatus::Failed;
    bad.error = "tab\there backspace\b formfeed\f bell\x07 soh\x01";
    result.outcomes.push_back(bad);

    std::string json = renderJson(result);
    JsonProbe probe(json);
    EXPECT_TRUE(probe.valid()) << json;
    EXPECT_NE(json.find("quote\\\""), std::string::npos);
    EXPECT_NE(json.find("tab\\there"), std::string::npos);
    EXPECT_NE(json.find("backspace\\b"), std::string::npos);
    EXPECT_NE(json.find("formfeed\\f"), std::string::npos);
    EXPECT_NE(json.find("bell\\u0007"), std::string::npos);
    EXPECT_NE(json.find("soh\\u0001"), std::string::npos);
    // No raw control byte may survive into the document.
    for (char c : json)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control char in JSON output";
}

TEST_F(RunnerTest, TableReportListsEveryOutcome)
{
    SuiteOptions options = quickOptions();
    options.workloads = {"terasort", "pagerank"};
    SuiteRunner runner(options);
    runner.addQuickWorkloads();
    SuiteResult result = runner.run();

    std::string table = renderTable(result);
    EXPECT_NE(table.find("TeraSort"), std::string::npos);
    EXPECT_NE(table.find("PageRank"), std::string::npos);
    EXPECT_NE(table.find("Speedup"), std::string::npos);
    EXPECT_NE(table.find("checksum"), std::string::npos);
}

TEST_F(RunnerTest, ColocationReportPrintsStreamSizes)
{
    ColocationOutcome o;
    o.status = RunStatus::Ok;
    o.policy = "none";
    TenantOutcome t;
    t.name = "Hadoop Grep";
    t.short_name = "Grep";
    t.captured_events = 38801601;
    t.llc_accesses = 806975;
    o.tenants.push_back(t);

    const std::string table = renderColocationTable(o);
    EXPECT_NE(table.find("38801601"), std::string::npos) << table;
    EXPECT_NE(table.find("806975"), std::string::npos) << table;

    const std::string json = writeColocationJson(o);
    JsonProbe probe(json);
    EXPECT_TRUE(probe.valid()) << json;
    EXPECT_NE(json.find("\"captured_events\":38801601"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"llc_accesses\":806975"), std::string::npos)
        << json;
}

} // namespace
} // namespace dmpb
