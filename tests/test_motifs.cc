/**
 * @file
 * Tests for the motif layer: registry completeness (Fig. 2 coverage),
 * determinism, parameter sensitivity, and per-class behaviour
 * signatures (instruction mix and memory patterns).
 */

#include <gtest/gtest.h>

#include <set>

#include "base/units.hh"
#include "motifs/motif.hh"
#include "sim/machine.hh"
#include "sim/metrics.hh"

namespace dmpb {
namespace {

MotifParams
smallParams()
{
    MotifParams p;
    p.data_size = 64 * kKiB;
    p.chunk_size = 16 * kKiB;
    p.batch_size = 2;
    p.height = 12;
    p.width = 12;
    p.channels = 4;
    p.filters = 6;
    return p;
}

TEST(MotifRegistry, CoversFigureTwo)
{
    // Big-data implementations named in Fig. 2.
    const char *bd[] = {
        "quick_sort", "merge_sort", "random_sampling",
        "interval_sampling", "graph_construct", "graph_traverse",
        "set_union", "set_intersection", "set_difference",
        "count_avg_stats", "probability_stats", "min_max", "md5_hash",
        "encryption", "fft", "dct", "matrix_multiply",
        "euclidean_distance", "cosine_distance"};
    // AI implementations named in Fig. 2.
    const char *ai[] = {
        "fully_connected", "element_mul", "sigmoid", "tanh", "softmax",
        "max_pool", "avg_pool", "convolution", "dropout", "batch_norm",
        "cosine_norm", "reduce_sum", "reduce_max", "relu"};
    for (const char *n : bd) {
        const Motif *m = findMotif(n);
        ASSERT_NE(m, nullptr) << n;
        EXPECT_FALSE(m->isAi()) << n;
    }
    for (const char *n : ai) {
        const Motif *m = findMotif(n);
        ASSERT_NE(m, nullptr) << n;
        EXPECT_TRUE(m->isAi()) << n;
    }
    EXPECT_EQ(motifRegistry().size(), std::size(bd) + std::size(ai));
}

TEST(MotifRegistry, AllEightClassesPresent)
{
    std::set<MotifClass> classes;
    for (const Motif *m : motifRegistry())
        classes.insert(m->motifClass());
    EXPECT_EQ(classes.size(),
              static_cast<std::size_t>(MotifClass::NumClasses));
}

TEST(MotifRegistry, NamesUnique)
{
    std::set<std::string> names;
    for (const Motif *m : motifRegistry())
        EXPECT_TRUE(names.insert(m->name()).second) << m->name();
}

TEST(MotifRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(findMotif("not_a_motif"), nullptr);
}

class EveryMotif : public ::testing::TestWithParam<const Motif *>
{
};

TEST_P(EveryMotif, RunsAndEmitsWork)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    MotifParams p = smallParams();
    m->run(ctx, p);
    KernelProfile prof = ctx.profile();
    EXPECT_GT(prof.instructions(), 1000u) << m->name();
    EXPECT_GT(prof.l1d.accesses, 0u) << m->name();
}

TEST_P(EveryMotif, DeterministicForSameSeed)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    MotifParams p = smallParams();
    TraceContext c1(mach), c2(mach);
    std::uint64_t r1 = m->run(c1, p);
    std::uint64_t r2 = m->run(c2, p);
    EXPECT_EQ(r1, r2) << m->name();
    EXPECT_EQ(c1.profile().instructions(), c2.profile().instructions())
        << m->name();
}

TEST_P(EveryMotif, SeedChangesData)
{
    const Motif *m = GetParam();
    MachineConfig mach = westmereE5645();
    MotifParams p = smallParams();
    TraceContext c1(mach), c2(mach);
    std::uint64_t r1 = m->run(c1, p);
    p.seed ^= 0xdeadbeefULL;
    std::uint64_t r2 = m->run(c2, p);
    // Different data, different checksum (collision chance ~2^-64).
    EXPECT_NE(r1, r2) << m->name();
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryMotif, ::testing::ValuesIn(motifRegistry()),
    [](const ::testing::TestParamInfo<const Motif *> &info) {
        return info.param->name();
    });

TEST(MotifBehaviour, SortIsIntegerAndBranchHeavy)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("quick_sort")->run(ctx, smallParams());
    MetricVector v = computeMetrics(ctx.profile(), mach.core, 1.0);
    EXPECT_LT(v[Metric::RatioFp], 0.02);
    EXPECT_GT(v[Metric::RatioBranch], 0.08);
}

TEST(MotifBehaviour, ConvolutionIsFpHeavy)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("convolution")->run(ctx, smallParams());
    MetricVector v = computeMetrics(ctx.profile(), mach.core, 1.0);
    EXPECT_GT(v[Metric::RatioFp], 0.25);
}

TEST(MotifBehaviour, GraphTraversalMissesMoreThanScan)
{
    MachineConfig mach = westmereE5645();
    MotifParams p;
    p.data_size = 2 * kMiB;
    TraceContext scan_ctx(mach), graph_ctx(mach);
    findMotif("min_max")->run(scan_ctx, p);
    findMotif("graph_traverse")->run(graph_ctx, p);
    // Irregular pointer chasing should have worse L1D behaviour than
    // a sequential scan.
    EXPECT_LT(graph_ctx.profile().l1d.hitRatio(),
              scan_ctx.profile().l1d.hitRatio());
}

TEST(MotifBehaviour, LargerDataLowersCacheHitRatio)
{
    MachineConfig mach = westmereE5645();
    MotifParams small = smallParams();
    small.data_size = 32 * kKiB;
    small.chunk_size = 32 * kKiB;
    MotifParams big = smallParams();
    big.data_size = 8 * kMiB;
    big.chunk_size = 8 * kMiB;
    TraceContext cs(mach), cb(mach);
    findMotif("merge_sort")->run(cs, small);
    findMotif("merge_sort")->run(cb, big);
    EXPECT_GT(cs.profile().l1d.hitRatio() + 1e-9,
              cb.profile().l1d.hitRatio());
}

TEST(MotifBehaviour, WeightFieldDoesNotAffectSingleRun)
{
    // weight is a DAG-combination knob, not a kernel parameter.
    MachineConfig mach = westmereE5645();
    MotifParams a = smallParams(), b = smallParams();
    b.weight = 0.25;
    TraceContext ca(mach), cb(mach);
    std::uint64_t ra = findMotif("fft")->run(ca, a);
    std::uint64_t rb = findMotif("fft")->run(cb, b);
    EXPECT_EQ(ra, rb);
}

TEST(MotifBehaviour, TotalSizeScalesAiIterations)
{
    MachineConfig mach = westmereE5645();
    MotifParams one = smallParams();
    MotifParams four = smallParams();
    four.total_size = 4 * four.batch_size;
    TraceContext c1(mach), c4(mach);
    findMotif("relu")->run(c1, one);
    findMotif("relu")->run(c4, four);
    double ratio =
        static_cast<double>(c4.profile().instructions()) /
        static_cast<double>(c1.profile().instructions());
    EXPECT_NEAR(ratio, 4.0, 0.2);
}

TEST(MotifBehaviour, SparsityAffectsDistanceMotifData)
{
    MachineConfig mach = westmereE5645();
    MotifParams dense = smallParams();
    dense.sparsity = 0.0;
    MotifParams sparse = smallParams();
    sparse.sparsity = 0.9;
    TraceContext cd(mach), cs(mach);
    std::uint64_t rd = findMotif("euclidean_distance")->run(cd, dense);
    std::uint64_t rs = findMotif("euclidean_distance")->run(cs, sparse);
    EXPECT_NE(rd, rs);
}

TEST(MotifBehaviour, Md5IsPureInteger)
{
    MachineConfig mach = westmereE5645();
    TraceContext ctx(mach);
    findMotif("md5_hash")->run(ctx, smallParams());
    KernelProfile p = ctx.profile();
    EXPECT_EQ(p.ops[static_cast<std::size_t>(OpClass::FpAlu)], 0u);
    EXPECT_EQ(p.ops[static_cast<std::size_t>(OpClass::FpMul)], 0u);
}

// ------------------------------------------------- read-set contract

/** Read-set inputs: small, with data_size and chunk_size small enough
 *  that halving either changes every motif that reads it. */
MotifParams
readSetBase()
{
    MotifParams p;
    p.data_size = 16 * kKiB;
    p.chunk_size = 4 * kKiB;
    p.batch_size = 2;
    p.height = 8;
    p.width = 8;
    p.channels = 4;
    p.filters = 6;
    return p;
}

/** One MotifParams field: its bit and two values off both its default
 *  and readSetBase() (layout has only one). The first value changes
 *  every motif that reads the field. */
struct FieldCase
{
    const char *name;
    ParamSet bit;
    void (*set)(MotifParams &, int which);
    int values = 2;
};

const std::vector<FieldCase> &
fieldCases()
{
    static const std::vector<FieldCase> cases = {
        {"data_size", param::kDataSize,
         [](MotifParams &p, int w) { p.data_size = w ? 24 * kKiB
                                                      : 8 * kKiB; }},
        {"chunk_size", param::kChunkSize,
         [](MotifParams &p, int w) { p.chunk_size = w ? 8 * kKiB
                                                       : 2 * kKiB; }},
        {"num_tasks", param::kNumTasks,
         [](MotifParams &p, int w) { p.num_tasks = w ? 16 : 1; }},
        {"batch_size", param::kBatchSize,
         [](MotifParams &p, int w) { p.batch_size = w ? 3 : 1; }},
        {"total_size", param::kTotalSize,
         [](MotifParams &p, int w) { p.total_size = w ? 6 : 4; }},
        {"height", param::kHeight,
         [](MotifParams &p, int w) { p.height = w ? 12 : 6; }},
        {"width", param::kWidth,
         [](MotifParams &p, int w) { p.width = w ? 12 : 6; }},
        {"channels", param::kChannels,
         [](MotifParams &p, int w) { p.channels = w ? 6 : 3; }},
        {"filters", param::kFilters,
         [](MotifParams &p, int w) { p.filters = w ? 8 : 4; }},
        {"kernel", param::kKernel,
         [](MotifParams &p, int w) { p.kernel = w ? 5 : 1; }},
        {"stride", param::kStride,
         [](MotifParams &p, int w) { p.stride = w ? 3 : 2; }},
        {"layout", param::kLayout,
         [](MotifParams &p, int) { p.layout = DataLayout::NHWC; }, 1},
        {"weight", param::kWeight,
         [](MotifParams &p, int w) { p.weight = w ? 3.0 : 0.25; }},
        {"seed", param::kSeed,
         [](MotifParams &p, int w) { p.seed = w ? 0x5eedULL : 7; }},
        {"sparsity", param::kSparsity,
         [](MotifParams &p, int w) { p.sparsity = w ? 0.9 : 0.5; }},
    };
    return cases;
}

/** One motif run on a fresh context. */
struct RunResult
{
    std::uint64_t checksum = 0;
    KernelProfile profile;
};

RunResult
runFresh(const Motif &m, const MotifParams &p)
{
    TraceContext ctx(westmereE5645());
    RunResult r;
    r.checksum = m.run(ctx, p);
    r.profile = ctx.profile();
    return r;
}

/** Bit-exact equality of the checksum and every profile counter. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    auto same = [](const CacheStats &x, const CacheStats &y) {
        return x.accesses == y.accesses && x.misses == y.misses &&
               x.writebacks == y.writebacks;
    };
    const KernelProfile &p = a.profile;
    const KernelProfile &q = b.profile;
    return a.checksum == b.checksum && p.ops == q.ops &&
           same(p.l1i, q.l1i) && same(p.l1d, q.l1d) &&
           same(p.l2, q.l2) && same(p.l3, q.l3) &&
           p.branch.branches == q.branch.branches &&
           p.branch.mispredicts == q.branch.mispredicts &&
           p.disk_read_bytes == q.disk_read_bytes &&
           p.disk_write_bytes == q.disk_write_bytes &&
           p.net_bytes == q.net_bytes && p.accel_macs == q.accel_macs &&
           p.accel_cycles == q.accel_cycles;
}

TEST(MotifReadSet, FieldTableCoversEveryField)
{
    ParamSet covered = 0;
    const MotifParams base = readSetBase();
    for (const FieldCase &f : fieldCases()) {
        EXPECT_EQ(covered & f.bit, 0u) << f.name;
        covered |= f.bit;
        for (int w = 0; w < f.values; ++w) {
            MotifParams p = base;
            f.set(p, w);
            EXPECT_NE(p, base) << f.name << " value " << w;
            EXPECT_NE(p, keepFields(p, param::kAll & ~f.bit)) << f.name;
        }
    }
    EXPECT_EQ(covered, param::kAll);
}

TEST(MotifReadSet, KeepFieldsResetsTheRestToDefaults)
{
    const MotifParams p = readSetBase();
    EXPECT_EQ(keepFields(p, param::kAll), p);
    EXPECT_EQ(keepFields(p, 0), MotifParams{});
    MotifParams want;
    want.data_size = p.data_size;
    want.seed = p.seed;
    EXPECT_EQ(keepFields(p, param::kBigData), want);
}

TEST_P(EveryMotif, IgnoresEveryFieldOutsideItsReadSet)
{
    const Motif *m = GetParam();
    const ParamSet reads = m->reads();
    EXPECT_NE(reads & param::kSeed, 0u) << m->name();
    const MotifParams base = readSetBase();
    const RunResult original = runFresh(*m, base);
    for (const FieldCase &f : fieldCases()) {
        if (reads & f.bit)
            continue;
        for (int w = 0; w < f.values; ++w) {
            MotifParams p = base;
            f.set(p, w);
            EXPECT_TRUE(sameRun(runFresh(*m, p), original))
                << m->name() << " reads " << f.name
                << " but does not declare it (value " << w << ")";
        }
    }
}

TEST_P(EveryMotif, DeclaredProbeFieldsChangeTheRun)
{
    // Negative control: one field per motif family -- every big-data
    // motif's data_size, the chunked motifs' chunk_size, the distance
    // motifs' sparsity, every AI motif's batch_size -- must move the
    // run, or the test above could not see a missing declaration.
    const Motif *m = GetParam();
    const ParamSet probes = param::kDataSize | param::kChunkSize |
                            param::kSparsity | param::kBatchSize;
    const MotifParams base = readSetBase();
    const RunResult original = runFresh(*m, base);
    int probed = 0;
    for (const FieldCase &f : fieldCases()) {
        if ((f.bit & probes & m->reads()) == 0)
            continue;
        ++probed;
        MotifParams p = base;
        f.set(p, 0);
        EXPECT_FALSE(sameRun(runFresh(*m, p), original))
            << m->name() << " ignores declared " << f.name;
    }
    EXPECT_GE(probed, 1) << m->name();
}

TEST(MotifReadSet, FamiliesDeclareWhatTheyRead)
{
    for (const Motif *m : motifRegistry()) {
        if (m->isAi()) {
            EXPECT_EQ(m->reads(), param::kAi) << m->name();
            continue;
        }
        ParamSet want = param::kBigData;
        const std::string n = m->name();
        if (n == "quick_sort" || n == "merge_sort" || n == "md5_hash")
            want |= param::kChunkSize;
        if (n == "euclidean_distance" || n == "cosine_distance")
            want |= param::kSparsity;
        EXPECT_EQ(m->reads(), want) << n;
        EXPECT_EQ(m->reads() & (param::kNumTasks | param::kWeight), 0u)
            << n;
    }
}

} // namespace
} // namespace dmpb
