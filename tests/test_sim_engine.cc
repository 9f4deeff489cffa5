/**
 * @file
 * Tests for the batched, sharded trace-simulation engine: replay
 * equivalence (batched vs scalar, any shard count), the cache model's
 * power-of-two fast path vs the generic modulo path, LRU/writeback
 * behaviour of the structure-of-arrays model, geometry validation,
 * the deterministic sharded job runner, and batched proxy execution
 * (bit-identical to per-proxy execution, each shared edge simulated
 * once, a stop leaving only clones with skipped edges empty).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "core/proxy_benchmark.hh"
#include "core/proxy_factory.hh"
#include "sim/access_batch.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "sim/traced_buffer.hh"
#include "workloads/workload.hh"

namespace dmpb {
namespace {

CacheParams
smallCache(std::uint64_t size, std::uint32_t assoc)
{
    return {"test", size, assoc, 64};
}

bool
statsEqual(const CacheStats &a, const CacheStats &b)
{
    return a.accesses == b.accesses && a.misses == b.misses &&
           a.writebacks == b.writebacks;
}

// ---------------------------------------------------------- CacheModel

TEST(SimEngine, LruEvictionOrderIsExact)
{
    // 1 set, 4 ways: fill, touch in a known order, then overflow --
    // the least recently touched line must go first, repeatedly.
    CacheModel c(smallCache(4 * 64, 4));
    for (std::uint64_t l = 0; l < 4; ++l)
        c.access(l * 1024 * 64, false);          // A B C D (cold)
    c.access(2 * 1024 * 64, false);              // touch C
    c.access(0 * 1024 * 64, false);              // touch A
    // LRU order now (oldest first): B, D, C, A.
    c.access(7 * 1024 * 64, false);              // E evicts B
    EXPECT_FALSE(c.access(1 * 1024 * 64, false));  // B gone; evicts D
    EXPECT_FALSE(c.access(3 * 1024 * 64, false));  // D gone; evicts C
    // A and E survived every eviction.
    EXPECT_TRUE(c.access(0 * 1024 * 64, false));
    EXPECT_TRUE(c.access(7 * 1024 * 64, false));
}

TEST(SimEngine, DirtyWritebackCountingPerEviction)
{
    // 1 set, 2 ways; only dirty victims count, and each dirty line
    // writes back at most once per fill.
    CacheModel c(smallCache(2 * 64, 2));
    c.access(0 * 64 * 1024, true);    // A dirty
    c.access(1 * 64 * 1024, false);   // B clean
    c.access(2 * 64 * 1024, false);   // evicts A (dirty) -> wb 1
    EXPECT_EQ(c.stats().writebacks, 1u);
    c.access(3 * 64 * 1024, false);   // evicts B (clean) -> still 1
    EXPECT_EQ(c.stats().writebacks, 1u);
    c.access(2 * 64 * 1024, true);    // re-touch C, now dirty
    c.access(4 * 64 * 1024, false);   // evicts D (clean)
    c.access(5 * 64 * 1024, false);   // evicts C (dirty) -> wb 2
    EXPECT_EQ(c.stats().writebacks, 2u);
    EXPECT_LE(c.stats().writebacks, c.stats().misses);
}

TEST(SimEngine, Pow2AndModuloIndexingAgreeOnPow2Geometry)
{
    // Same pow2 geometry, one model forced onto the generic
    // modulo/divide path: every access must agree on hit/miss and
    // the final counters must be identical.
    for (std::uint32_t assoc : {1u, 4u, 8u}) {
        CacheModel fast(smallCache(32 * 1024, assoc));
        CacheModel generic(smallCache(32 * 1024, assoc));
        generic.forceModuloIndexingForTest();
        Rng rng(7 + assoc);
        for (int i = 0; i < 200000; ++i) {
            std::uint64_t addr = rng.nextU64(256 * 1024);
            bool write = rng.nextBool(0.3);
            EXPECT_EQ(fast.access(addr, write),
                      generic.access(addr, write));
        }
        EXPECT_TRUE(statsEqual(fast.stats(), generic.stats()));
    }
}

TEST(SimEngine, NonPow2SetCountUsesConsistentModuloPath)
{
    // 12288-set Westmere-style L3 (non-pow2): sanity that the
    // geometry is exact and behaves like a cache.
    CacheParams p{"L3", 12ULL * 1024 * 1024, 16, 64};
    EXPECT_EQ(p.numSets(), 12288u);
    CacheModel c(p);
    for (std::uint64_t a = 0; a < 4 * 1024 * 1024; a += 64)
        c.access(a, false);
    for (std::uint64_t a = 0; a < 4 * 1024 * 1024; a += 64)
        c.access(a, false);
    EXPECT_GT(c.stats().hitRatio(), 0.49);  // second pass all hits
}

TEST(SimEngine, GeometryValidationRejectsInexactSizes)
{
    // 10.25 KiB with 8 ways of 64B lines does not divide into whole
    // sets; the constructor must refuse instead of silently
    // truncating the modelled capacity.
    CacheParams bad{"bad", 10 * 1024 + 256, 8, 64};
    EXPECT_DEATH({ CacheModel c(bad); }, "multiple of");
}

TEST(SimEngine, SliceL3KeepsGeometryExactForAnySharers)
{
    CacheParams l3{"L3", 12ULL * 1024 * 1024, 16, 64};
    for (std::uint32_t sharers = 1; sharers <= 24; ++sharers) {
        CacheParams s = sliceL3(l3, sharers);
        std::uint64_t way_line =
            static_cast<std::uint64_t>(s.associativity) * s.line_bytes;
        EXPECT_EQ(s.size_bytes % way_line, 0u) << "sharers " << sharers;
        EXPECT_GE(s.numSets(), 1u);
        EXPECT_LE(s.size_bytes, l3.size_bytes);
        // Constructing the sliced model must pass validation.
        CacheModel model(s);
        EXPECT_EQ(model.params().size_bytes, s.size_bytes);
    }
}

// ------------------------------------------------- batched vs scalar

/** Drive an identical access/branch mix into a context. */
template <typename Ctx>
void
emitWorkload(Ctx &ctx)
{
    TracedBuffer<std::uint64_t> buf(ctx, 1 << 14);
    TracedBuffer<std::uint64_t> other(ctx, 1 << 12);
    Rng rng(99);
    for (int i = 0; i < 120000; ++i) {
        std::size_t idx = rng.nextU64(buf.size());
        buf.rd(idx);
        if ((i & 3) == 0)
            buf.wr(idx, i);
        if ((i & 7) == 0) {
            std::uint64_t v;
            other.rdPair(rng.nextU64(other.size()), other,
                         rng.nextU64(other.size()), v);
        }
        if ((i & 15) == 0)
            other.rmw(rng.nextU64(other.size()));
        ctx.emitOps(OpClass::FpMul, 3);
        ctx.emitBranch(0xabc + (i & 7), (i & 1) != 0);
    }
}

TEST(SimEngine, BatchedAndScalarProduceIdenticalStats)
{
    MachineConfig m = westmereE5645();
    // Scalar (capacity 1), small batch (forces many flushes and the
    // async replayer), and one big batch (single final flush).
    TraceContext scalar(m, 2, 1, 1);
    TraceContext batched(m, 2, 1, 4096);
    TraceContext big(m, 2, 1, 1 << 20);
    emitWorkload(scalar);
    emitWorkload(batched);
    emitWorkload(big);
    KernelProfile ps = scalar.profile();
    KernelProfile pb = batched.profile();
    KernelProfile pg = big.profile();
    for (const KernelProfile *p : {&pb, &pg}) {
        EXPECT_TRUE(statsEqual(ps.l1d, p->l1d));
        EXPECT_TRUE(statsEqual(ps.l1i, p->l1i));
        EXPECT_TRUE(statsEqual(ps.l2, p->l2));
        EXPECT_TRUE(statsEqual(ps.l3, p->l3));
        EXPECT_EQ(ps.branch.branches, p->branch.branches);
        EXPECT_EQ(ps.branch.mispredicts, p->branch.mispredicts);
        EXPECT_EQ(ps.ops, p->ops);
    }
}

TEST(SimEngine, SampledBatchedMatchesSampledScalar)
{
    MachineConfig m = westmereE5645();
    TraceContext scalar(m, 1, 8, 1);
    TraceContext batched(m, 1, 8, 2048);
    emitWorkload(scalar);
    emitWorkload(batched);
    KernelProfile ps = scalar.profile();
    KernelProfile pb = batched.profile();
    EXPECT_TRUE(statsEqual(ps.l1d, pb.l1d));
    EXPECT_TRUE(statsEqual(ps.l2, pb.l2));
    EXPECT_TRUE(statsEqual(ps.l3, pb.l3));
}

TEST(SimEngine, ReplayBatchMatchesDirectModelCalls)
{
    // Hand-built batch replayed through replayBatch() vs the same
    // events issued directly: identical statistics.
    MachineConfig m = westmereE5645();
    CacheHierarchy direct(m.caches, 1);
    CacheHierarchy replayed(m.caches, 1);
    GsharePredictor pd(m.predictor.table_bits,
                       m.predictor.history_bits);
    GsharePredictor pr(m.predictor.table_bits,
                       m.predictor.history_bits);

    AccessBatch batch;
    batch.reserve(4096);
    Rng rng(3);
    for (int i = 0; i < 4096; ++i) {
        std::uint64_t addr = rng.nextU64(1 << 22);
        switch (i & 3) {
          case 0:
            direct.dataAccess(addr, false);
            batch.pushData(addr, false);
            break;
          case 1:
            direct.dataAccess(addr, true);
            batch.pushData(addr, true);
            break;
          case 2:
            direct.instrAccess(addr);
            batch.pushIfetch(addr);
            break;
          default:
            // Full-width sites must round-trip (they live in the
            // side queue, not the packed word).
            pd.record(addr * 0x9e3779b97f4a7c15ULL, (i & 4) != 0);
            batch.pushBranch(addr * 0x9e3779b97f4a7c15ULL,
                             (i & 4) != 0);
            break;
        }
    }
    replayBatch(batch, replayed, pr);
    EXPECT_TRUE(statsEqual(direct.l1d().stats(),
                           replayed.l1d().stats()));
    EXPECT_TRUE(statsEqual(direct.l1i().stats(),
                           replayed.l1i().stats()));
    EXPECT_TRUE(statsEqual(direct.l2().stats(), replayed.l2().stats()));
    EXPECT_TRUE(statsEqual(direct.l3().stats(), replayed.l3().stats()));
    EXPECT_EQ(pd.stats().branches, pr.stats().branches);
    EXPECT_EQ(pd.stats().mispredicts, pr.stats().mispredicts);
}

// ------------------------------------------------------ sharded jobs

TEST(SimEngine, ShardedJobsRunAllAndPreserveSlots)
{
    for (std::size_t shards : {std::size_t(1), std::size_t(3),
                               std::size_t(16)}) {
        std::vector<int> slots(24, 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < slots.size(); ++i)
            jobs.push_back([&slots, i]() { slots[i] = int(i) + 1; });
        runShardedJobs(shards, std::move(jobs));
        for (std::size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(slots[i], int(i) + 1);
    }
}

TEST(SimEngine, ShardedJobsRethrowLowestFailingIndex)
{
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    jobs.push_back([&]() { ++ran; });
    jobs.push_back([&]() { ++ran; throw std::runtime_error("two"); });
    jobs.push_back([&]() { ++ran; throw std::runtime_error("three"); });
    jobs.push_back([&]() { ++ran; });
    try {
        runShardedJobs(4, std::move(jobs));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "two");
    }
    EXPECT_EQ(ran.load(), 4);
}

TEST(SimEngine, ProxyExecuteBitIdenticalForAnyShardAndBatch)
{
    // The acceptance property end-to-end: one proxy, every engine
    // configuration, identical metrics and checksums.
    auto workload = makeTeraSort(64 * 1024 * 1024);
    MachineConfig machine = westmereE5645();

    auto run = [&](std::size_t shards, std::size_t batch) {
        ProxyBenchmark proxy = decomposeWorkload(*workload);
        proxy.baseParams().seed = 1234;
        SimConfig sim;
        sim.shards = shards;
        sim.batch_capacity = batch;
        proxy.setSimConfig(sim);
        return proxy.execute(machine, 512 * 1024);
    };

    ProxyResult ref = run(1, 1);
    for (auto [shards, batch] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 0}, {2, 4096}, {4, 0}, {8, 1}}) {
        ProxyResult r = run(shards, batch);
        EXPECT_EQ(r.checksum, ref.checksum);
        EXPECT_EQ(r.runtime_s, ref.runtime_s);
        for (std::size_t i = 0; i < kNumMetrics; ++i) {
            EXPECT_EQ(r.metrics[static_cast<Metric>(i)],
                      ref.metrics[static_cast<Metric>(i)])
                << "metric " << i << " shards " << shards << " batch "
                << batch;
        }
    }
}

TEST(SimEngine, ProxyTraceMemoReturnsIdenticalResults)
{
    // Re-executing the same proxy hits the trace memo; results must
    // be exactly what the first (cold) execution produced.
    auto workload = makeKMeans(64 * 1024 * 1024, 0.9);
    MachineConfig machine = westmereE5645();
    ProxyBenchmark proxy = decomposeWorkload(*workload);
    proxy.baseParams().seed = 77;
    ProxyResult cold = proxy.execute(machine, 256 * 1024);
    ProxyResult warm = proxy.execute(machine, 256 * 1024);
    EXPECT_EQ(cold.checksum, warm.checksum);
    EXPECT_EQ(cold.runtime_s, warm.runtime_s);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        EXPECT_EQ(cold.metrics[static_cast<Metric>(i)],
                  warm.metrics[static_cast<Metric>(i)]);
    }
}

// --------------------------------------------------- executeBatch

/** Two proxy results agree bit for bit: checksum, runtime, every
 *  metric and every profile counter. */
void
expectSameProxyResult(const ProxyResult &got, const ProxyResult &want,
                      const std::string &what)
{
    EXPECT_EQ(got.checksum, want.checksum) << what;
    EXPECT_EQ(got.runtime_s, want.runtime_s) << what;
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(got.metrics[m], want.metrics[m])
            << what << ' ' << metricName(m);
    }
    const KernelProfile &a = got.profile;
    const KernelProfile &b = want.profile;
    EXPECT_EQ(a.ops, b.ops) << what;
    EXPECT_TRUE(statsEqual(a.l1i, b.l1i)) << what;
    EXPECT_TRUE(statsEqual(a.l1d, b.l1d)) << what;
    EXPECT_TRUE(statsEqual(a.l2, b.l2)) << what;
    EXPECT_TRUE(statsEqual(a.l3, b.l3)) << what;
    EXPECT_EQ(a.branch.branches, b.branch.branches) << what;
    EXPECT_EQ(a.branch.mispredicts, b.branch.mispredicts) << what;
    EXPECT_EQ(a.disk_read_bytes, b.disk_read_bytes) << what;
    EXPECT_EQ(a.disk_write_bytes, b.disk_write_bytes) << what;
    EXPECT_EQ(a.net_bytes, b.net_bytes) << what;
    EXPECT_EQ(a.accel_macs, b.accel_macs) << what;
    EXPECT_EQ(a.accel_cycles, b.accel_cycles) << what;
}

std::vector<const ProxyBenchmark *>
views(const std::vector<ProxyBenchmark> &proxies)
{
    std::vector<const ProxyBenchmark *> out;
    for (const ProxyBenchmark &p : proxies)
        out.push_back(&p);
    return out;
}

/** execute() on a fresh proxy (empty memo) with @p clone's parameter
 *  vector: the reference every batched result must equal. */
ProxyResult
freshExecute(const Workload &workload, const ProxyBenchmark &clone,
             const MachineConfig &machine, std::uint64_t trace_cap)
{
    ProxyBenchmark fresh = decomposeWorkload(workload);
    fresh.baseParams().seed = clone.baseParams().seed;
    for (const TunableParam &p : clone.parameters())
        fresh.setParameter(p.name, p.value);
    return fresh.execute(machine, trace_cap);
}

/**
 * One mixed tuner-style batch over @p workload's proxy -- unchanged,
 * a weight-only move, a data_size move, a num_tasks move (a new L3
 * sharer count, so a second replica pool), a gc_intensity move and a
 * duplicate of the data_size move -- executed on an empty memo with
 * 1, 3 and 4 workers: every result must equal a fresh execute().
 */
void
expectBatchMatchesFreshExecute(const Workload &workload)
{
    const MachineConfig machine = westmereE5645();
    const std::uint64_t trace_cap = 128 * 1024;
    auto mixedBatch = [&]() {
        ProxyBenchmark base = decomposeWorkload(workload);
        base.baseParams().seed = 4321;
        std::vector<ProxyBenchmark> batch(6, base.cloneShallow());
        const ProxyEdge &e0 = base.edges()[0];
        batch[1].setParameter("weight:0:" + e0.motif->name(),
                              e0.weight * 1.5);
        batch[2].setParameter("data_size", 2.0 * 1024 * 1024);
        batch[3].setParameter("num_tasks", 2);
        batch[4].setParameter("gc_intensity", 5.0);
        batch[5] = batch[2].cloneShallow();
        return batch;
    };

    std::vector<ProxyResult> want;
    for (const ProxyBenchmark &clone : mixedBatch())
        want.push_back(freshExecute(workload, clone, machine, trace_cap));

    for (std::size_t jobs : {1, 3, 4}) {
        std::vector<ProxyBenchmark> batch = mixedBatch();
        auto got = ProxyBenchmark::executeBatch(views(batch), machine,
                                                trace_cap, jobs);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(got[i].has_value());
            expectSameProxyResult(*got[i], want[i],
                                  workload.name() + " jobs " +
                                      std::to_string(jobs) + " clone " +
                                      std::to_string(i));
        }
    }
}

TEST(ProxyBatch, BigDataBatchMatchesFreshExecute)
{
    expectBatchMatchesFreshExecute(*makeTeraSort(64 * 1024 * 1024));
}

TEST(ProxyBatch, AiBatchMatchesFreshExecute)
{
    expectBatchMatchesFreshExecute(*makeAlexNet(10, 32));
}

TEST(ProxyBatch, SharedEdgesSimulateOnce)
{
    const MachineConfig machine = westmereE5645();
    ProxyBenchmark base = decomposeWorkload(*makeKMeans(64 * 1024 * 1024));
    const std::size_t edges = base.edges().size();
    ASSERT_EQ(base.simulatedEdgesForTest(), 0u);

    // Four identical clones on an empty memo: each edge once.
    std::vector<ProxyBenchmark> same(4, base.cloneShallow());
    auto first = ProxyBenchmark::executeBatch(views(same), machine,
                                              128 * 1024, 4);
    EXPECT_EQ(base.simulatedEdgesForTest(), edges);
    for (const auto &r : first) {
        ASSERT_TRUE(r.has_value());
        expectSameProxyResult(*r, *first[0], "identical clone");
    }

    // Weights only scale traced profiles: a weight-only batch is
    // served entirely from the memo.
    std::vector<ProxyBenchmark> weights;
    for (std::size_t ei = 0; ei < edges; ++ei) {
        ProxyBenchmark &clone = weights.emplace_back(base.cloneShallow());
        const ProxyEdge &e = base.edges()[ei];
        clone.setParameter("weight:" + std::to_string(ei) + ":" +
                               e.motif->name(),
                           e.weight * 2.0);
    }
    auto moved = ProxyBenchmark::executeBatch(views(weights), machine,
                                              128 * 1024, 4);
    EXPECT_EQ(base.simulatedEdgesForTest(), edges);
    for (const auto &r : moved)
        EXPECT_TRUE(r.has_value());
}

TEST(ProxyBatch, StopLeavesClonesWithSkippedEdgesEmpty)
{
    const MachineConfig machine = westmereE5645();
    auto workload = makeTeraSort(64 * 1024 * 1024);
    ProxyBenchmark base = decomposeWorkload(*workload);
    base.execute(machine, 128 * 1024);
    const std::size_t warm = base.simulatedEdgesForTest();
    ASSERT_GE(base.edges().size(), 2u);

    // A weight-only clone (all memo hits) and a gc_intensity move
    // (every edge new); the stop trips after one simulation.
    std::vector<ProxyBenchmark> batch(2, base.cloneShallow());
    const ProxyEdge &e0 = base.edges()[0];
    batch[0].setParameter("weight:0:" + e0.motif->name(),
                          e0.weight * 3.0);
    batch[1].setParameter("gc_intensity", 7.0);
    std::atomic<int> polls{0};
    auto results = ProxyBenchmark::executeBatch(
        views(batch), machine, 128 * 1024, 1,
        [&polls]() { return polls.fetch_add(1) >= 1; });

    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].has_value());
    expectSameProxyResult(
        *results[0], freshExecute(*workload, batch[0], machine, 128 * 1024),
        "memo-served clone");
    EXPECT_FALSE(results[1].has_value());
    EXPECT_EQ(base.simulatedEdgesForTest(), warm + 1);
}

TEST(SimEngine, FusedEmissionHelpersMatchUnfusedTotals)
{
    MachineConfig m = westmereE5645();
    TraceContext fused(m), unfused(m);

    fused.emitLoadPairAddr(0x1000, 0x9000, 8);
    fused.emitStorePairAddr(0x2000, 0xa000, 8);
    fused.emitRmwAddr(0x3000, 8);
    fused.emitLoadRmwAddr(0x4000, 0xb000, 8);

    unfused.emitLoadAddr(0x1000, 8);
    unfused.emitLoadAddr(0x9000, 8);
    unfused.emitStoreAddr(0x2000, 8);
    unfused.emitStoreAddr(0xa000, 8);
    unfused.emitLoadAddr(0x3000, 8);
    unfused.emitStoreAddr(0x3000, 8);
    unfused.emitLoadAddr(0x4000, 8);
    unfused.emitLoadAddr(0xb000, 8);
    unfused.emitStoreAddr(0xb000, 8);

    KernelProfile a = fused.profile();
    KernelProfile b = unfused.profile();
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.l1d.accesses, b.l1d.accesses);
    EXPECT_EQ(a.instructions(), b.instructions());
}

} // namespace
} // namespace dmpb
