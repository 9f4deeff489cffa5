/**
 * @file
 * Tests for the co-location stack: the multi-tenant CacheModel
 * (way masks, per-tenant stats), the sliceL3 clamp, partition
 * policies, the deterministic round-robin interleaver (recorded LLC
 * streams against a full-hierarchy reference), and the end-to-end
 * runColocation flow (shard invariance, caching, policy
 * differentiation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "core/colocation.hh"
#include "sim/access_batch.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/colocation.hh"
#include "sim/compressed_trace.hh"
#include "sim/engine.hh"
#include "sim/partition_policy.hh"
#include "stack/cluster.hh"

namespace dmpb {
namespace {

// ---------------------------------------------------------------------------
// sliceL3 clamping (satellite a)

TEST(SliceL3, NonDivisibleSharersRoundDownToWholeWays)
{
    CacheParams l3{"L3", 12ULL * 1024 * 1024, 16, 64};
    CacheParams s = sliceL3(l3, 5);
    // The slice geometry must stay exact (CacheModel rejects anything
    // else) and must not exceed the fair share.
    EXPECT_EQ(s.size_bytes %
                  (std::uint64_t(s.associativity) * s.line_bytes),
              0u);
    EXPECT_LE(s.size_bytes, l3.size_bytes / 5);
    EXPECT_GE(s.numSets(), 1u);
    // Constructible: the whole point of rounding to whole ways.
    CacheModel model(s);
    EXPECT_EQ(model.params().size_bytes, s.size_bytes);
}

TEST(SliceL3, OversubscribedSharersClampToOneSet)
{
    setLoggingEnabled(false);
    CacheParams l3{"L3", 12ULL * 1024 * 1024, 16, 64};
    // 16 ways x 64 B = 1 KiB per set; 20000 sharers would get a
    // sub-set slice. The clamp must leave one whole set, not zero.
    CacheParams s = sliceL3(l3, 20000);
    setLoggingEnabled(true);
    EXPECT_EQ(s.numSets(), 1u);
    EXPECT_EQ(s.size_bytes,
              std::uint64_t(s.associativity) * s.line_bytes);
    CacheModel model(s);  // must not assert
    model.access(0x1000, false);
    EXPECT_EQ(model.stats().accesses, 1u);
}

// ---------------------------------------------------------------------------
// CacheStats merge/scale properties (satellite b)

CacheStats
randomStats(Rng &rng)
{
    CacheStats s;
    s.accesses = rng.nextU64(100000);
    s.misses = s.accesses ? rng.nextU64(s.accesses + 1) : 0;
    s.writebacks = s.misses ? rng.nextU64(s.misses + 1) : 0;
    return s;
}

void
expectInvariants(const CacheStats &s)
{
    EXPECT_LE(s.misses, s.accesses);
    EXPECT_LE(s.writebacks, s.misses);
}

TEST(CacheStatsProperty, MergeAndScalePreserveInvariants)
{
    Rng rng(0xc0105eedULL);
    for (int trial = 0; trial < 200; ++trial) {
        CacheStats a = randomStats(rng);
        CacheStats b = randomStats(rng);
        const double factor = rng.nextDouble(0.0, 8.0);

        // merge-then-scale...
        CacheStats ms = a;
        ms.merge(b);
        expectInvariants(ms);
        ms.scale(factor);
        expectInvariants(ms);

        // ...and scale-then-merge must both stay structurally sound
        // (they need not be equal -- rounding differs -- but neither
        // may break misses <= accesses or writebacks <= misses).
        CacheStats sa = a;
        CacheStats sb = b;
        sa.scale(factor);
        sb.scale(factor);
        expectInvariants(sa);
        expectInvariants(sb);
        sa.merge(sb);
        expectInvariants(sa);

        // And the two orders agree to within the per-counter rounding.
        EXPECT_NEAR(static_cast<double>(ms.accesses),
                    static_cast<double>(sa.accesses), 2.0);
    }
}

// ---------------------------------------------------------------------------
// Mask-aware CacheModel (tentpole sim layer; satellite c)

CacheParams
testCache(std::uint64_t size, std::uint32_t assoc)
{
    return {"test", size, assoc, 64};
}

/** Drive both models with an identical access sequence and require
 *  byte-identical counters AND replacement state. */
void
expectStateIdentical(CacheModel &a, CacheModel &b, std::uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t addr = rng.nextU64(1ULL << 22);
        const bool write = rng.nextBool(0.3);
        ASSERT_EQ(a.access(addr, write), b.access(addr, write, 0));
    }
    EXPECT_EQ(a.stateHashForTest(), b.stateHashForTest());
    EXPECT_EQ(a.stats().accesses, b.tenantStats(0).accesses);
    EXPECT_EQ(a.stats().misses, b.tenantStats(0).misses);
    EXPECT_EQ(a.stats().writebacks, b.tenantStats(0).writebacks);
}

TEST(SharedCache, FullMaskIsBitIdenticalToSingleTenantModel)
{
    CacheParams p = testCache(64 * 1024, 8);
    CacheModel legacy(p);
    CacheModel shared(p, 4);  // default masks are all-ways
    expectStateIdentical(legacy, shared, 0x11);
}

TEST(SharedCache, FullMaskBitIdentityHoldsOnModuloIndexingPath)
{
    CacheParams p = testCache(64 * 1024, 8);
    CacheModel legacy(p);
    CacheModel shared(p, 4);
    legacy.forceModuloIndexingForTest();
    shared.forceModuloIndexingForTest();
    expectStateIdentical(legacy, shared, 0x22);
}

TEST(SharedCache, DisjointMasksIsolateTenants)
{
    // Single-set cache, 8 ways: all contention is way contention.
    CacheModel c(testCache(8 * 64, 8), 2);
    c.setWayMask(0, 0x0F);
    c.setWayMask(1, 0xF0);

    // Tenant 0 installs 4 resident lines.
    for (std::uint64_t i = 0; i < 4; ++i)
        c.access(i * 64, true, 0);
    // Tenant 1 streams far more lines than the cache holds; its
    // allocations are confined to ways 4..7.
    for (std::uint64_t i = 0; i < 256; ++i)
        c.access((1000 + i) * 64, false, 1);
    // Tenant 0's working set must have survived untouched.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(c.access(i * 64, false, 0)) << "line " << i;
    EXPECT_EQ(c.tenantStats(0).misses, 4u);
    // Tenant 1 paid for its own streaming, and its dirty evictions
    // cannot have written back tenant 0's dirty lines.
    EXPECT_EQ(c.tenantStats(1).misses, 256u);
    EXPECT_EQ(c.tenantStats(1).writebacks, 0u);
    // Totals are the per-tenant sum.
    EXPECT_EQ(c.totalStats().accesses,
              c.tenantStats(0).accesses + c.tenantStats(1).accesses);
}

TEST(SharedCache, CrossTenantHitsAreServedCatStyle)
{
    // CAT semantics: the mask restricts *allocation*, not lookup. A
    // line tenant 0 installed is a hit for tenant 1.
    CacheModel c(testCache(8 * 64, 8), 2);
    c.setWayMask(0, 0x0F);
    c.setWayMask(1, 0xF0);
    c.access(0x40, false, 0);
    EXPECT_TRUE(c.access(0x40, false, 1));
    EXPECT_EQ(c.tenantStats(1).misses, 0u);
}

TEST(SharedCache, OverlappingMasksShareVictimsDeterministically)
{
    auto run = [](std::uint64_t seed) {
        CacheModel c(testCache(32 * 1024, 8), 3);
        c.setWayMask(0, 0x3F);  // ways 0..5
        c.setWayMask(1, 0xFC);  // ways 2..7 (overlaps 0 on 2..5)
        c.setWayMask(2, 0xFF);
        Rng rng(seed);
        for (int i = 0; i < 100000; ++i) {
            c.access(rng.nextU64(1ULL << 20), rng.nextBool(0.25),
                     static_cast<std::uint32_t>(rng.nextU64(3)));
        }
        return c;
    };
    CacheModel a = run(0x77);
    CacheModel b = run(0x77);
    EXPECT_EQ(a.stateHashForTest(), b.stateHashForTest());
    for (std::uint32_t t = 0; t < 3; ++t) {
        EXPECT_EQ(a.tenantStats(t).accesses, b.tenantStats(t).accesses);
        EXPECT_EQ(a.tenantStats(t).misses, b.tenantStats(t).misses);
        EXPECT_EQ(a.tenantStats(t).writebacks,
                  b.tenantStats(t).writebacks);
    }
}

TEST(SharedCache, MaskedVictimScanNeverAllocatesOutsideMask)
{
    // Fill the single set as tenant 1 (ways 4..7 only), then verify
    // tenant 0's lines in ways 0..3 were never displaced even under
    // heavy tenant-1 pressure with writes.
    CacheModel c(testCache(8 * 64, 8), 2);
    c.setWayMask(0, 0x0F);
    c.setWayMask(1, 0xF0);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.access(i * 64, false, 0);
    Rng rng(9);
    for (int i = 0; i < 5000; ++i)
        c.access((8 + rng.nextU64(64)) * 64, rng.nextBool(0.5), 1);
    std::uint64_t t0_hits = 0;
    for (std::uint64_t i = 0; i < 4; ++i)
        t0_hits += c.access(i * 64, false, 0) ? 1 : 0;
    EXPECT_EQ(t0_hits, 4u);
}

// ---------------------------------------------------------------------------
// AccessBatch::rebase (tenant address-space separation)

TEST(AccessBatchRebase, OffsetsMemoryEventsAndSkipsBranches)
{
    AccessBatch b;
    b.reserve(8);
    b.pushData(0x1000, false);
    b.pushBranch(0xdeadbeefULL, true);
    b.pushIfetch(0x2000);
    b.pushData(0x3000, true);
    const std::uint64_t offset = 1ULL << 45;
    b.rebase(offset);

    const std::uint64_t *ev = b.events();
    EXPECT_EQ(ev[0] & AccessBatch::kAddrMask, 0x1000 + offset);
    EXPECT_EQ(ev[0] >> AccessBatch::kOpShift,
              static_cast<std::uint64_t>(SimOp::Load));
    // The branch event has no address; its word must be untouched.
    EXPECT_EQ(ev[1] & AccessBatch::kAddrMask, 0u);
    EXPECT_EQ(ev[1] >> AccessBatch::kOpShift,
              static_cast<std::uint64_t>(SimOp::BranchTaken));
    EXPECT_EQ(b.sites()[0], 0xdeadbeefULL);
    EXPECT_EQ(ev[2] & AccessBatch::kAddrMask, 0x2000 + offset);
    EXPECT_EQ(ev[3] & AccessBatch::kAddrMask, 0x3000 + offset);
    EXPECT_EQ(ev[3] >> AccessBatch::kOpShift,
              static_cast<std::uint64_t>(SimOp::Store));
}

// ---------------------------------------------------------------------------
// Partition policies (tentpole policy layer)

TEST(PartitionPolicy, NamesListMatchesFactory)
{
    const std::vector<std::string> &names = partitionPolicyNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "none");
    EXPECT_EQ(names[1], "static-equal");
    EXPECT_EQ(names[2], "critical-phase-aware");
    for (const std::string &n : names)
        EXPECT_EQ(makePartitionPolicy(n)->name(), n);
}

TEST(PartitionPolicy, CpaAliasResolves)
{
    EXPECT_STREQ(makePartitionPolicy("cpa")->name(),
                 "critical-phase-aware");
}

TEST(PartitionPolicy, UnknownNameThrowsNamingListFlag)
{
    try {
        makePartitionPolicy("bogus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--list"),
                  std::string::npos);
    }
}

TEST(PartitionPolicy, NoneGrantsAllWaysAndNeverRebalances)
{
    auto policy = makePartitionPolicy("none");
    std::vector<std::uint64_t> masks = policy->initialMasks(3, 16);
    ASSERT_EQ(masks.size(), 3u);
    for (std::uint64_t m : masks)
        EXPECT_EQ(m, (1ULL << 16) - 1);
    std::vector<CacheStats> cumulative(3);
    EXPECT_FALSE(policy->rebalance(cumulative, 16, masks));
}

TEST(PartitionPolicy, StaticEqualSplitsDisjointAndCovering)
{
    auto policy = makePartitionPolicy("static-equal");
    std::vector<std::uint64_t> masks = policy->initialMasks(3, 16);
    ASSERT_EQ(masks.size(), 3u);
    std::uint64_t unionMask = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
        EXPECT_NE(masks[i], 0u);
        for (std::size_t j = i + 1; j < masks.size(); ++j)
            EXPECT_EQ(masks[i] & masks[j], 0u) << i << " vs " << j;
        unionMask |= masks[i];
    }
    EXPECT_EQ(unionMask, (1ULL << 16) - 1);
    // Remainder goes to the first tenants: 16 ways over 3 = {6,5,5}.
    EXPECT_EQ(std::popcount(masks[0]), 6);
    EXPECT_EQ(std::popcount(masks[1]), 5);
    EXPECT_EQ(std::popcount(masks[2]), 5);
    std::vector<CacheStats> cumulative(3);
    EXPECT_FALSE(policy->rebalance(cumulative, 16, masks));
}

TEST(PartitionPolicy, MoreTenantsThanWaysStillGrantsEveryone)
{
    auto policy = makePartitionPolicy("static-equal");
    std::vector<std::uint64_t> masks = policy->initialMasks(6, 4);
    ASSERT_EQ(masks.size(), 6u);
    for (std::uint64_t m : masks) {
        EXPECT_NE(m, 0u);
        EXPECT_EQ(std::popcount(m), 1);
    }
}

TEST(PartitionPolicy, CpaShiftsWaysTowardHighMissTenant)
{
    auto policy = makePartitionPolicy("critical-phase-aware");
    std::vector<std::uint64_t> masks = policy->initialMasks(2, 16);
    EXPECT_EQ(std::popcount(masks[0]), 8);
    EXPECT_EQ(std::popcount(masks[1]), 8);

    std::vector<CacheStats> cumulative(2);
    cumulative[0].accesses = 10000;
    cumulative[0].misses = 100;      // coasting
    cumulative[1].accesses = 10000;
    cumulative[1].misses = 8000;     // critical phase
    EXPECT_TRUE(policy->rebalance(cumulative, 16, masks));

    EXPECT_GT(std::popcount(masks[1]), std::popcount(masks[0]));
    EXPECT_GE(std::popcount(masks[0]), 1);  // one-way floor
    EXPECT_EQ(masks[0] & masks[1], 0u);     // still disjoint
    EXPECT_EQ(masks[0] | masks[1], (1ULL << 16) - 1);

    // Identical inputs on a fresh policy give identical masks
    // (bit-reproducible rebalancing).
    auto policy2 = makePartitionPolicy("cpa");
    std::vector<std::uint64_t> masks2 = policy2->initialMasks(2, 16);
    EXPECT_TRUE(policy2->rebalance(cumulative, 16, masks2));
    EXPECT_EQ(masks, masks2);
}

// ---------------------------------------------------------------------------
// Interleaver determinism

/** Deterministic synthetic event stream chunked into blocks of
 *  @p block_events -- same seed, same concatenated event order for
 *  every chunking. */
TenantStream
makeStream(const std::string &name, std::uint64_t seed,
           std::size_t events, std::size_t block_events)
{
    TenantStream s;
    s.name = name;
    Rng rng(seed);
    AccessBatch batch;
    batch.reserve(block_events);
    auto flush = [&]() {
        if (!batch.empty()) {
            s.trace.append(batch);
            batch.clear();
        }
    };
    for (std::size_t i = 0; i < events; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t addr = (r >> 8) % (1ULL << 21);
        switch (r % 5) {
          case 0:
            batch.pushData(addr, true);
            break;
          case 1:
          case 2:
            batch.pushData(addr, false);
            break;
          case 3:
            batch.pushIfetch(addr);
            break;
          default:
            batch.pushBranch(r | 1, (r & 2) != 0);
            break;
        }
        if (batch.full())
            flush();
    }
    flush();
    return s;
}

void
expectSameStats(const TenantReplayStats &a, const TenantReplayStats &b)
{
    const auto eq = [](const CacheStats &x, const CacheStats &y) {
        EXPECT_EQ(x.accesses, y.accesses);
        EXPECT_EQ(x.misses, y.misses);
        EXPECT_EQ(x.writebacks, y.writebacks);
    };
    eq(a.l1i, b.l1i);
    eq(a.l1d, b.l1d);
    eq(a.l2, b.l2);
    eq(a.l3, b.l3);
    EXPECT_EQ(a.branch.branches, b.branch.branches);
    EXPECT_EQ(a.branch.mispredicts, b.branch.mispredicts);
}

TEST(Interleaver, BlockChunkingIsInvisible)
{
    const MachineConfig machine = westmereE5645();
    InterleaveResult results[2];
    const std::size_t chunks[2] = {128, 4096};
    for (int v = 0; v < 2; ++v) {
        std::vector<TenantStream> streams;
        streams.push_back(
            makeStream("a", 0xaaa, 50000, chunks[v]));
        streams.push_back(
            makeStream("b", 0xbbb, 30000, chunks[v]));
        auto policy = makePartitionPolicy("critical-phase-aware");
        results[v] = interleaveReplay(machine, streams, *policy);
    }
    ASSERT_EQ(results[0].tenants.size(), 2u);
    ASSERT_EQ(results[1].tenants.size(), 2u);
    EXPECT_EQ(results[0].rebalances, results[1].rebalances);
    for (int t = 0; t < 2; ++t)
        expectSameStats(results[0].tenants[t], results[1].tenants[t]);
}

TEST(Interleaver, ExhaustedTenantDropsOutAndRestFinish)
{
    const MachineConfig machine = westmereE5645();
    std::vector<TenantStream> streams;
    streams.push_back(makeStream("short", 0x5, 1000, 512));
    streams.push_back(makeStream("long", 0x6, 40000, 512));
    const std::uint64_t short_events = streams[0].events();
    const std::uint64_t long_events = streams[1].events();
    auto policy = makePartitionPolicy("none");
    InterleaveResult r = interleaveReplay(machine, streams, *policy);
    // Every tenant's stream is fully consumed: per-tenant model
    // accesses can only exceed the memory-event count (ifetch +
    // data), never fall short of the data events alone.
    ASSERT_EQ(r.tenants.size(), 2u);
    const auto memEvents = [](const TenantReplayStats &t) {
        return t.l1i.accesses + t.l1d.accesses;
    };
    EXPECT_GT(memEvents(r.tenants[0]), 0u);
    EXPECT_GT(memEvents(r.tenants[1]), 0u);
    EXPECT_LE(memEvents(r.tenants[0]), short_events);
    EXPECT_LE(memEvents(r.tenants[1]), long_events);
}

// ---------------------------------------------------------------------------
// Recorded-LLC interleaving against the full-hierarchy reference

/**
 * The reference co-located replay: K full hierarchies whose L3
 * traffic goes straight into one SharedL3, each decoding its stream a
 * quantum at a time, round-robin, with the policy consulted every
 * phase_quanta rounds. interleaveReplay() must match it exactly.
 */
InterleaveResult
referenceInterleave(const MachineConfig &machine,
                    const std::vector<TenantStream> &streams,
                    PartitionPolicy &policy, const InterleaveConfig &cfg,
                    ReplayMode mode)
{
    struct StreamCursor
    {
        explicit StreamCursor(const CompressedTrace &trace) : cur(trace) {}
        CompressedTrace::Cursor cur;
        AccessBatch scratch;
    };

    const auto tenants = static_cast<std::uint32_t>(streams.size());
    const std::size_t quantum = cfg.quantum == 0 ? 1 : cfg.quantum;
    const std::size_t phase_quanta =
        cfg.phase_quanta == 0 ? 1 : cfg.phase_quanta;
    const std::uint32_t ways = machine.caches.l3.associativity;

    SharedL3 shared(machine.caches.l3, tenants);
    std::vector<std::unique_ptr<CacheHierarchy>> hiers;
    std::vector<std::unique_ptr<GsharePredictor>> preds;
    std::vector<StreamCursor> cursors;
    cursors.reserve(tenants);
    std::size_t active = 0;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        hiers.push_back(std::make_unique<CacheHierarchy>(
            machine.caches, shared, t));
        preds.push_back(std::make_unique<GsharePredictor>(
            machine.predictor.table_bits,
            machine.predictor.history_bits));
        cursors.emplace_back(streams[t].trace);
        active += cursors[t].cur.done() ? 0 : 1;
    }

    std::vector<std::uint64_t> masks = policy.initialMasks(tenants, ways);
    for (std::uint32_t t = 0; t < tenants; ++t)
        shared.setWayMask(t, masks[t]);

    InterleaveResult result;
    std::uint64_t rounds = 0;
    while (active > 0) {
        for (std::uint32_t t = 0; t < tenants; ++t) {
            StreamCursor &c = cursors[t];
            if (c.cur.done())
                continue;
            if (c.cur.decode(c.scratch, quantum) > 0)
                replayBatch(c.scratch, *hiers[t], *preds[t], mode);
            if (c.cur.done())
                --active;
        }
        ++rounds;
        if (active > 0 && rounds % phase_quanta == 0) {
            std::vector<CacheStats> cumulative(tenants);
            for (std::uint32_t t = 0; t < tenants; ++t)
                cumulative[t] = shared.tenantStats(t);
            if (policy.rebalance(cumulative, ways, masks)) {
                for (std::uint32_t t = 0; t < tenants; ++t)
                    shared.setWayMask(t, masks[t]);
                ++result.rebalances;
            }
        }
    }

    for (std::uint32_t t = 0; t < tenants; ++t) {
        TenantReplayStats st;
        st.l1i = hiers[t]->l1i().stats();
        st.l1d = hiers[t]->l1d().stats();
        st.l2 = hiers[t]->l2().stats();
        st.l3 = shared.tenantStats(t);
        st.branch = preds[t]->stats();
        result.tenants.push_back(st);
    }
    return result;
}

/** Westmere with a 256 KiB L3, small enough that the tenants below
 *  fight over its ways and the way masks decide who keeps what. */
MachineConfig
contendedMachine()
{
    MachineConfig machine = westmereE5645();
    machine.caches.l3.size_bytes = 256 * 1024;
    return machine;
}

TEST(LlcInterleaver, MatchesFullHierarchyReference)
{
    const MachineConfig machine = contendedMachine();
    // 17001 events end mid-quantum for quantum 7 and 4096; the empty
    // tenant never takes a turn.
    std::vector<TenantStream> streams;
    streams.push_back(makeStream("a", 0xa1, 30000, 4096));
    streams.push_back(makeStream("empty", 0xe0, 0, 4096));
    streams.push_back(makeStream("b", 0xb2, 17001, 1000));
    streams.push_back(makeStream("c", 0xc3, 24576, 512));

    std::uint64_t cpa_rebalances = 0;
    for (const std::string &name : partitionPolicyNames()) {
        for (std::size_t quantum : {1, 7, 4096}) {
            for (std::size_t phase : {1, 64}) {
                for (ReplayMode mode :
                     {ReplayMode::Vectorized, ReplayMode::Scalar}) {
                    SCOPED_TRACE(name + " quantum " +
                                 std::to_string(quantum) + " phase " +
                                 std::to_string(phase) +
                                 (mode == ReplayMode::Scalar
                                      ? " scalar"
                                      : " vector"));
                    const InterleaveConfig cfg{quantum, phase};
                    auto ref_policy = makePartitionPolicy(name);
                    auto policy = makePartitionPolicy(name);
                    const InterleaveResult want = referenceInterleave(
                        machine, streams, *ref_policy, cfg, mode);
                    const InterleaveResult got = interleaveReplay(
                        machine, streams, *policy, cfg, mode);
                    ASSERT_EQ(got.tenants.size(), want.tenants.size());
                    EXPECT_EQ(got.rebalances, want.rebalances);
                    for (std::size_t t = 0; t < want.tenants.size(); ++t)
                        expectSameStats(got.tenants[t], want.tenants[t]);
                    EXPECT_EQ(got.tenants[1].l1d.accesses, 0u);
                    if (name == "critical-phase-aware")
                        cpa_rebalances += want.rebalances;
                }
            }
        }
    }
    // The masks must actually have moved somewhere in the sweep.
    EXPECT_GT(cpa_rebalances, 0u);
}

TEST(TenantRecorder, IsolatedStatsAndLlcStreamIgnoreBlockSize)
{
    const MachineConfig machine = contendedMachine();
    const TenantStream stream = makeStream("a", 0x5eed, 150000, 4096);
    const std::size_t quantum = 1000;

    // Reference: the whole stream in one plain replay through a
    // private full-LLC hierarchy.
    AccessBatch all;
    CompressedTrace::Cursor all_cursor(stream.trace);
    all_cursor.decode(all, stream.events());
    CacheHierarchy caches(machine.caches, 1);
    GsharePredictor predictor(machine.predictor.table_bits,
                              machine.predictor.history_bits);
    replayBatch(all, caches, predictor);
    TenantReplayStats plain;
    plain.l1i = caches.l1i().stats();
    plain.l1d = caches.l1d().stats();
    plain.l2 = caches.l2().stats();
    plain.l3 = caches.l3Stats();
    plain.branch = predictor.stats();

    std::vector<TenantRecording> recs;
    for (ReplayMode mode : {ReplayMode::Vectorized, ReplayMode::Scalar}) {
        for (std::size_t block_events : {128, 4096, 65536}) {
            TenantRecorder recorder(machine, quantum, mode);
            CompressedTrace::Cursor cursor(stream.trace);
            AccessBatch block;
            while (cursor.decode(block, block_events) > 0)
                recorder.record(block);
            recs.push_back(recorder.finish());
        }
    }

    const TenantRecording &first = recs.front();
    EXPECT_EQ(first.events, stream.events());
    EXPECT_EQ(first.quantum, quantum);
    EXPECT_EQ(first.llc.size(), plain.l3.accesses);
    ASSERT_FALSE(first.llc_turns.empty());
    EXPECT_EQ(first.llc_turns.back().end, first.llc.size());
    for (const TenantRecording &rec : recs) {
        expectSameStats(rec.isolated, plain);
        EXPECT_EQ(rec.events, first.events);
        EXPECT_EQ(rec.llc, first.llc);
        ASSERT_EQ(rec.llc_turns.size(), first.llc_turns.size());
        for (std::size_t i = 0; i < rec.llc_turns.size(); ++i) {
            EXPECT_EQ(rec.llc_turns[i].index, first.llc_turns[i].index);
            EXPECT_EQ(rec.llc_turns[i].end, first.llc_turns[i].end);
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end runColocation (tentpole engine/runner layers)

ColocationSpec
tinySpec(const std::string &policy)
{
    ColocationSpec spec;
    spec.workloads = {"grep", "kmeans"};
    spec.policy = policy;
    spec.scale = Scale::Tiny;
    spec.seed = 99;
    return spec;
}

TEST(RunColocation, FewerThanTwoTenantsThrows)
{
    ColocationSpec spec;
    spec.workloads = {"grep"};
    EXPECT_THROW(runColocation(spec, paperCluster5(), CacheConfig{},
                               CachePolicy::Use),
                 std::invalid_argument);
}

TEST(RunColocation, UnknownPolicyThrowsNamingListFlag)
{
    ColocationSpec spec = tinySpec("bogus-policy");
    try {
        runColocation(spec, paperCluster5(), CacheConfig{},
                      CachePolicy::Use);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("--list"),
                  std::string::npos);
    }
}

TEST(RunColocation, UnknownWorkloadThrows)
{
    ColocationSpec spec = tinySpec("none");
    spec.workloads = {"grep", "nosuchworkload"};
    EXPECT_THROW(runColocation(spec, paperCluster5(), CacheConfig{},
                               CachePolicy::Use),
                 std::invalid_argument);
}

TEST(RunColocation, BitIdenticalAcrossShardCounts)
{
    // The replay kernel runs inside the sharded capture, so neither
    // knob may show in any result or stream size.
    ColocationSpec spec = tinySpec("static-equal");
    std::vector<ColocationOutcome> runs;
    for (std::size_t shards : {1, 4}) {
        for (ReplayMode mode :
             {ReplayMode::Vectorized, ReplayMode::Scalar}) {
            ClusterConfig c = paperCluster5();
            c.sim.shards = shards;
            c.sim.replay = mode;
            runs.push_back(
                runColocation(spec, c, CacheConfig{}, CachePolicy::Use));
            ASSERT_EQ(runs.back().status, RunStatus::Ok)
                << runs.back().error;
        }
    }
    const ColocationOutcome &a = runs.front();
    for (const ColocationOutcome &b : runs) {
        EXPECT_EQ(a.checksum, b.checksum);
        ASSERT_EQ(a.tenants.size(), b.tenants.size());
        for (std::size_t i = 0; i < a.tenants.size(); ++i) {
            EXPECT_EQ(a.tenants[i].isolated_runtime_s,
                      b.tenants[i].isolated_runtime_s);
            EXPECT_EQ(a.tenants[i].colocated_runtime_s,
                      b.tenants[i].colocated_runtime_s);
            EXPECT_EQ(a.tenants[i].captured_events,
                      b.tenants[i].captured_events);
            EXPECT_EQ(a.tenants[i].llc_accesses,
                      b.tenants[i].llc_accesses);
        }
        EXPECT_EQ(a.stp, b.stp);
        EXPECT_EQ(a.antt, b.antt);
        EXPECT_EQ(a.unfairness, b.unfairness);
    }
    for (const TenantOutcome &t : a.tenants) {
        EXPECT_GT(t.llc_accesses, 0u);
        EXPECT_LT(t.llc_accesses, t.captured_events);
    }
}

TEST(RunColocation, StaticEqualDiffersFromNoneUnderContention)
{
    // Shrink the LLC so the pairing genuinely contends for capacity:
    // with a paper-sized 12 MiB L3 the tiny working sets barely
    // interact, with 256 KiB they fight for every way.
    ClusterConfig cluster = paperCluster5();
    cluster.node.caches.l3.size_bytes = 256 * 1024;

    ColocationOutcome none = runColocation(
        tinySpec("none"), cluster, CacheConfig{}, CachePolicy::Use);
    ColocationOutcome eq =
        runColocation(tinySpec("static-equal"), cluster, CacheConfig{},
                      CachePolicy::Use);
    ASSERT_EQ(none.status, RunStatus::Ok) << none.error;
    ASSERT_EQ(eq.status, RunStatus::Ok) << eq.error;
    ASSERT_EQ(none.tenants.size(), 2u);
    ASSERT_EQ(eq.tenants.size(), 2u);

    // Isolated baselines are policy-independent by construction...
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(none.tenants[i].isolated_runtime_s,
                  eq.tenants[i].isolated_runtime_s);
    }
    // ...while the partitioning must measurably move at least one
    // tenant's co-located L3 hit ratio.
    double max_delta = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
        const double none_hit =
            none.tenants[i].colocated_metrics[Metric::L3Hit];
        const double eq_hit =
            eq.tenants[i].colocated_metrics[Metric::L3Hit];
        max_delta = std::max(max_delta, std::abs(none_hit - eq_hit));
    }
    EXPECT_GT(max_delta, 1e-3);
}

TEST(RunColocation, WarmCacheRoundTripsBitIdentically)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "dmpb-colo-cache-test";
    fs::remove_all(dir);
    CacheConfig cache;
    cache.ref_dir = dir.string();

    ColocationSpec spec = tinySpec("critical-phase-aware");
    ColocationOutcome cold = runColocation(spec, paperCluster5(),
                                           cache, CachePolicy::Use);
    ASSERT_EQ(cold.status, RunStatus::Ok) << cold.error;
    EXPECT_FALSE(cold.from_cache);

    ColocationOutcome warm = runColocation(spec, paperCluster5(),
                                           cache, CachePolicy::Use);
    ASSERT_EQ(warm.status, RunStatus::Ok) << warm.error;
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(cold.checksum, warm.checksum);
    ASSERT_EQ(cold.tenants.size(), warm.tenants.size());
    for (std::size_t i = 0; i < cold.tenants.size(); ++i) {
        EXPECT_EQ(cold.tenants[i].isolated_runtime_s,
                  warm.tenants[i].isolated_runtime_s);
        EXPECT_EQ(cold.tenants[i].colocated_runtime_s,
                  warm.tenants[i].colocated_runtime_s);
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            const Metric metric = static_cast<Metric>(m);
            EXPECT_EQ(cold.tenants[i].colocated_metrics[metric],
                      warm.tenants[i].colocated_metrics[metric]);
        }
    }

    // Bypass ignores the warm cache and still reproduces the bits.
    ColocationOutcome bypass = runColocation(
        spec, paperCluster5(), cache, CachePolicy::Bypass);
    ASSERT_EQ(bypass.status, RunStatus::Ok) << bypass.error;
    EXPECT_FALSE(bypass.from_cache);
    EXPECT_EQ(bypass.checksum, cold.checksum);

    fs::remove_all(dir);
}

TEST(RunColocation, DifferentPoliciesKeepIsolatedBaselinesIdentical)
{
    ColocationOutcome none = runColocation(
        tinySpec("none"), paperCluster5(), CacheConfig{},
        CachePolicy::Use);
    ColocationOutcome cpa = runColocation(
        tinySpec("cpa"), paperCluster5(), CacheConfig{},
        CachePolicy::Use);
    ASSERT_EQ(none.status, RunStatus::Ok) << none.error;
    ASSERT_EQ(cpa.status, RunStatus::Ok) << cpa.error;
    EXPECT_EQ(cpa.policy, "critical-phase-aware");
    ASSERT_EQ(none.tenants.size(), cpa.tenants.size());
    for (std::size_t i = 0; i < none.tenants.size(); ++i) {
        EXPECT_EQ(none.tenants[i].isolated_runtime_s,
                  cpa.tenants[i].isolated_runtime_s);
    }
}

} // namespace
} // namespace dmpb
