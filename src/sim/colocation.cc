#include "sim/colocation.hh"

#include <utility>

#include "base/logging.hh"
#include "sim/engine.hh"

namespace dmpb {

namespace {

/** Events interleaveReplay() decodes per recorded block. */
constexpr std::size_t kDecodeBlockEvents = 64 * 1024;

std::size_t
effectiveQuantum(std::size_t quantum)
{
    return quantum == 0 ? 1 : quantum;
}

} // namespace

TenantRecorder::TenantRecorder(const MachineConfig &machine,
                               std::size_t quantum, ReplayMode mode)
    : caches_(machine.caches, 1),
      predictor_(machine.predictor.table_bits,
                 machine.predictor.history_bits),
      mode_(mode)
{
    rec_.quantum = effectiveQuantum(quantum);
    caches_.setLlcLog(&rec_.llc);
}

void
TenantRecorder::record(const AccessBatch &block)
{
    // Replay in slices that end on turn boundaries, so each turn's
    // LLC traffic is known when the turn closes.
    const std::size_t quantum = rec_.quantum;
    BatchCursor cursor;
    while (!cursor.done(block)) {
        rec_.events += replayRange(block, cursor,
                                   quantum - rec_.events % quantum,
                                   caches_, predictor_, mode_);
        if (rec_.events % quantum == 0)
            closeTurn();
    }
}

void
TenantRecorder::closeTurn()
{
    const std::uint64_t end = rec_.llc.size();
    const std::uint64_t start =
        rec_.llc_turns.empty() ? 0 : rec_.llc_turns.back().end;
    // The turn that holds the last recorded event.
    if (end > start)
        rec_.llc_turns.push_back({(rec_.events - 1) / rec_.quantum, end});
}

TenantRecording
TenantRecorder::finish()
{
    if (rec_.events % rec_.quantum != 0)
        closeTurn();
    caches_.setLlcLog(nullptr);
    TenantReplayStats &st = rec_.isolated;
    st.l1i = caches_.l1i().stats();
    st.l1d = caches_.l1d().stats();
    st.l2 = caches_.l2().stats();
    st.l3 = caches_.l3Stats();
    st.branch = predictor_.stats();
    return std::move(rec_);
}

InterleaveResult
interleaveLlc(const MachineConfig &machine,
              const std::vector<TenantRecording> &tenants,
              PartitionPolicy &policy, const InterleaveConfig &cfg)
{
    const std::uint32_t count =
        static_cast<std::uint32_t>(tenants.size());
    dmpb_assert(count >= 1, "co-located replay needs tenants");
    const std::size_t quantum = effectiveQuantum(cfg.quantum);
    for (const TenantRecording &rec : tenants)
        dmpb_assert(rec.quantum == quantum,
                    "LLC stream split at quantum ", rec.quantum,
                    ", interleaved at ", quantum);
    // The LLC stream keeps the write flag in address bit 0.
    dmpb_assert(machine.caches.l3.line_bytes >= 2,
                "co-location needs L3 lines of at least two bytes");
    const std::size_t phase_quanta =
        cfg.phase_quanta == 0 ? 1 : cfg.phase_quanta;
    const std::uint32_t ways = machine.caches.l3.associativity;

    // Everything below runs on the calling thread -- the SharedL3 is
    // thread-confined by construction, no locking anywhere.
    SharedL3 shared(machine.caches.l3, count);
    CacheModel &l3 = shared.model();

    std::vector<std::uint64_t> masks = policy.initialMasks(count, ways);
    dmpb_assert(masks.size() == count,
                policy.name(), ": initialMasks returned ",
                masks.size(), " masks for ", count, " tenants");
    for (std::uint32_t t = 0; t < count; ++t)
        shared.setWayMask(t, masks[t]);

    InterleaveResult result;
    // Per tenant: its turn count and its next llc_turns entry.
    std::vector<std::uint64_t> turns(count);
    std::vector<std::size_t> next_turn(count, 0);
    std::size_t active = 0;
    for (std::uint32_t t = 0; t < count; ++t) {
        turns[t] = (tenants[t].events + quantum - 1) / quantum;
        active += turns[t] > 0 ? 1 : 0;
    }

    // Round r is every active tenant's turn r.
    std::uint64_t rounds = 0;
    while (active > 0) {
        for (std::uint32_t t = 0; t < count; ++t) {
            const TenantRecording &rec = tenants[t];
            if (rounds >= turns[t])
                continue;
            std::size_t &nt = next_turn[t];
            if (nt < rec.llc_turns.size() &&
                rec.llc_turns[nt].index == rounds) {
                const std::uint64_t begin =
                    nt == 0 ? 0 : rec.llc_turns[nt - 1].end;
                for (std::uint64_t i = begin; i < rec.llc_turns[nt].end;
                     ++i) {
                    const std::uint64_t e = rec.llc[i];
                    l3.access(e, (e & 1) != 0, t);
                }
                ++nt;
            }
            if (rounds + 1 == turns[t])
                --active;
        }
        ++rounds;
        if (active > 0 && rounds % phase_quanta == 0) {
            std::vector<CacheStats> cumulative(count);
            for (std::uint32_t t = 0; t < count; ++t)
                cumulative[t] = shared.tenantStats(t);
            if (policy.rebalance(cumulative, ways, masks)) {
                for (std::uint32_t t = 0; t < count; ++t)
                    shared.setWayMask(t, masks[t]);
                ++result.rebalances;
            }
        }
    }

    result.tenants.reserve(count);
    for (std::uint32_t t = 0; t < count; ++t) {
        result.tenants.push_back(tenants[t].isolated);
        result.tenants.back().l3 = shared.tenantStats(t);
    }
    return result;
}

InterleaveResult
interleaveReplay(const MachineConfig &machine,
                 const std::vector<TenantStream> &streams,
                 PartitionPolicy &policy, const InterleaveConfig &cfg,
                 ReplayMode mode)
{
    std::vector<TenantRecording> recordings;
    recordings.reserve(streams.size());
    AccessBatch block;
    for (const TenantStream &stream : streams) {
        TenantRecorder recorder(machine, cfg.quantum, mode);
        CompressedTrace::Cursor cursor(stream.trace);
        while (cursor.decode(block, kDecodeBlockEvents) > 0)
            recorder.record(block);
        recordings.push_back(recorder.finish());
    }
    return interleaveLlc(machine, recordings, policy, cfg);
}

} // namespace dmpb
