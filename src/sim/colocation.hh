/**
 * @file
 * Deterministic co-located replay: K tenants' event streams through
 * one shared LLC under a way-partitioning policy.
 *
 * The isolated pipelines replay each workload's trace through private
 * models; co-location instead runs K *captured* streams (see
 * TraceContext::setCaptureSink) against one SharedL3, in two steps:
 *
 *   1. TenantRecorder replays one tenant's stream through a private
 *      full hierarchy. Its statistics are the tenant's isolated
 *      baseline. Its L3 input, every access the private L2 passes
 *      on, is recorded as the tenant's LLC stream, split into
 *      interleaver turns of InterleaveConfig::quantum events each.
 *   2. interleaveLlc() replays the K LLC streams through the one
 *      SharedL3, strictly round-robin, one turn at a time on a single
 *      thread.
 *
 * This is exactly a round-robin of K full hierarchies that share the
 * L3. L1I, L1D, L2 and the predictor are private in both arrangements,
 * a miss counts a writeback but sends no access to the next level,
 * and nothing flows back from the L3, so each tenant's L3 access
 * sequence depends on its own stream alone. The shared L3 sees the
 * same accesses, turns and mask changes either way, and a tenant's
 * co-located private-level statistics are its isolated ones.
 *
 * Contention, and therefore every statistic, is a pure function of
 * (streams, policy, quanta), independent of shard or worker counts
 * like every other engine knob in the repo.
 *
 * Phase boundaries for the policy layer are defined in replayed work,
 * not wall-clock: every InterleaveConfig::phase_quanta full rounds the
 * policy sees each tenant's cumulative L3 counters and may re-mask.
 */

#ifndef DMPB_SIM_COLOCATION_HH
#define DMPB_SIM_COLOCATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/access_batch.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/compressed_trace.hh"
#include "sim/machine.hh"
#include "sim/partition_policy.hh"

namespace dmpb {

/** One tenant's captured event stream, in program order. */
struct TenantStream
{
    std::string name;
    /**
     * The captured events, delta-compressed (~4-8x smaller than raw
     * 8-byte-per-event blocks). Block boundaries vanish in the byte
     * stream, only the concatenated event order matters.
     */
    CompressedTrace trace;

    /** Total captured events. */
    std::uint64_t events() const { return trace.events(); }
};

/** Knobs of the round-robin interleaver. Both are part of the
 *  simulated-contention definition (and of co-location cache keys),
 *  unlike engine knobs: a different quantum is a different scenario,
 *  not a different execution strategy. */
struct InterleaveConfig
{
    /** Events of a tenant's own stream per turn (0 acts as 1). */
    std::size_t quantum = 4096;
    /** Full round-robin rounds between policy rebalance() calls. */
    std::size_t phase_quanta = 64;
};

/** Per-tenant model statistics after a co-located replay. */
struct TenantReplayStats
{
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats l3;      ///< this tenant's share of the shared LLC
    BranchStats branch;
};

/** Outcome of interleaveLlc() and interleaveReplay(). */
struct InterleaveResult
{
    std::vector<TenantReplayStats> tenants;  ///< stream order
    /** Policy rebalances that actually changed at least one mask. */
    std::uint64_t rebalances = 0;
};

/** What TenantRecorder keeps of one tenant's stream. */
struct TenantRecording
{
    /** The private full hierarchy's statistics: the isolated
     *  baseline, and the private levels of the co-located run. */
    TenantReplayStats isolated;
    /** Events recorded. */
    std::uint64_t events = 0;
    /** Events per interleaver turn the stream was split at; the
     *  stream takes ceil(events / quantum) turns. */
    std::size_t quantum = 1;
    /**
     * The LLC stream: every access the private L2 passed to the L3,
     * in program order, as the byte address with bit 0 replaced by
     * the write flag (see CacheHierarchy::setLlcLog).
     */
    std::vector<std::uint64_t> llc;

    /** One turn that reached the L3 at least once. */
    struct Turn
    {
        std::uint64_t index;  ///< 0-based turn number
        std::uint64_t end;    ///< llc offset just past the turn
    };
    /** The turns with LLC traffic, in order. A turn with none, the
     *  common case under a small quantum, takes no entry. */
    std::vector<Turn> llc_turns;
};

/**
 * Replays one tenant's event blocks through a private full-LLC
 * hierarchy and records its LLC stream (see the file comment).
 *
 * The blocks may have any size: turns are cut at every quantum events
 * of the concatenated stream, and block or turn boundaries only bound
 * the vectorized kernel's run coalescing, which changes no statistic
 * and no L3 access.
 */
class TenantRecorder
{
  public:
    TenantRecorder(const MachineConfig &machine, std::size_t quantum,
                   ReplayMode mode = ReplayMode::Vectorized);

    /** The hierarchy's tap points into this object. */
    TenantRecorder(const TenantRecorder &) = delete;
    TenantRecorder &operator=(const TenantRecorder &) = delete;

    /** Replay the next events of the tenant's stream. */
    void record(const AccessBatch &block);

    /** Close the final partial turn and hand over the recording.
     *  Call once, after the last record(). */
    TenantRecording finish();

  private:
    /** End the turn of the last recorded event at the current end of
     *  the LLC stream. */
    void closeTurn();

    CacheHierarchy caches_;
    GsharePredictor predictor_;
    ReplayMode mode_;
    TenantRecording rec_;
};

/**
 * Replay @p tenants' LLC streams through one shared L3 of @p machine
 * under @p policy, single-threaded and bit-deterministic.
 *
 * Tenants take turns in order, one recorded turn each; exhausted
 * tenants drop out of the rotation and the rest keep contending until
 * every stream is drained (so a short tenant's tail pressure
 * disappears exactly when its work does). Each tenant's statistics
 * are its recorded private-level ones with its share of the shared
 * L3. Every recording must have been split at @p cfg's quantum.
 */
InterleaveResult interleaveLlc(const MachineConfig &machine,
                               const std::vector<TenantRecording> &tenants,
                               PartitionPolicy &policy,
                               const InterleaveConfig &cfg = {});

/**
 * Replay @p streams through private L1/L2 and one shared L3 of
 * @p machine under @p policy: decode each stream through a
 * TenantRecorder, then interleaveLlc().
 *
 * @p mode selects the replay kernel; like every engine knob it is
 * invisible in the statistics.
 */
InterleaveResult
interleaveReplay(const MachineConfig &machine,
                 const std::vector<TenantStream> &streams,
                 PartitionPolicy &policy,
                 const InterleaveConfig &cfg = {},
                 ReplayMode mode = ReplayMode::Vectorized);

} // namespace dmpb

#endif // DMPB_SIM_COLOCATION_HH
