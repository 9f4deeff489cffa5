/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * This is the PMC substitute for cache-behaviour metrics: instrumented
 * kernels push every (sampled) load/store through a three-level data
 * hierarchy plus an instruction cache, and hit ratios fall out of the
 * per-level counters exactly as they would from hardware counters.
 *
 * The model is the hottest code in the repo (hundreds of millions of
 * calls per suite run), so it is laid out for throughput: per-way
 * state lives in structure-of-arrays form (a tag scan touches one or
 * two cache lines, not a struct per way), the hit path does nothing
 * but scan tags and bump an age stamp, the victim scan is branch-free,
 * and power-of-two set counts take a mask/shift fast path instead of
 * modulo/divide. access() is defined inline so both the scalar path
 * and the batched replay loop (sim/engine.hh) inline it.
 *
 * Multi-tenant sharing (the co-location mode): a CacheModel can be
 * constructed for K tenants, each with its own CacheStats and an
 * Intel-CAT-style way-allocation mask. Masks restrict where a
 * tenant's misses may *allocate*; hits are served from any way, which
 * is exactly CAT's semantics -- a line another tenant installed is
 * still readable. The single-tenant configuration (the default, and
 * the only one the isolated pipelines use) keeps the mask at
 * all-ways, which the victim scan recognises and takes the original
 * unmasked branch-free path -- the private-slice behaviour is
 * bit-identical by construction, tags, ages and MRU hints included.
 */

#ifndef DMPB_SIM_CACHE_HH
#define DMPB_SIM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/access_batch.hh"

namespace dmpb {

class BranchPredictor;

/** Geometry and bookkeeping parameters of one cache level. */
struct CacheParams
{
    std::string name;          ///< e.g. "L1D"
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t associativity = 8;
    std::uint32_t line_bytes = 64;

    /**
     * Number of sets implied by the geometry.
     *
     * Only exact geometries are legal: CacheModel's constructor
     * rejects a size_bytes that is not a multiple of
     * associativity * line_bytes, because integer division here would
     * silently shrink the modelled cache.
     */
    std::uint64_t numSets() const;
};

/**
 * The private LLC slice one of @p sharers contexts sees
 * (capacity / sharers, rounded down to whole ways so the resulting
 * geometry stays exact; never fewer than one set). Oversubscription --
 * more sharers than the capacity has whole-way set slices -- clamps to
 * a one-set slice and logs a warning, since a degenerate slice usually
 * means the caller's sharer count is a configuration bug.
 */
CacheParams sliceL3(CacheParams l3, std::uint32_t sharers);

/** Hit/miss/writeback counters of one cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double hitRatio() const;
    void merge(const CacheStats &other);
    /**
     * Multiply all counters by @p factor (trace-sampling scale-up).
     *
     * Counters are rounded (not truncated) and re-clamped to the
     * structural invariants misses <= accesses and
     * writebacks <= misses, so the scaled hit ratio tracks the
     * measured one instead of drifting with per-counter truncation.
     */
    void scale(double factor);
};

/**
 * One set-associative, write-back, write-allocate cache level.
 *
 * True-LRU replacement via per-way age stamps. Invariants of the
 * structure-of-arrays state: an invalid way holds tag kInvalidTag
 * (which can never equal a real tag -- simulated addresses stay far
 * below 2^63) and age 0; the global age clock starts at 1, so the
 * branch-free minimum-age victim scan prefers empty ways over any
 * valid line.
 *
 * With @p tenants > 1 the model is shared: every access carries a
 * tenant index selecting the CacheStats it accounts into and the way
 * mask its misses may allocate into. A writeback is attributed to the
 * *evicting* tenant (the one whose allocation displaced the dirty
 * line), matching how CMT-style monitoring attributes victim traffic.
 */
class CacheModel
{
  public:
    /**
     * @param params  Level geometry.
     * @param tenants Contexts sharing this cache (>= 1). Each starts
     *                with the all-ways allocation mask.
     */
    explicit CacheModel(const CacheParams &params,
                        std::uint32_t tenants = 1);

    /** Access one cache line as tenant 0 (the single-tenant path). */
    bool
    access(std::uint64_t addr, bool write)
    {
        return access(addr, write, 0);
    }

    /**
     * Access one cache line.
     *
     * @param addr   Byte address (any address within the line).
     * @param write  True for stores (sets the dirty bit).
     * @param tenant Accounting/allocation identity (< tenants()).
     * @return true on hit.
     */
    bool
    access(std::uint64_t addr, bool write, std::uint32_t tenant)
    {
        CacheStats &st = tstats_[tenant];
        ++st.accesses;
        const std::uint64_t line = addr >> line_shift_;
        // Two-entry MRU hint: the two most recently accessed lines
        // are resident unless an eviction in between took one (the
        // miss path below invalidates the affected slot) or flush()
        // dropped everything (it resets both). Repeated touches of
        // one line and the load/load interleave of two streams (e.g.
        // activations x weights) skip the tag scan entirely, with
        // counters and LRU state identical to the full path below.
        // Hint hits are plain hits, so they stay mask-blind even in
        // shared mode (CAT allows hits in any way).
        if (line == mru_line_[0]) {
            lru_[mru_way_[0]] = ++tick_;
            dirty_[mru_way_[0]] |= write;
            return true;
        }
        if (line == mru_line_[1]) {
            lru_[mru_way_[1]] = ++tick_;
            dirty_[mru_way_[1]] |= write;
            std::swap(mru_line_[0], mru_line_[1]);
            std::swap(mru_way_[0], mru_way_[1]);
            return true;
        }
        std::uint64_t set;
        std::uint64_t tag;
        if (pow2_sets_) {
            set = line & set_mask_;
            tag = line >> set_shift_;
        } else {
            set = line % num_sets_;
            tag = line / num_sets_;
        }
        return lookupLine(line, set, tag, write, st, tenant);
    }

    /**
     * access() with the line/set/tag decomposition already done by
     * the caller -- the vectorized replay kernel's decode pass
     * precomputes these into SoA scratch arrays (pow2 geometries
     * only; see pow2Sets()). The arguments must satisfy
     * line = addr >> lineShift(), set = line & setMask(),
     * tag = line >> setShift(); under that contract this is
     * bit-identical to access() in state and statistics.
     */
    bool
    accessDecoded(std::uint64_t line, std::uint64_t set,
                  std::uint64_t tag, bool write,
                  std::uint32_t tenant = 0)
    {
        CacheStats &st = tstats_[tenant];
        ++st.accesses;
        if (line == mru_line_[0]) {
            lru_[mru_way_[0]] = ++tick_;
            dirty_[mru_way_[0]] |= write;
            return true;
        }
        if (line == mru_line_[1]) {
            lru_[mru_way_[1]] = ++tick_;
            dirty_[mru_way_[1]] |= write;
            std::swap(mru_line_[0], mru_line_[1]);
            std::swap(mru_way_[0], mru_way_[1]);
            return true;
        }
        return lookupLine(line, set, tag, write, st, tenant);
    }

    /**
     * Fold @p n consecutive MRU-slot-0 hint hits into one call.
     *
     * Precondition: the immediately preceding access touched the line
     * now hinted in slot 0 (every access() leaves its line there) and
     * each of the @p n folded accesses targets that same line. Each
     * such access would take the slot-0 hint path above -- bump the
     * age clock, restamp the hinted way, OR the dirty bit -- so the
     * fold below is bit-identical in counters AND replacement state
     * (stateHashForTest() agrees): the way's age stamp only keeps its
     * final value, and the dirty bit ORs the run's stores at once.
     * The replay kernel uses this to coalesce same-line runs; hint
     * hits never consult way masks, so shared-mode behaviour is
     * untouched.
     *
     * @param any_write True if any of the @p n accesses is a store.
     */
    void
    mruHintRun(std::uint64_t n, bool any_write,
               std::uint32_t tenant = 0)
    {
        CacheStats &st = tstats_[tenant];
        st.accesses += n;
        tick_ += n;
        lru_[mru_way_[0]] = tick_;
        dirty_[mru_way_[0]] |= any_write;
    }

  private:
    /**
     * Shared tail of access()/accessDecoded(): the tag scan and, on a
     * miss, the victim scan + fill. @p st is the tenant's counters
     * (accesses already bumped by the caller).
     */
    bool
    lookupLine(std::uint64_t line, std::uint64_t set,
               std::uint64_t tag, bool write, CacheStats &st,
               std::uint32_t tenant)
    {
        const std::uint32_t assoc = assoc_;
        std::uint64_t *tags = &tags_[set * assoc];

        // Hit path: a pure tag scan over one contiguous array.
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (tags[w] == tag) {
                const std::size_t way = set * assoc + w;
                lru_[way] = ++tick_;
                dirty_[way] |= write;
                mru_line_[1] = mru_line_[0];
                mru_way_[1] = mru_way_[0];
                mru_line_[0] = line;
                mru_way_[0] = way;
                return true;
            }
        }

        ++st.misses;
        std::uint64_t *age = &lru_[set * assoc];
        std::uint8_t *dirty = &dirty_[set * assoc];
        const std::uint64_t mask = way_masks_[tenant];
        std::uint32_t victim = 0;
        if (mask == full_mask_) {
            // Branch-free minimum-age victim scan (empty ways age 0).
            // The all-ways mask -- always the case for single-tenant
            // models -- keeps the original scan, untouched.
            std::uint64_t best = age[0];
            for (std::uint32_t w = 1; w < assoc; ++w) {
                const bool better = age[w] < best;
                victim = better ? w : victim;
                best = better ? age[w] : best;
            }
        } else {
            // Masked variant, still branch-free: a disallowed way
            // scans as kBarredAge (older than any real stamp can
            // get), so the minimum scan can only select a permitted
            // way. setWayMask() rejects empty masks, so at least one
            // way always beats the kBarredAge sentinel.
            std::uint64_t best = kBarredAge;
            for (std::uint32_t w = 0; w < assoc; ++w) {
                const std::uint64_t a =
                    ((mask >> w) & 1) ? age[w] : kBarredAge;
                const bool better = a < best;
                victim = better ? w : victim;
                best = better ? a : best;
            }
        }
        if (age[victim] != 0 && dirty[victim])
            ++st.writebacks;
        tags[victim] = tag;
        age[victim] = ++tick_;
        dirty[victim] = write;
        const std::size_t way = set * assoc + victim;
        // The eviction may have displaced slot 0's hinted line; the
        // invalidation then propagates into slot 1 via the shift
        // below. (Slot 1's old entry is discarded by the shift, so
        // it needs no check of its own.)
        if (mru_way_[0] == way)
            mru_line_[0] = kNoLine;
        mru_line_[1] = mru_line_[0];
        mru_way_[1] = mru_way_[0];
        mru_line_[0] = line;
        mru_way_[0] = way;
        return false;
    }

  public:
    /** Drop all contents (not the statistics). */
    void flush();

    /**
     * Return to the exact state of a freshly constructed model:
     * contents, statistics (every tenant), way masks, the LRU clock
     * and the MRU hint slots. A reset model is stateHashForTest()-
     * identical to a new CacheModel of the same geometry -- the
     * contract replica pooling (sim/replica_pool.hh) relies on.
     */
    void reset();

    const CacheParams &params() const { return params_; }

    /** @{ Address-decomposition constants for external decode passes
     *  (the vectorized replay kernel). */
    std::uint32_t lineShift() const { return line_shift_; }
    bool pow2Sets() const { return pow2_sets_; }
    std::uint64_t setMask() const { return set_mask_; }
    std::uint32_t setShift() const { return set_shift_; }
    /** @} */

    /** Tenant 0's counters -- the only ones a single-tenant model
     *  has, so existing callers read exactly what they always did. */
    const CacheStats &stats() const { return tstats_[0]; }
    CacheStats &stats() { return tstats_[0]; }

    /** @{ Multi-tenant accounting and way partitioning. */
    std::uint32_t
    tenants() const
    {
        return static_cast<std::uint32_t>(tstats_.size());
    }

    const CacheStats &
    tenantStats(std::uint32_t tenant) const
    {
        return tstats_[tenant];
    }

    /** Sum of all tenants' counters. */
    CacheStats totalStats() const;

    /**
     * Restrict @p tenant's future allocations to the ways set in
     * @p mask (bit w = way w of every set). The mask must be
     * non-empty and within the associativity; it does not evict lines
     * the tenant already holds outside it (again CAT semantics --
     * re-partitioning is gradual, stale lines age out).
     */
    void setWayMask(std::uint32_t tenant, std::uint64_t mask);

    std::uint64_t
    wayMask(std::uint32_t tenant) const
    {
        return way_masks_[tenant];
    }

    /** The all-ways mask of this geometry. */
    std::uint64_t fullMask() const { return full_mask_; }
    /** @} */

    /**
     * Testing hook: an order-sensitive fnv64 digest of the complete
     * replacement state -- tags, ages, dirty bits, MRU hints and the
     * LRU clock. Two models whose digests agree have byte-identical
     * future behaviour, so equivalence tests can assert *state*
     * identity, not just counter identity.
     */
    std::uint64_t stateHashForTest() const;

    /**
     * Testing hook: force the generic modulo/divide indexing path
     * even though the set count is a power of two, so equivalence
     * with the mask/shift fast path can be asserted.
     */
    void
    forceModuloIndexingForTest()
    {
        pow2_sets_ = false;
        mru_line_[0] = mru_line_[1] = kNoLine;
    }

  private:
    static constexpr std::uint64_t kInvalidTag = ~0ULL;
    /** Impossible line number (addresses stay far below 2^63). */
    static constexpr std::uint64_t kNoLine = ~0ULL;
    /** Scan sentinel for ways outside the tenant's mask: older than
     *  any reachable age stamp, never selected while a permitted way
     *  exists. */
    static constexpr std::uint64_t kBarredAge = ~0ULL;

    CacheParams params_;
    /** Per-tenant counters; size >= 1 (index 0 = the classic path). */
    std::vector<CacheStats> tstats_;
    /** Per-tenant way-allocation masks (all-ways by default). */
    std::vector<std::uint64_t> way_masks_;
    std::uint64_t full_mask_;
    /** @{ Way state, set-major structure-of-arrays. */
    std::vector<std::uint64_t> tags_;   ///< kInvalidTag = empty way
    std::vector<std::uint64_t> lru_;    ///< age stamp; 0 = empty way
    std::vector<std::uint8_t> dirty_;
    /** @} */
    std::uint64_t tick_ = 0;  ///< global LRU clock
    std::uint64_t mru_line_[2] = {kNoLine, kNoLine};  ///< recent lines
    std::size_t mru_way_[2] = {0, 0};   ///< their global way indices
    std::uint64_t num_sets_;
    std::uint64_t set_mask_;     ///< num_sets - 1 (pow2 path)
    std::uint32_t set_shift_;    ///< log2(num_sets) (pow2 path)
    std::uint32_t assoc_;
    std::uint32_t line_shift_;
    bool pow2_sets_;
};

/**
 * One L3 shared by K tenants -- the co-location replacement for the
 * private-slice approximation. Each tenant accesses it under its own
 * tenant index, so their traffic contends for the same sets and ways
 * while per-tenant counters and allocation masks stay separate.
 *
 * The co-location interleaver (sim/colocation) drives model()
 * directly with each tenant's recorded LLC stream, the accesses its
 * private L2 missed on. A CacheHierarchy can also route its L3
 * traffic into a SharedL3 (its shared-L3 constructor); the tests'
 * full-hierarchy reference interleaver does so.
 *
 * Thread confinement, not locking: the deterministic round-robin
 * interleaver replays every tenant's LLC stream on ONE thread, so the
 * shared model needs no mutex and adds zero cost to the per-access
 * path. A SharedL3 must not be driven from concurrent threads; the
 * clang thread-safety build keeps this cheap to uphold because there
 * is simply no cross-thread API.
 */
class SharedL3
{
  public:
    SharedL3(const CacheParams &l3, std::uint32_t tenants)
        : model_(l3, tenants)
    {
    }

    CacheModel &model() { return model_; }
    const CacheModel &model() const { return model_; }

    std::uint32_t tenants() const { return model_.tenants(); }

    void
    setWayMask(std::uint32_t tenant, std::uint64_t mask)
    {
        model_.setWayMask(tenant, mask);
    }

    const CacheStats &
    tenantStats(std::uint32_t tenant) const
    {
        return model_.tenantStats(tenant);
    }

  private:
    CacheModel model_;
};

/**
 * An L1I + L1D + unified L2 + unified L3 hierarchy for one hardware
 * context. Two L3 arrangements exist:
 *
 *  - private slice (default): L3 sharing between cores is
 *    approximated by giving each context a private slice of the L3
 *    (capacity / sharers); this keeps the per-access path lock-free,
 *    which matters because every traced memory reference passes
 *    through here.
 *
 *  - shared: the hierarchy references a caller-owned SharedL3 under
 *    its tenant index; L1/L2 stay private. The caller must keep the
 *    SharedL3 alive for the hierarchy's lifetime and replay
 *    contending hierarchies from a single thread. The tests use it
 *    as the reference for co-location's recorded LLC streams (see
 *    SharedL3).
 */
class CacheHierarchy
{
  public:
    struct Params
    {
        CacheParams l1i;
        CacheParams l1d;
        CacheParams l2;
        CacheParams l3;
    };

    /**
     * @param params  Full-machine geometry.
     * @param l3_sharers  Number of contexts sharing the L3; this
     *                    context models l3.size / sharers bytes.
     */
    CacheHierarchy(const Params &params, std::uint32_t l3_sharers = 1);

    /**
     * Shared-LLC variant: private L1/L2 from @p params, L3 traffic
     * routed into @p shared_l3 as @p tenant.
     */
    CacheHierarchy(const Params &params, SharedL3 &shared_l3,
                   std::uint32_t tenant);

    /** Data access walking L1D -> L2 -> L3. */
    void
    dataAccess(std::uint64_t addr, bool write)
    {
        if (l1d_.access(addr, write))
            return;
        if (l2_.access(addr, write))
            return;
        l3Access(addr, write);
    }

    /**
     * dataAccess() with the L1D line/set/tag decomposition already
     * done (the replay kernel's decode pass precomputes it; L2/L3
     * decode from @p addr as usual on the rare L1D miss).
     */
    void
    dataAccessDecoded(std::uint64_t addr, std::uint64_t line,
                      std::uint64_t set, std::uint64_t tag,
                      bool write)
    {
        if (l1d_.accessDecoded(line, set, tag, write))
            return;
        if (l2_.access(addr, write))
            return;
        l3Access(addr, write);
    }

    /**
     * Fold @p n L1D MRU-hint hits of the line the preceding data
     * access touched (see CacheModel::mruHintRun). Hint hits never
     * reach L2/L3, so only the private L1D is involved -- shared-L3
     * and way-mask behaviour cannot be affected.
     */
    void
    l1dHintRun(std::uint64_t n, bool any_write)
    {
        l1d_.mruHintRun(n, any_write);
    }

    /** Instruction-fetch access walking L1I -> L2 -> L3. */
    void
    instrAccess(std::uint64_t addr)
    {
        if (l1i_.access(addr, false))
            return;
        if (l2_.access(addr, false))
            return;
        l3Access(addr, false);
    }

    /**
     * Batched replay: drain @p batch through this hierarchy (and
     * branch events through @p predictor) in strict program order.
     * Produces statistics bit-identical to issuing the same events
     * through dataAccess()/instrAccess()/record() one at a time,
     * for either replay kernel.
     */
    void replay(const AccessBatch &batch, BranchPredictor &predictor,
                ReplayMode mode = ReplayMode::Vectorized);

    const CacheModel &l1i() const { return l1i_; }
    const CacheModel &l1d() const { return l1d_; }
    const CacheModel &l2() const { return l2_; }
    const CacheModel &l3() const { return *l3_; }

    /** This context's L3 counters: tenant-scoped under a SharedL3,
     *  the whole private slice otherwise (identical reads). */
    const CacheStats &l3Stats() const
    {
        return l3_->tenantStats(l3_tenant_);
    }

    /** Tenant index of this context's L3 traffic (0 when private). */
    std::uint32_t l3Tenant() const { return l3_tenant_; }

    /**
     * Tap the L3's input: from now on every access an L2 miss passes
     * to the L3 is also appended to @p log as the byte address with
     * bit 0 replaced by the write flag (bit 0 never reaches the index
     * of a line of two or more bytes). nullptr, the default, turns the
     * tap off. The log must outlive the tap. Only co-location's
     * TenantRecorder sets one; the tap changes no model state.
     */
    void setLlcLog(std::vector<std::uint64_t> *log) { llc_log_ = log; }

    /** Drop all cached contents. In shared mode this flushes the
     *  SharedL3 too (every tenant's lines): resetting one tenant of a
     *  contended cache is not a meaningful operation. */
    void flush();

    /**
     * Return every level to its freshly constructed state (contents,
     * statistics, clocks, masks; see CacheModel::reset). Private-
     * slice hierarchies only -- one tenant of a shared L3 cannot be
     * meaningfully reset.
     */
    void reset();

    /** Testing hook: combined state digest of all four levels (the
     *  L3 slice or the whole shared L3). */
    std::uint64_t stateHashForTest() const;

  private:
    /** The L2-miss path of every walk: feed the tap, then the L3. */
    void
    l3Access(std::uint64_t addr, bool write)
    {
        if (llc_log_ != nullptr) [[unlikely]]
            logLlc(addr, write);
        l3_->access(addr, write, l3_tenant_);
    }

    /** The tap's append, kept out of line so the inlined walks stay
     *  small for the pipelines, which never set a tap. */
    void logLlc(std::uint64_t addr, bool write);

    CacheModel l1i_;
    CacheModel l1d_;
    CacheModel l2_;
    /** Owned in private-slice mode; empty when sharing. */
    std::unique_ptr<CacheModel> l3_own_;
    /** The L3 this hierarchy drives (own slice or the shared one). */
    CacheModel *l3_;
    std::uint32_t l3_tenant_ = 0;
    /** L3 input tap (setLlcLog); nullptr when off. */
    std::vector<std::uint64_t> *llc_log_ = nullptr;
};

} // namespace dmpb

#endif // DMPB_SIM_CACHE_HH
