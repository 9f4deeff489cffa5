#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/logging.hh"
#include "base/names.hh"
#include "sim/engine.hh"

namespace dmpb {

std::uint64_t
CacheParams::numSets() const
{
    return size_bytes / (static_cast<std::uint64_t>(associativity) *
                         line_bytes);
}

CacheParams
sliceL3(CacheParams l3, std::uint32_t sharers)
{
    if (sharers <= 1)
        return l3;
    std::uint64_t way_line = static_cast<std::uint64_t>(l3.associativity) *
                             l3.line_bytes;
    std::uint64_t sets = l3.size_bytes / sharers / way_line;
    if (sets == 0) {
        // Oversubscription: more sharers than whole-way set slices.
        // A one-set slice is the smallest exact geometry we can hand
        // out; warn, because a sharer count this large is usually a
        // configuration bug upstream, not a deliberate choice.
        dmpb_warn(l3.name, ": ", sharers,
                  " sharers oversubscribe the ", l3.size_bytes,
                  "-byte cache; clamping the per-sharer slice to one ",
                  way_line, "-byte set");
        sets = 1;
    }
    // Rounding down to whole ways keeps the slice geometry exact, so
    // the CacheModel constructor's divisibility check always holds.
    l3.size_bytes = sets * way_line;
    return l3;
}

double
CacheStats::hitRatio() const
{
    if (accesses == 0)
        return 1.0;
    return 1.0 - static_cast<double>(misses) /
                 static_cast<double>(accesses);
}

void
CacheStats::merge(const CacheStats &other)
{
    accesses += other.accesses;
    misses += other.misses;
    writebacks += other.writebacks;
}

void
CacheStats::scale(double factor)
{
    dmpb_assert(factor >= 0.0, "cannot scale counters negatively");
    auto scaled = [factor](std::uint64_t v) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * factor));
    };
    accesses = scaled(accesses);
    misses = std::min(scaled(misses), accesses);
    writebacks = std::min(scaled(writebacks), misses);
}

CacheModel::CacheModel(const CacheParams &params, std::uint32_t tenants)
    : params_(params)
{
    dmpb_assert(params.line_bytes > 0 &&
                std::has_single_bit(params.line_bytes),
                "cache line size must be a power of two");
    dmpb_assert(params.associativity > 0,
                params.name, ": associativity must be positive");
    dmpb_assert(tenants >= 1,
                params.name, ": cache needs at least one tenant");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(params.associativity) *
        params.line_bytes;
    // Inexact geometries are configuration bugs: numSets() would
    // round down and silently model a smaller cache than requested.
    dmpb_assert(params.size_bytes % way_bytes == 0,
                params.name, ": size ", params.size_bytes,
                " is not a multiple of associativity*line_bytes (",
                way_bytes, "); the geometry would silently truncate");
    std::uint64_t sets = params.numSets();
    dmpb_assert(sets > 0, params.name,
                ": cache must have at least one set (size=",
                params.size_bytes, " assoc=", params.associativity, ")");
    const std::size_t ways = sets * params.associativity;
    tags_.assign(ways, kInvalidTag);
    lru_.assign(ways, 0);
    dirty_.assign(ways, 0);
    num_sets_ = sets;
    assoc_ = params.associativity;
    // Way masks are 64-bit; wider caches exist only as single-tenant
    // models whose all-ways representation saturates (the mask is then
    // only ever compared against full_mask_, never shifted past it).
    full_mask_ = assoc_ >= 64 ? ~0ULL : (1ULL << assoc_) - 1;
    tstats_.assign(tenants, CacheStats{});
    way_masks_.assign(tenants, full_mask_);
    // Power-of-two set counts take a mask/shift fast path; others
    // (e.g. the 12288-set Westmere L3) are indexed by modulo, standing
    // in for the hash-based indexing real LLCs use.
    pow2_sets_ = std::has_single_bit(sets);
    set_mask_ = sets - 1;
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets));
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(params.line_bytes));
}

void
CacheModel::flush()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    mru_line_[0] = mru_line_[1] = kNoLine;
}

void
CacheModel::reset()
{
    flush();
    std::fill(tstats_.begin(), tstats_.end(), CacheStats{});
    std::fill(way_masks_.begin(), way_masks_.end(), full_mask_);
    // flush() leaves the LRU clock and the MRU way indices alone (a
    // flushed cache keeps aging); fresh-construction equivalence
    // needs them back at their initial values too.
    tick_ = 0;
    mru_way_[0] = mru_way_[1] = 0;
}

CacheStats
CacheModel::totalStats() const
{
    CacheStats total;
    for (const CacheStats &st : tstats_)
        total.merge(st);
    return total;
}

void
CacheModel::setWayMask(std::uint32_t tenant, std::uint64_t mask)
{
    dmpb_assert(tenant < tstats_.size(),
                params_.name, ": tenant ", tenant, " out of range (",
                tstats_.size(), " tenants)");
    dmpb_assert(assoc_ <= 64,
                params_.name,
                ": way masks require associativity <= 64");
    dmpb_assert(mask != 0,
                params_.name, ": tenant ", tenant,
                " way mask must allow at least one way");
    dmpb_assert((mask & ~full_mask_) == 0,
                params_.name, ": tenant ", tenant, " way mask 0x",
                mask, " exceeds the ", assoc_, "-way associativity");
    way_masks_[tenant] = mask;
}

std::uint64_t
CacheModel::stateHashForTest() const
{
    // Order-sensitive digest over every piece of replacement state.
    // Counters are deliberately excluded: tests combine this with
    // stats()/tenantStats() so the two assertions stay independent.
    std::uint64_t h = kFnvOffset;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kFnvPrime;
        }
    };
    for (std::uint64_t t : tags_)
        mix(t);
    for (std::uint64_t a : lru_)
        mix(a);
    for (std::uint8_t d : dirty_)
        mix(d);
    mix(tick_);
    mix(mru_line_[0]);
    mix(mru_line_[1]);
    mix(mru_way_[0]);
    mix(mru_way_[1]);
    return h;
}

CacheHierarchy::CacheHierarchy(const Params &params,
                               std::uint32_t l3_sharers)
    : l1i_(params.l1i),
      l1d_(params.l1d),
      l2_(params.l2),
      l3_own_(std::make_unique<CacheModel>(sliceL3(params.l3,
                                                   l3_sharers))),
      l3_(l3_own_.get())
{
}

CacheHierarchy::CacheHierarchy(const Params &params, SharedL3 &shared_l3,
                               std::uint32_t tenant)
    : l1i_(params.l1i),
      l1d_(params.l1d),
      l2_(params.l2),
      l3_(&shared_l3.model()),
      l3_tenant_(tenant)
{
    dmpb_assert(tenant < shared_l3.tenants(),
                "shared-L3 tenant ", tenant, " out of range (",
                shared_l3.tenants(), " tenants)");
}

void
CacheHierarchy::logLlc(std::uint64_t addr, bool write)
{
    llc_log_->push_back((addr & ~1ULL) | (write ? 1 : 0));
}

void
CacheHierarchy::replay(const AccessBatch &batch,
                       BranchPredictor &predictor, ReplayMode mode)
{
    replayBatch(batch, *this, predictor, mode);
}

void
CacheHierarchy::flush()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    l3_->flush();
}

void
CacheHierarchy::reset()
{
    dmpb_assert(l3_own_ != nullptr,
                "reset() is for private-slice hierarchies; one tenant "
                "of a shared L3 cannot be meaningfully reset");
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    l3_own_->reset();
}

std::uint64_t
CacheHierarchy::stateHashForTest() const
{
    std::uint64_t h = kFnvOffset;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kFnvPrime;
        }
    };
    mix(l1i_.stateHashForTest());
    mix(l1d_.stateHashForTest());
    mix(l2_.stateHashForTest());
    mix(l3_->stateHashForTest());
    return h;
}

} // namespace dmpb
