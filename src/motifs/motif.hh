/**
 * @file
 * The data-motif abstraction (paper Section II-A).
 *
 * A data motif is a unit of computation performed on initial or
 * intermediate data. Eight classes are identified by the paper:
 * Matrix, Sampling, Transform, Graph, Logic, Set, Sort, Statistics.
 * Each concrete motif here performs *real* computation on generated
 * data with real data types/patterns/distributions, and reports its
 * dynamic behaviour through a TraceContext, exactly as the paper's
 * light-weight POSIX-thread implementations report through PMCs.
 */

#ifndef DMPB_MOTIFS_MOTIF_HH
#define DMPB_MOTIFS_MOTIF_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "datagen/images.hh"
#include "sim/trace.hh"

namespace dmpb {

/** The eight data-motif classes of the paper. */
enum class MotifClass : std::uint8_t
{
    Matrix = 0,
    Sampling,
    Transform,
    Graph,
    Logic,
    Set,
    Sort,
    Statistics,
    NumClasses
};

/** Printable class name. */
const char *motifClassName(MotifClass c);

/**
 * Tunable parameters of a motif instance -- Table I of the paper,
 * plus the convolution-shape extras of Section II-A (filter size,
 * stride, layout).
 *
 * A new field needs a ParamSet bit, a line in keepFields(), a place
 * in the proxy executor's trace-memo key and a row in the read-set
 * test (tests/test_motifs.cc).
 */
struct MotifParams
{
    /** @{ Big-data motif parameters (Table I). */
    std::uint64_t data_size = kMiB;      ///< input bytes
    std::uint64_t chunk_size = 256 * kKiB; ///< per-thread block bytes
    std::uint32_t num_tasks = 4;          ///< threads/processes
    /** @} */

    /** @{ AI motif parameters (Table I). */
    std::uint32_t batch_size = 16;
    std::uint64_t total_size = 0;        ///< total elements (0=derive)
    std::uint32_t height = 32;
    std::uint32_t width = 32;
    std::uint32_t channels = 16;
    /** @} */

    /** @{ Convolution/layout extras (Section II-A). */
    std::uint32_t filters = 16;          ///< output channels
    std::uint32_t kernel = 3;            ///< filter spatial size
    std::uint32_t stride = 1;
    DataLayout layout = DataLayout::NCHW;
    /** @} */

    /** Contribution of this motif in a DAG combination (Table I). */
    double weight = 1.0;

    /** Data-generation seed (proxies keep the original data type and
     *  distribution by sharing generator seeds with the workload). */
    std::uint64_t seed = 42;

    /** Sparsity for vector-consuming motifs (Fig. 7/8 experiments). */
    double sparsity = 0.0;

    bool operator==(const MotifParams &) const = default;
};

/** A set of MotifParams fields, one bit per field (param::k*). */
using ParamSet = std::uint32_t;

namespace param {

/** @{ The bit of each MotifParams field. */
inline constexpr ParamSet kDataSize = 1u << 0;
inline constexpr ParamSet kChunkSize = 1u << 1;
inline constexpr ParamSet kNumTasks = 1u << 2;
inline constexpr ParamSet kBatchSize = 1u << 3;
inline constexpr ParamSet kTotalSize = 1u << 4;
inline constexpr ParamSet kHeight = 1u << 5;
inline constexpr ParamSet kWidth = 1u << 6;
inline constexpr ParamSet kChannels = 1u << 7;
inline constexpr ParamSet kFilters = 1u << 8;
inline constexpr ParamSet kKernel = 1u << 9;
inline constexpr ParamSet kStride = 1u << 10;
inline constexpr ParamSet kLayout = 1u << 11;
inline constexpr ParamSet kWeight = 1u << 12;
inline constexpr ParamSet kSeed = 1u << 13;
inline constexpr ParamSet kSparsity = 1u << 14;
/** @} */

/** Every field. */
inline constexpr ParamSet kAll = (1u << 15) - 1;

/** What every big-data motif reads: its input bytes and data seed. */
inline constexpr ParamSet kBigData = kDataSize | kSeed;

/** What every AI motif reads: its data seed and tensor shape. */
inline constexpr ParamSet kAi = kSeed | kBatchSize | kTotalSize |
                                kHeight | kWidth | kChannels | kFilters |
                                kKernel | kStride | kLayout;

} // namespace param

/**
 * A copy of @p p that keeps only the fields in @p fields: every other
 * field is reset to its MotifParams{} default.
 */
MotifParams keepFields(const MotifParams &p, ParamSet fields);

/** Abstract data motif. */
class Motif
{
  public:
    virtual ~Motif() = default;

    /** Unique implementation name, e.g. "quick_sort". */
    virtual std::string name() const = 0;

    /** Which of the eight classes this implementation belongs to. */
    virtual MotifClass motifClass() const = 0;

    /** AI motif (true) vs big-data motif (false), per Fig. 2. */
    virtual bool isAi() const = 0;

    /**
     * Execute the motif as one task: generate input data from p.seed,
     * perform the real computation on it, and emit every dynamic
     * event into @p ctx. Task parallelism (num_tasks) and DAG weights
     * belong to the proxy, which extrapolates this one traced task.
     *
     * Reads no field of @p p outside reads().
     *
     * @return a checksum of the computed results (prevents dead-code
     *         elimination; determinism is unit-tested).
     */
    virtual std::uint64_t run(TraceContext &ctx,
                              const MotifParams &p) const = 0;

    /**
     * The MotifParams fields run() reads: the read-set contract.
     *
     * run() must not depend on any other field. The proxy executor
     * resets every field outside this set to its default
     * (keepFields()) before it keys and traces an edge, so parameter
     * vectors that differ only in unread fields share one traced run.
     * A field declared but not read costs only memo hits; a field
     * read but not declared would silently run at its default, which
     * the read-set test in tests/test_motifs.cc catches.
     */
    virtual ParamSet reads() const = 0;
};

/** All registered motif implementations (big data + AI, Fig. 2). */
const std::vector<const Motif *> &motifRegistry();

/** Look up one implementation by name; nullptr when absent. */
const Motif *findMotif(const std::string &name);

} // namespace dmpb

#endif // DMPB_MOTIFS_MOTIF_HH
