/**
 * @file
 * Big-data motif implementations (Fig. 2, left half).
 *
 * Every class generates its own input data (type, pattern and
 * distribution are parameterised, per Section II-A) and runs the
 * corresponding instrumented kernel(s). The sort and MD5 motifs
 * process their data in chunk_size blocks -- the paper's "chunk data
 * allocation per thread"; the others take it whole.
 */

#ifndef DMPB_MOTIFS_BD_MOTIFS_HH
#define DMPB_MOTIFS_BD_MOTIFS_HH

#include "motifs/motif.hh"

namespace dmpb {

/** Declare a concrete motif class with the standard interface;
 *  @p read_set is what its run() reads (Motif::reads). */
#define DMPB_DECLARE_MOTIF(ClassName, motif_name, motif_class, is_ai,     \
                           read_set)                                      \
    class ClassName : public Motif                                        \
    {                                                                     \
      public:                                                             \
        std::string name() const override { return motif_name; }         \
        MotifClass motifClass() const override                            \
        {                                                                 \
            return MotifClass::motif_class;                               \
        }                                                                 \
        bool isAi() const override { return is_ai; }                     \
        std::uint64_t run(TraceContext &ctx,                              \
                          const MotifParams &p) const override;           \
        ParamSet reads() const override { return read_set; }             \
    }

/** @{ Sort motif: quick sort and merge sort over gensort records,
 *     one chunk_size block of records at a time. */
DMPB_DECLARE_MOTIF(QuickSortMotif, "quick_sort", Sort, false,
                   param::kBigData | param::kChunkSize);
DMPB_DECLARE_MOTIF(MergeSortMotif, "merge_sort", Sort, false,
                   param::kBigData | param::kChunkSize);
/** @} */

/** @{ Sampling motif: Bernoulli and strided selection. */
DMPB_DECLARE_MOTIF(RandomSamplingMotif, "random_sampling", Sampling,
                   false, param::kBigData);
DMPB_DECLARE_MOTIF(IntervalSamplingMotif, "interval_sampling", Sampling,
                   false, param::kBigData);
/** @} */

/** @{ Graph motif: CSR construction and BFS traversal. */
DMPB_DECLARE_MOTIF(GraphConstructMotif, "graph_construct", Graph, false,
                   param::kBigData);
DMPB_DECLARE_MOTIF(GraphTraverseMotif, "graph_traverse", Graph, false,
                   param::kBigData);
/** @} */

/** @{ Set motif (relational-algebra primitives). */
DMPB_DECLARE_MOTIF(SetUnionMotif, "set_union", Set, false,
                   param::kBigData);
DMPB_DECLARE_MOTIF(SetIntersectionMotif, "set_intersection", Set, false,
                   param::kBigData);
DMPB_DECLARE_MOTIF(SetDifferenceMotif, "set_difference", Set, false,
                   param::kBigData);
/** @} */

/** @{ Statistics motif. */
DMPB_DECLARE_MOTIF(CountAvgStatsMotif, "count_avg_stats", Statistics,
                   false, param::kBigData);
DMPB_DECLARE_MOTIF(ProbabilityStatsMotif, "probability_stats", Statistics,
                   false, param::kBigData);
DMPB_DECLARE_MOTIF(MinMaxMotif, "min_max", Statistics, false,
                   param::kBigData);
/** @} */

/** @{ Logic motif: MD5 hashing (chunk_size bytes per digest) and XTEA
 *     encryption. */
DMPB_DECLARE_MOTIF(Md5Motif, "md5_hash", Logic, false,
                   param::kBigData | param::kChunkSize);
DMPB_DECLARE_MOTIF(EncryptionMotif, "encryption", Logic, false,
                   param::kBigData);
/** @} */

/** @{ Transform motif: FFT/IFFT round trip and 8x8 DCT. */
DMPB_DECLARE_MOTIF(FftMotif, "fft", Transform, false, param::kBigData);
DMPB_DECLARE_MOTIF(DctMotif, "dct", Transform, false, param::kBigData);
/** @} */

/** @{ Matrix motif: dense multiply and distance computations (the
 *     distances over vectors of the given sparsity). */
DMPB_DECLARE_MOTIF(MatMulMotif, "matrix_multiply", Matrix, false,
                   param::kBigData);
DMPB_DECLARE_MOTIF(EuclideanDistanceMotif, "euclidean_distance", Matrix,
                   false, param::kBigData | param::kSparsity);
DMPB_DECLARE_MOTIF(CosineDistanceMotif, "cosine_distance", Matrix, false,
                   param::kBigData | param::kSparsity);
/** @} */

} // namespace dmpb

#endif // DMPB_MOTIFS_BD_MOTIFS_HH
