/**
 * @file
 * The auto-tuning tool of Section II-B: impact analysis, decision-
 * tree-guided parameter adjustment, and the feedback stage with the
 * deviation gate -- batched and parallel.
 *
 * Flow (Fig. 3 of the paper):
 *   1. Impact analysis -- change one parameter at a time, execute the
 *      proxy, and record (P, M) samples. All samples are enumerated up
 *      front and evaluated as one batch.
 *   2. Fit one regression tree per metric on the samples.
 *   3. Adjusting stage -- when a metric deviates, rank the candidate
 *      single-parameter moves by the trees' predicted deviation.
 *   4. Feedback stage -- *speculative batched descent*: execute the
 *      top-K ranked candidates as one batch, accept the best measured
 *      one, and feed every sample back into the trees, so each
 *      wall-clock iteration learns K times faster than the classic
 *      one-move-per-iteration loop. If every metric deviation is
 *      within the threshold (15% by default), the proxy is qualified.
 *
 * Every evaluation -- the baseline, the impact sweep, each feedback
 * batch -- goes through ProxyBenchmark::executeBatch() on cheap proxy
 * clones sharing one trace memo: the batch is one edge-granular job
 * set on TunerConfig::jobs workers, so an edge several candidates
 * share is simulated once and a batch lasts as long as its slowest
 * edge rather than its slowest candidate.
 *
 * Determinism: candidates have a fixed enumeration order, samples
 * merge into the training set in that order, and acceptance ties
 * break by candidate rank -- so the TunerReport (accepted parameter
 * vector, qualification, evaluation count) is bit-identical for every
 * TunerConfig::jobs value. K is a fixed config knob, deliberately
 * independent of the job count, for the same reason.
 */

#ifndef DMPB_CORE_AUTO_TUNER_HH
#define DMPB_CORE_AUTO_TUNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/decision_tree.hh"
#include "core/proxy_benchmark.hh"
#include "sim/metrics.hh"

namespace dmpb {

/** Tuner configuration. */
struct TunerConfig
{
    /** Maximum allowed per-metric deviation (Section II-B4: 15%). */
    double threshold = 0.15;
    /** Adjust/feedback iterations before giving up. Each iteration
     *  executes up to `speculation` candidates, so the total feedback
     *  evaluation budget is roughly max_iterations * speculation. */
    std::uint32_t max_iterations = 12;
    /** One-at-a-time samples per parameter in the impact analysis. */
    std::uint32_t impact_samples = 2;
    /** Refit the trees after this many feedback samples. */
    std::uint32_t refit_every = 4;
    /** Per-edge traced-byte cap for proxy evaluations. */
    std::uint64_t trace_cap = 2 * 1024 * 1024;
    std::uint64_t seed = 99;
    /** Worker threads for proxy evaluations: every batch (baseline,
     *  impact sweep, feedback candidates) runs its distinct edge
     *  simulations on this many workers.
     *  0 = one per hardware thread (capped at 8); 1 = serial.
     *  The TunerReport is bit-identical for every value. */
    std::size_t jobs = 0;
    /** Speculative-descent width K: the top-K tree-ranked candidate
     *  moves executed per feedback iteration. Fixed independently of
     *  `jobs` so the tuning trajectory never depends on the host's
     *  parallelism. */
    std::uint32_t speculation = 4;
    /** Cooperative stop: polled before each edge simulation of the
     *  impact sweep and the feedback batches, and before each
     *  feedback iteration; when it returns true the tuner finishes
     *  early with whatever it has (reported unqualified unless already
     *  within the gate). The baseline evaluation is never cut. Used by
     *  the suite runner to enforce per-workload deadlines. May be
     *  invoked concurrently from evaluation worker threads, so the
     *  callable must be thread-safe (a steady_clock deadline check
     *  over captured-by-value state qualifies). */
    std::function<bool()> should_stop;
};

/** Resolved evaluation-worker count for @p config (0 = host-sized). */
std::size_t effectiveTunerJobs(const TunerConfig &config);

/** Outcome of a tuning session. */
struct TunerReport
{
    bool qualified = false;
    /** Adjust/feedback iterations actually executed: 0 when the
     *  initial proxy is already within the deviation gate. */
    std::uint32_t iterations = 0;
    std::uint32_t evaluations = 0;
    /** True when tuneWithCache() restored a memoised parameter vector
     *  instead of searching. */
    bool from_cache = false;
    /** True when should_stop cut the search short of its configured
     *  budget. An interrupted, unqualified result is not worth
     *  caching: a re-run with more time may do better, whereas a
     *  full-budget search is deterministic and would only repeat
     *  itself. */
    bool interrupted = false;
    double avg_accuracy = 0.0;          ///< Eq. 3 mean over Table V
    double max_deviation = 0.0;
    std::vector<double> metric_accuracy;  ///< accuracyMetricSet order
    MetricVector proxy_metrics;
    ProxyResult final_result;
};

/**
 * Robust per-metric deviation |proxy - real| / real with an absolute
 * floor per metric so near-zero references (e.g. the FP ratio of
 * TeraSort) do not blow up the relative error.
 */
double metricDeviation(Metric m, double real, double proxy);

/** Decision-tree-guided auto-tuner. */
class AutoTuner
{
  public:
    AutoTuner(MetricVector target, TunerConfig config = {});

    /** Tune @p proxy in place toward the target metric vector. */
    TunerReport tune(ProxyBenchmark &proxy,
                     const MachineConfig &machine);

    /** Per-metric models (available after tune). Keyed by metric. */
    const std::map<Metric, DecisionTree> &trees() const
    {
        return trees_;
    }

    /**
     * Aggregate feature importance across all metric trees: which
     * parameter drives behaviour the most (for the ablation bench).
     */
    std::vector<std::pair<std::string, double>> parameterImportance()
        const;

  private:
    /** Sentinel parameter index: evaluate the proxy as-is. */
    static constexpr std::size_t kNoMove =
        static_cast<std::size_t>(-1);

    /** One queued proxy evaluation: an optional single-parameter move
     *  applied to a clone, plus its outcome once executed. */
    struct PendingEval
    {
        std::size_t param = kNoMove;  ///< param_space_ index
        double value = 0.0;           ///< new value for that parameter
        /** False when the deadline skipped one of its edges. */
        bool executed = false;
        std::vector<double> x;        ///< normalised parameter vector
        ProxyResult result;
    };

    /**
     * Evaluate every entry of @p batch on cloneShallow() copies of
     * @p proxy through one ProxyBenchmark::executeBatch() call
     * (config_.jobs workers), then merge the executed samples into
     * samples_x_/samples_y_ in batch order -- the merge order, and
     * therefore every subsequent refit, is independent of the job
     * count. When @p interruptible, should_stop is polled before each
     * edge simulation and entries with a skipped edge stay
     * executed = false. Returns false if any entry was skipped.
     */
    bool evaluateBatch(const ProxyBenchmark &proxy,
                       const MachineConfig &machine,
                       std::vector<PendingEval> &batch,
                       TunerReport &report, bool interruptible = true);

    /** Worst-case deviation over the accuracy metric set. */
    double score(const MetricVector &proxy_metrics) const;

    std::vector<double> normalize(
        const std::vector<TunableParam> &params) const;

    void refit();

    MetricVector target_;
    TunerConfig config_;
    std::map<Metric, DecisionTree> trees_;
    std::vector<std::vector<double>> samples_x_;
    std::map<Metric, std::vector<double>> samples_y_;
    std::vector<std::string> param_names_;
    std::vector<TunableParam> param_space_;
};

} // namespace dmpb

#endif // DMPB_CORE_AUTO_TUNER_HH
