#include "core/auto_tuner.hh"

#include <algorithm>
#include <cmath>
#include <thread>

#include "base/logging.hh"
#include "base/rng.hh"

namespace dmpb {

double
metricDeviation(Metric m, double real, double proxy)
{
    double floor;
    switch (m) {
      case Metric::RatioInt:
      case Metric::RatioFp:
      case Metric::RatioLoad:
      case Metric::RatioStore:
      case Metric::RatioBranch:
      case Metric::L1iHit:
      case Metric::L1dHit:
      case Metric::L2Hit:
      case Metric::L3Hit:
        floor = 0.02;           // two ratio points
        break;
      case Metric::BranchMiss:
        floor = 0.01;
        break;
      case Metric::Ipc:
        floor = 0.05;
        break;
      case Metric::Mips:
        floor = 50.0;
        break;
      case Metric::MemReadBw:
      case Metric::MemWriteBw:
      case Metric::MemTotalBw:
        floor = 20.0e6;
        break;
      case Metric::DiskBw:
        floor = 1.0e6;
        break;
      default:
        floor = 1e-9;
        break;
    }
    return std::fabs(proxy - real) / std::max(std::fabs(real), floor);
}

std::size_t
effectiveTunerJobs(const TunerConfig &config)
{
    if (config.jobs > 0)
        return config.jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

AutoTuner::AutoTuner(MetricVector target, TunerConfig config)
    : target_(target), config_(config)
{
}

double
AutoTuner::score(const MetricVector &proxy_metrics) const
{
    double worst = 0.0;
    double sum = 0.0;
    for (Metric m : accuracyMetricSet()) {
        double d = metricDeviation(m, target_[m], proxy_metrics[m]);
        worst = std::max(worst, d);
        sum += d;
    }
    // Mostly the max (the qualification gate), with a small average
    // component so ties prefer globally closer vectors.
    return worst +
           0.6 * sum /
               static_cast<double>(accuracyMetricSet().size());
}

std::vector<double>
AutoTuner::normalize(const std::vector<TunableParam> &params) const
{
    std::vector<double> x;
    x.reserve(params.size());
    for (const TunableParam &p : params) {
        double span = p.hi - p.lo;
        x.push_back(span > 0 ? (p.value - p.lo) / span : 0.0);
    }
    return x;
}

void
AutoTuner::refit()
{
    for (Metric m : accuracyMetricSet()) {
        DecisionTree tree;
        tree.fit(samples_x_, samples_y_[m]);
        trees_[m] = std::move(tree);
    }
}

bool
AutoTuner::evaluateBatch(const ProxyBenchmark &proxy,
                         const MachineConfig &machine,
                         std::vector<PendingEval> &batch,
                         TunerReport &report, bool interruptible)
{
    // Each entry is a shallow clone -- private parameter vector,
    // shared trace memo -- and the whole batch executes as one
    // edge-granular job set: every edge the memo lacks simulates once
    // on config_.jobs workers, however many entries share it.
    std::vector<ProxyBenchmark> clones;
    std::vector<const ProxyBenchmark *> views;
    clones.reserve(batch.size());
    views.reserve(batch.size());
    for (PendingEval &e : batch) {
        ProxyBenchmark &clone = clones.emplace_back(proxy.cloneShallow());
        if (e.param != kNoMove)
            clone.setParameter(param_space_[e.param].name, e.value);
        e.x = normalize(clone.parameters());
        views.push_back(&clone);
    }
    std::vector<std::optional<ProxyResult>> results =
        ProxyBenchmark::executeBatch(
            views, machine, config_.trace_cap, effectiveTunerJobs(config_),
            interruptible ? config_.should_stop : nullptr);

    // Merge in batch order so samples_x_/samples_y_ -- and therefore
    // every subsequent refit -- are identical for any job count.
    bool complete = true;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        PendingEval &e = batch[i];
        std::optional<ProxyResult> &result = results[i];
        if (!result) {
            complete = false;
            continue;
        }
        e.result = std::move(*result);
        e.executed = true;
        ++report.evaluations;
        samples_x_.push_back(e.x);
        for (Metric m : accuracyMetricSet())
            samples_y_[m].push_back(e.result.metrics[m]);
    }
    return complete;
}

TunerReport
AutoTuner::tune(ProxyBenchmark &proxy, const MachineConfig &machine)
{
    TunerReport report;
    param_space_ = proxy.parameters();
    param_names_.clear();
    for (const TunableParam &p : param_space_)
        param_names_.push_back(p.name);

    auto stopping = [&]() {
        return config_.should_stop && config_.should_stop();
    };

    // Baseline evaluation (never skipped: the report needs a result
    // even when the deadline already expired).
    std::vector<PendingEval> baseline(1);
    evaluateBatch(proxy, machine, baseline, report,
                  /*interruptible=*/false);
    ProxyResult current = baseline[0].result;
    double best_score = score(current.metrics);

    // A proxy already within the gate qualifies with zero adjust
    // iterations and skips the impact sweep entirely.
    if (best_score > config_.threshold) {
        // ---- Impact analysis: one-at-a-time parameter sweeps
        // covering the range ends (the tuner must know what *low*
        // weights do). The full sample list is enumerated up front in
        // a fixed order and evaluated concurrently.
        std::vector<PendingEval> impact;
        for (std::size_t pi = 0; pi < param_space_.size(); ++pi) {
            const TunableParam &p = param_space_[pi];
            for (std::uint32_t s = 0; s < config_.impact_samples;
                 ++s) {
                double frac =
                    config_.impact_samples == 1
                        ? 0.5
                        : 0.02 +
                              0.96 * s /
                                  static_cast<double>(
                                      config_.impact_samples - 1);
                double v = p.lo + frac * (p.hi - p.lo);
                if (p.integer)
                    v = std::round(v);
                if (std::fabs(v - p.value) < 1e-12)
                    continue;
                PendingEval e;
                e.param = pi;
                e.value = v;
                impact.push_back(std::move(e));
            }
        }
        bool complete =
            evaluateBatch(proxy, machine, impact, report);
        refit();

        // ---- Adjust + feedback loop: speculative batched descent.
        // Moves that were tried and made things worse (cleared
        // whenever a move is accepted: the landscape has shifted).
        std::vector<std::pair<std::size_t, double>> tabu;
        auto is_tabu = [&](std::size_t pi, double v) {
            for (const auto &[tp, tv] : tabu) {
                if (tp == pi && std::fabs(tv - v) < 1e-9)
                    return true;
            }
            return false;
        };
        const std::size_t width =
            std::max<std::uint32_t>(1, config_.speculation);
        for (std::uint32_t iter = 0;
             complete && iter < config_.max_iterations; ++iter) {
            if (stopping()) {
                report.interrupted = true;
                break;
            }
            if (best_score <= config_.threshold)
                break;
            report.iterations = iter + 1;

            // Adjusting stage: enumerate candidate one-parameter
            // moves in a fixed order and let the trees predict the
            // resulting metric vector.
            struct Candidate
            {
                std::size_t param;
                double value;
                double pred;
            };
            auto params = proxy.parameters();
            std::vector<Candidate> candidates;
            for (std::size_t pi = 0; pi < params.size(); ++pi) {
                const TunableParam &p = params[pi];
                double span = p.hi - p.lo;
                for (double delta :
                     {-0.6, -0.3, -0.12, 0.12, 0.3, 0.6}) {
                    double v = std::clamp(p.value + delta * span,
                                          p.lo, p.hi);
                    if (p.integer)
                        v = std::round(v);
                    if (std::fabs(v - p.value) < 1e-12 ||
                        is_tabu(pi, v)) {
                        continue;
                    }
                    auto x = normalize(params);
                    x[pi] = span > 0 ? (v - p.lo) / span : 0.0;
                    MetricVector predicted = current.metrics;
                    for (Metric m : accuracyMetricSet())
                        predicted[m] = trees_.at(m).predict(x);
                    candidates.push_back({pi, v, score(predicted)});
                }
            }
            if (candidates.empty())
                break;  // every move exhausted

            // Rank by predicted score; stable sort keeps the fixed
            // enumeration order for ties, so the executed top-K set
            // is deterministic.
            std::stable_sort(candidates.begin(), candidates.end(),
                             [](const Candidate &a,
                                const Candidate &b) {
                                 return a.pred < b.pred;
                             });

            // Feedback stage: execute the top-K candidates
            // concurrently and feed *all* samples back to the trees.
            const std::size_t k =
                std::min(width, candidates.size());
            std::vector<PendingEval> batch(k);
            for (std::size_t j = 0; j < k; ++j) {
                batch[j].param = candidates[j].param;
                batch[j].value = candidates[j].value;
            }
            complete = evaluateBatch(proxy, machine, batch, report);
            refit();

            // Accept the best measured candidate; ties break by rank
            // (strict < keeps the first minimum).
            std::size_t accepted = k;
            double accepted_score = 1e300;
            for (std::size_t j = 0; j < k; ++j) {
                if (!batch[j].executed)
                    continue;
                double s = score(batch[j].result.metrics);
                if (s < accepted_score) {
                    accepted_score = s;
                    accepted = j;
                }
            }
            if (accepted < k && accepted_score <= best_score) {
                proxy.setParameter(
                    param_space_[batch[accepted].param].name,
                    batch[accepted].value);
                best_score = accepted_score;
                current = batch[accepted].result;
                tabu.clear();
            } else {
                for (std::size_t j = 0; j < k; ++j) {
                    if (batch[j].executed)
                        tabu.emplace_back(batch[j].param,
                                          batch[j].value);
                }
            }
        }
        if (!complete)
            report.interrupted = true;  // a batch was cut short
    }

    report.qualified = best_score <= config_.threshold;
    report.max_deviation = 0.0;
    for (Metric m : accuracyMetricSet()) {
        report.max_deviation = std::max(
            report.max_deviation,
            metricDeviation(m, target_[m], current.metrics[m]));
    }
    report.metric_accuracy = accuracyVector(target_, current.metrics);
    report.avg_accuracy = averageAccuracy(target_, current.metrics);
    report.proxy_metrics = current.metrics;
    report.final_result = current;
    return report;
}

std::vector<std::pair<std::string, double>>
AutoTuner::parameterImportance() const
{
    std::vector<double> agg(param_names_.size(), 0.0);
    for (const auto &[metric, tree] : trees_) {
        if (!tree.trained())
            continue;
        auto imp = tree.featureImportance();
        // Normalise per tree so every metric votes equally.
        double total = 0.0;
        for (double v : imp)
            total += v;
        if (total <= 0.0)
            continue;
        for (std::size_t i = 0; i < imp.size() && i < agg.size(); ++i)
            agg[i] += imp[i] / total;
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < param_names_.size(); ++i)
        out.emplace_back(param_names_[i], agg[i]);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

} // namespace dmpb
