/**
 * @file
 * Small numeric helpers: running moments, means, correlation.
 */

#ifndef DMPB_BASE_STATS_UTIL_HH
#define DMPB_BASE_STATS_UTIL_HH

#include <cstddef>
#include <vector>

namespace dmpb {

/** Welford online mean/variance accumulator. */
class RunningStats
{
  public:
    void add(double x);
    void merge(const RunningStats &other);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &v);

/** Geometric mean of positive values; 0 for empty input. */
double geomean(const std::vector<double> &v);

/** Pearson correlation; 0 when either side is constant. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/** Median (copies and sorts); 0 for empty input. */
double median(std::vector<double> v);

} // namespace dmpb

#endif // DMPB_BASE_STATS_UTIL_HH
