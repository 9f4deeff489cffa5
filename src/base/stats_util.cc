#include "base/stats_util.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace dmpb {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    std::size_t total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta *
           (static_cast<double>(n_) * static_cast<double>(other.n_)) /
           static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_) /
             static_cast<double>(total);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ = total;
}

double
RunningStats::variance() const
{
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v) {
        dmpb_assert(x > 0.0, "geomean requires positive values");
        s += std::log(x);
    }
    return std::exp(s / static_cast<double>(v.size()));
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    dmpb_assert(x.size() == y.size(), "pearson size mismatch");
    if (x.size() < 2)
        return 0.0;
    double mx = mean(x), my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double dx = x[i] - mx, dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace dmpb
