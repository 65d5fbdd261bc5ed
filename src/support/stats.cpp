#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace sisa::support {

double
arithmeticMean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

double
geometricMean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double s : samples) {
        sisa_assert(s > 0.0, "geometric mean requires positive samples");
        log_sum += std::log(s);
    }
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

double
speedupOfAverages(const std::vector<double> &baseline,
                  const std::vector<double> &improved)
{
    const double base_mean = arithmeticMean(baseline);
    const double impr_mean = arithmeticMean(improved);
    if (impr_mean == 0.0)
        return 0.0;
    return base_mean / impr_mean;
}

double
averageOfSpeedups(const std::vector<double> &baseline,
                  const std::vector<double> &improved)
{
    sisa_assert(baseline.size() == improved.size(),
                "avg-of-speedups needs paired samples");
    std::vector<double> ratios;
    ratios.reserve(baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        if (improved[i] > 0.0 && baseline[i] > 0.0)
            ratios.push_back(baseline[i] / improved[i]);
    }
    return geometricMean(ratios);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    p = std::min(std::max(p, std::nextafter(0.0, 1.0)), 100.0);
    const auto n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * n)); // 1-based nearest rank.
    const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
p50(const std::vector<double> &samples)
{
    return percentile(samples, 50.0);
}

double
p95(const std::vector<double> &samples)
{
    return percentile(samples, 95.0);
}

double
p99(const std::vector<double> &samples)
{
    return percentile(samples, 99.0);
}

double
deadlineHitRatio(const std::vector<double> &completions,
                 const std::vector<double> &deadlines)
{
    sisa_assert(completions.size() == deadlines.size(),
                "deadlineHitRatio needs paired samples");
    if (completions.empty())
        return 1.0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < completions.size(); ++i) {
        if (completions[i] <= deadlines[i])
            ++hits;
    }
    return static_cast<double>(hits) /
           static_cast<double>(completions.size());
}

double
goodput(const std::vector<double> &completions,
        const std::vector<double> &deadlines, double horizon)
{
    sisa_assert(completions.size() == deadlines.size(),
                "goodput needs paired samples");
    std::size_t count = 0;
    for (std::size_t i = 0; i < completions.size(); ++i) {
        if (completions[i] <= deadlines[i] &&
            (horizon == 0.0 || completions[i] <= horizon))
            ++count;
    }
    return static_cast<double>(count);
}

Histogram::Histogram(std::uint64_t bin_width) : binWidth_(bin_width)
{
    sisa_assert(bin_width >= 1, "histogram bin width must be >= 1");
}

void
Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    bins_[value / binWidth_ * binWidth_] += weight;
    total_ += weight;
}

double
Histogram::frequency(std::uint64_t value) const
{
    if (total_ == 0)
        return 0.0;
    auto it = bins_.find(value / binWidth_ * binWidth_);
    if (it == bins_.end())
        return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(total_);
}

} // namespace sisa::support
