/**
 * @file
 * Statistics helpers used by the benchmark harness. The SISA paper
 * (Section 9.1, "Performance Measures & Summaries") reports both
 * "speedup-of-avgs" (ratio of average runtimes) and "avg-of-speedups"
 * (geometric mean of per-datapoint speedups); both are implemented
 * here, together with percentile and histogram utilities.
 */

#ifndef SISA_SUPPORT_STATS_HPP
#define SISA_SUPPORT_STATS_HPP

#include <cstdint>
#include <map>
#include <vector>

namespace sisa::support {

/** Arithmetic mean of @p samples; 0 when empty. */
double arithmeticMean(const std::vector<double> &samples);

/** Geometric mean of @p samples (all positive); 0 when empty. */
double geometricMean(const std::vector<double> &samples);

/**
 * "speedup-of-avgs" (Section 9.1): mean(baseline) / mean(improved).
 * Returns 0 if either vector is empty or the improved mean is zero.
 */
double speedupOfAverages(const std::vector<double> &baseline,
                         const std::vector<double> &improved);

/**
 * "avg-of-speedups" (Section 9.1): geometric mean of the pointwise
 * ratios baseline[i] / improved[i]. Pairs where improved[i] == 0 are
 * skipped. Requires equally sized vectors.
 */
double averageOfSpeedups(const std::vector<double> &baseline,
                         const std::vector<double> &improved);

/**
 * Nearest-rank percentile (inclusive): the smallest sample such that
 * at least p% of the samples are <= it -- sorted[ceil(p/100 * n) - 1].
 * This is the tail-latency convention (a p99 of 100 samples is the
 * 99th-smallest, i.e. the worst sample excluded), exact on integer
 * cycle counts: no interpolation, the returned value is always an
 * actual sample. @p samples need not be sorted; p is clamped to
 * (0, 100]. Returns 0 when empty.
 */
double percentile(std::vector<double> samples, double p);

/** percentile() at the serving benches' standard points. */
double p50(const std::vector<double> &samples);
double p95(const std::vector<double> &samples);
double p99(const std::vector<double> &samples);

/**
 * Fraction of paired samples with completion[i] <= deadline[i] --
 * the deadline hit ratio of a served query population. Queries that
 * never completed are reported by passing an infinite completion
 * (or simply omitting the pair). Empty input is vacuously 1.
 * Requires equally sized vectors.
 */
double deadlineHitRatio(const std::vector<double> &completions,
                        const std::vector<double> &deadlines);

/**
 * Goodput in queries: how many paired samples completed within BOTH
 * their deadline and the horizon (horizon 0 = unbounded). This is
 * the numerator the overload benches gate on -- work that was
 * finished in time, not merely admitted. Requires equally sized
 * vectors.
 */
double goodput(const std::vector<double> &completions,
               const std::vector<double> &deadlines, double horizon);

/**
 * Fixed-bin histogram over non-negative integer samples, used for the
 * set-size traces behind Figure 9b and the degree distributions of
 * Figure 7a.
 */
class Histogram
{
  public:
    /** @param bin_width Width of each bin (>= 1). */
    explicit Histogram(std::uint64_t bin_width = 1);

    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Bin start -> total weight, ordered by bin. */
    const std::map<std::uint64_t, std::uint64_t> &bins() const
    {
        return bins_;
    }

    std::uint64_t totalWeight() const { return total_; }

    /** Normalized frequency of the bin containing @p value. */
    double frequency(std::uint64_t value) const;

  private:
    std::uint64_t binWidth_;
    std::map<std::uint64_t, std::uint64_t> bins_;
    std::uint64_t total_ = 0;
};

} // namespace sisa::support

#endif // SISA_SUPPORT_STATS_HPP
