/** @file Unit tests for the support library. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/bits.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace sisa::support;

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
}

TEST(Bits, AlignUp)
{
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignUp(65, 64), 128u);
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ull << 40), 40u);
}

TEST(Bits, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
}

TEST(Bits, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1023));
}

TEST(Rng, SplitMixDeterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministicAcrossInstances)
{
    Xoshiro256 a(7), b(7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, XoshiroDifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b());
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Xoshiro256 rng(123);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t x = rng.nextBounded(17);
        EXPECT_LT(x, 17u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Xoshiro256 rng(99);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // Roughly uniform.
}

TEST(Rng, DoubleInUnitInterval)
{
    Xoshiro256 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geometricMean({8.0}), 8.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(Stats, SpeedupOfAverages)
{
    // Section 9.1's "speedup-of-avgs": ratio of arithmetic means.
    const std::vector<double> base{10.0, 20.0};
    const std::vector<double> improved{5.0, 5.0};
    EXPECT_DOUBLE_EQ(speedupOfAverages(base, improved), 3.0);
}

TEST(Stats, AverageOfSpeedups)
{
    // Section 9.1's "avg-of-speedups": geomean of pointwise ratios.
    const std::vector<double> base{10.0, 20.0};
    const std::vector<double> improved{5.0, 5.0};
    EXPECT_DOUBLE_EQ(averageOfSpeedups(base, improved),
                     std::sqrt(2.0 * 4.0));
}

TEST(Stats, SummariesDiffer)
{
    // The paper notes the two summaries are *not* the classic
    // arithmetic/geometric means of the same data and need not obey
    // the mean inequality; verify they genuinely differ.
    const std::vector<double> base{100.0, 10.0};
    const std::vector<double> improved{50.0, 1.0};
    EXPECT_NE(speedupOfAverages(base, improved),
              averageOfSpeedups(base, improved));
}

TEST(Stats, PercentileNearestRank)
{
    // Nearest-rank inclusive: sorted[ceil(p/100 * n) - 1]; always an
    // actual sample, no interpolation. Input need not be sorted.
    const std::vector<double> v{30.0, 10.0, 50.0, 20.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 20.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 21.0), 20.0); // ceil rounds up.
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0); // Clamped to (0,100].
}

TEST(Stats, PercentileTailConvention)
{
    // The serving benches' convention: with exactly 100 samples, p99
    // is the 99th-smallest -- the single worst sample is excluded,
    // and p50 is the 50th-smallest.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p50(v), 50.0);
    EXPECT_DOUBLE_EQ(p95(v), 95.0);
    EXPECT_DOUBLE_EQ(p99(v), 99.0);
}

TEST(Stats, PercentileEdgeCases)
{
    EXPECT_DOUBLE_EQ(percentile({}, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
    const std::vector<double> two{3.0, 1.0};
    EXPECT_DOUBLE_EQ(p50(two), 1.0);
    EXPECT_DOUBLE_EQ(p99(two), 3.0);
}

TEST(Stats, DeadlineHitRatioPins)
{
    // Paired convention: hit iff completion[i] <= deadline[i].
    const std::vector<double> completions{100.0, 250.0, 400.0, 90.0};
    const std::vector<double> deadlines{150.0, 200.0, 400.0, 80.0};
    EXPECT_DOUBLE_EQ(deadlineHitRatio(completions, deadlines), 0.5);
    // Equality counts as a hit (<=, not <).
    EXPECT_DOUBLE_EQ(deadlineHitRatio({5.0}, {5.0}), 1.0);
    // Empty population is vacuously perfect.
    EXPECT_DOUBLE_EQ(deadlineHitRatio({}, {}), 1.0);
}

TEST(Stats, GoodputPins)
{
    // Goodput counts queries finished within BOTH deadline and
    // horizon; horizon 0 disables the horizon bound.
    const std::vector<double> completions{100.0, 250.0, 400.0};
    const std::vector<double> deadlines{150.0, 300.0, 350.0};
    EXPECT_DOUBLE_EQ(goodput(completions, deadlines, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(goodput(completions, deadlines, 200.0), 1.0);
    EXPECT_DOUBLE_EQ(goodput(completions, deadlines, 250.0), 2.0);
    EXPECT_DOUBLE_EQ(goodput({}, {}, 0.0), 0.0);
}

TEST(Stats, HistogramBinning)
{
    Histogram h(5);
    h.add(0);
    h.add(4);
    h.add(5);
    h.add(12, 3);
    EXPECT_EQ(h.totalWeight(), 6u);
    EXPECT_EQ(h.bins().at(0), 2u);
    EXPECT_EQ(h.bins().at(5), 1u);
    EXPECT_EQ(h.bins().at(10), 3u);
    EXPECT_DOUBLE_EQ(h.frequency(13), 0.5);
    EXPECT_DOUBLE_EQ(h.frequency(100), 0.0);
}

TEST(Table, AlignsAndCounts)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
}

TEST(Table, FormatDouble)
{
    EXPECT_EQ(TextTable::formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::formatDouble(2.0, 0), "2");
}

class StatsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(StatsSweep, GeomeanBetweenMinAndMax)
{
    // Property: min <= geomean <= max for positive samples.
    Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<double> samples;
    for (int i = 0; i < 50; ++i)
        samples.push_back(rng.nextDouble() + 0.01);
    const double g = geometricMean(samples);
    const double lo = *std::min_element(samples.begin(), samples.end());
    const double hi = *std::max_element(samples.begin(), samples.end());
    EXPECT_GE(g, lo - 1e-12);
    EXPECT_LE(g, hi + 1e-12);
    // And the arithmetic mean dominates the geometric mean.
    EXPECT_GE(arithmeticMean(samples), g - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSweep, ::testing::Range(1, 11));

} // namespace
