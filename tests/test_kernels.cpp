/**
 * @file
 * Randomized differential tests for the vectorized bulk set kernels:
 * every SIMD/bulk kernel is pitted against a naive
 * std::set_intersection-style reference across sizes, densities,
 * skewed size ratios, and the empty/disjoint/identical edge cases --
 * plus exact checks of the documented O(1) OpWork formulas the
 * operations layer derives from the kernel results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sets/kernels.hpp"
#include "sets/operations.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace {

using namespace sisa::sets;
using sisa::support::ceilLog2;
using sisa::support::Xoshiro256;

std::vector<Element>
randomSorted(Xoshiro256 &rng, Element universe, std::size_t size)
{
    std::vector<Element> v;
    v.reserve(size * 2);
    while (v.size() < size && v.size() < universe)
        v.push_back(static_cast<Element>(rng.nextBounded(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

std::vector<Element>
stdIntersect(const std::vector<Element> &a, const std::vector<Element> &b)
{
    std::vector<Element> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

std::vector<Element>
stdUnion(const std::vector<Element> &a, const std::vector<Element> &b)
{
    std::vector<Element> out;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
}

std::vector<Element>
stdDifference(const std::vector<Element> &a, const std::vector<Element> &b)
{
    std::vector<Element> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
    return out;
}

/** Run every sorted-array kernel on (a, b) and compare bit-for-bit. */
void
checkAllKernels(const std::vector<Element> &a,
                const std::vector<Element> &b)
{
    const auto ref_inter = stdIntersect(a, b);
    const auto ref_union = stdUnion(a, b);
    const auto ref_diff = stdDifference(a, b);

    const std::size_t slack = kernels::block_elems;
    std::vector<Element> out(a.size() + b.size() + slack);

    // Vectorized merge kernels.
    std::size_t n = kernels::intersect(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_inter);
    EXPECT_EQ(kernels::intersectCard(a, b), ref_inter.size());

    n = kernels::setUnion(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_union);

    n = kernels::difference(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_diff);

    // Galloping kernels (streamed operand is the smaller one).
    const auto &small = a.size() <= b.size() ? a : b;
    const auto &large = a.size() <= b.size() ? b : a;
    std::uint64_t probes = 0;
    n = kernels::intersectGallop(small, large, out.data(), probes);
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_inter);
    probes = 0;
    EXPECT_EQ(kernels::intersectCardGallop(small, large, probes),
              ref_inter.size());

    probes = 0;
    n = kernels::unionGallop(small, large, out.data(), probes);
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_union);

    probes = 0;
    n = kernels::differenceGallop(a, b, out.data(), probes);
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_diff);

    // The scalar reference kernels must agree too.
    n = kernels::ref::intersect(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_inter);
    EXPECT_EQ(kernels::ref::intersectCard(a, b), ref_inter.size());
    n = kernels::ref::setUnion(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_union);
    n = kernels::ref::difference(a, b, out.data());
    EXPECT_EQ(std::vector<Element>(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)),
              ref_diff);
}

TEST(Kernels, TierIsReported)
{
    EXPECT_STRNE(kernels::tierName(), "?");
    EXPECT_GE(kernels::block_elems, 1u);
}

TEST(Kernels, RandomizedDifferentialSweep)
{
    // Sizes straddle the SIMD block width (1..2 blocks, unaligned
    // tails) up to a few thousand elements; universes sweep dense to
    // sparse occupancy; size ratios sweep balanced to 256x skew.
    const std::size_t sizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17,
                                 31, 64, 100, 333, 1024, 4000};
    const Element universes[] = {64, 512, 4096, 1u << 16, 1u << 24};
    Xoshiro256 rng(12345);
    for (const Element universe : universes) {
        for (const std::size_t size_a : sizes) {
            for (const std::size_t size_b :
                 {size_a, size_a / 4, size_a * 16 + 3,
                  static_cast<std::size_t>(5)}) {
                const auto a = randomSorted(rng, universe, size_a);
                const auto b = randomSorted(rng, universe, size_b);
                SCOPED_TRACE(testing::Message()
                             << "universe=" << universe << " |a|="
                             << a.size() << " |b|=" << b.size());
                checkAllKernels(a, b);
            }
        }
    }
}

TEST(Kernels, EdgeCases)
{
    const std::vector<Element> empty;
    const std::vector<Element> small{1, 5, 9};
    std::vector<Element> dense(100);
    for (Element i = 0; i < 100; ++i)
        dense[i] = i;
    std::vector<Element> odd, even;
    for (Element i = 0; i < 200; ++i)
        (i % 2 ? odd : even).push_back(i);

    checkAllKernels(empty, empty);
    checkAllKernels(empty, dense);
    checkAllKernels(dense, empty);
    checkAllKernels(dense, dense); // Identical.
    checkAllKernels(odd, even);    // Fully disjoint, interleaved.
    checkAllKernels(small, dense); // Subset.
    // Disjoint value ranges (all of A below all of B).
    std::vector<Element> lo(64), hi(64);
    for (Element i = 0; i < 64; ++i) {
        lo[i] = i;
        hi[i] = 1000 + i;
    }
    checkAllKernels(lo, hi);
    checkAllKernels(hi, lo);
    // Extreme element values.
    checkAllKernels({0, 0xFFFFFFFEu, 0xFFFFFFFFu}, {0xFFFFFFFFu});
}

// --- Branchless search ---------------------------------------------------

TEST(Kernels, LowerBoundMatchesStdAndChargesClosedForm)
{
    Xoshiro256 rng(7);
    for (const std::size_t size : {0u, 1u, 2u, 3u, 8u, 100u, 1000u}) {
        const auto v = randomSorted(rng, 1u << 16, size);
        for (int trial = 0; trial < 200; ++trial) {
            const Element target =
                static_cast<Element>(rng.nextBounded(1u << 17));
            for (const std::uint64_t lo :
                 {std::uint64_t{0}, std::uint64_t{v.size() / 2},
                  std::uint64_t{v.size()}}) {
                const auto r = kernels::lowerBound(v, lo, target);
                const auto expect = static_cast<std::uint64_t>(
                    std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(lo),
                                     v.end(), target) -
                    v.begin());
                EXPECT_EQ(r.pos, expect);
                const std::uint64_t len = v.size() - lo;
                EXPECT_EQ(r.probes, len == 0 ? 0 : ceilLog2(len) + 1);
            }
        }
    }
}

TEST(Kernels, CountNotGreaterMatchesUpperBound)
{
    Xoshiro256 rng(11);
    const auto v = randomSorted(rng, 4096, 300);
    for (const Element probe :
         {Element{0}, Element{1}, Element{2048}, Element{4095},
          Element{0xFFFFFFFFu}}) {
        const auto expect = static_cast<std::uint64_t>(
            std::upper_bound(v.begin(), v.end(), probe) - v.begin());
        EXPECT_EQ(kernels::countNotGreater(v, probe), expect);
    }
    EXPECT_EQ(kernels::countNotGreater(std::vector<Element>{}, 5), 0u);
}

// --- Word-wise kernels ---------------------------------------------------

TEST(Kernels, WordKernelsMatchScalarAndAllowAliasing)
{
    Xoshiro256 rng(99);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 16u, 129u}) {
        std::vector<std::uint64_t> a(n), b(n);
        for (auto &w : a)
            w = rng();
        for (auto &w : b)
            w = rng();

        std::vector<std::uint64_t> expect(n);
        std::uint64_t expect_and = 0, expect_or = 0, expect_andnot = 0;
        for (std::size_t i = 0; i < n; ++i) {
            expect_and +=
                static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
            expect_or +=
                static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
            expect_andnot +=
                static_cast<std::uint64_t>(std::popcount(a[i] & ~b[i]));
        }

        std::vector<std::uint64_t> out(n);
        EXPECT_EQ(kernels::andWords(a.data(), b.data(), out.data(), n),
                  expect_and);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], a[i] & b[i]);
        EXPECT_EQ(kernels::orWords(a.data(), b.data(), out.data(), n),
                  expect_or);
        EXPECT_EQ(
            kernels::andNotWords(a.data(), b.data(), out.data(), n),
            expect_andnot);
        EXPECT_EQ(kernels::andCardWords(a.data(), b.data(), n),
                  expect_and);

        // In-place update (the DenseBitset::andWith path).
        std::vector<std::uint64_t> aliased = a;
        EXPECT_EQ(kernels::andWords(aliased.data(), b.data(),
                                    aliased.data(), n),
                  expect_and);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(aliased[i], a[i] & b[i]);
    }
}

// --- OpWork formula conformance (operations layer) -----------------------

struct OpCase
{
    SortedArraySet a;
    SortedArraySet b;
};

OpCase
makeOpCase(std::uint64_t seed, Element universe, std::size_t size_a,
           std::size_t size_b)
{
    Xoshiro256 rng(seed);
    return {SortedArraySet(randomSorted(rng, universe, size_a)),
            SortedArraySet(randomSorted(rng, universe, size_b))};
}

/** M1: elements fetched from both sides before one merge side ends. */
std::uint64_t
mergeStreamFormula(const SortedArraySet &a, const SortedArraySet &b)
{
    if (a.empty() || b.empty())
        return 0;
    const Element stop =
        std::min(a[a.size() - 1], b[b.size() - 1]);
    const auto count = [stop](const SortedArraySet &s) {
        return static_cast<std::uint64_t>(
            std::upper_bound(s.begin(), s.end(), stop) - s.begin());
    };
    return count(a) + count(b);
}

TEST(OpWorkFormulas, IntersectMerge)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const auto c = makeOpCase(seed, 2048, 200, 150);
        OpWork w;
        const auto out = intersectMerge(c.a, c.b, w);
        EXPECT_EQ(w.streamedElements, mergeStreamFormula(c.a, c.b));
        EXPECT_EQ(w.outputElements, out.size());
        EXPECT_EQ(w.probes, 0u);
        EXPECT_EQ(w.bitvectorWords, 0u);

        // The cardinality twin charges identically (normalized).
        OpWork wc;
        EXPECT_EQ(intersectCardMerge(c.a, c.b, wc), out.size());
        EXPECT_EQ(wc.streamedElements, w.streamedElements);
        EXPECT_EQ(wc.outputElements, w.outputElements);
    }
}

TEST(OpWorkFormulas, IntersectGallop)
{
    const auto c = makeOpCase(4, 1u << 14, 30, 2000);
    OpWork w;
    const auto out = intersectGallop(c.a, c.b, w);
    EXPECT_EQ(w.streamedElements, std::min(c.a.size(), c.b.size()));
    EXPECT_EQ(w.outputElements, out.size());
    // Replay the closed-form search charges.
    std::uint64_t expect_probes = 0, lo = 0;
    const auto &small = c.a.size() <= c.b.size() ? c.a : c.b;
    const auto &large = c.a.size() <= c.b.size() ? c.b : c.a;
    for (const Element e : small) {
        const auto r = kernels::lowerBound(large.elements(), lo, e);
        expect_probes += r.probes;
        lo = r.pos + (r.pos < large.size() && large[r.pos] == e ? 1 : 0);
    }
    EXPECT_EQ(w.probes, expect_probes);

    OpWork wc;
    EXPECT_EQ(intersectCardGallop(c.a, c.b, wc), out.size());
    EXPECT_EQ(wc.probes, w.probes);
    EXPECT_EQ(wc.outputElements, w.outputElements);
}

TEST(OpWorkFormulas, UnionVariantsChargeFullMerge)
{
    const auto c = makeOpCase(5, 2048, 300, 80);
    OpWork wm, wg;
    const auto out = unionMerge(c.a, c.b, wm);
    EXPECT_EQ(wm.streamedElements, c.a.size() + c.b.size());
    EXPECT_EQ(wm.outputElements, out.size());

    unionGallop(c.a, c.b, wg);
    EXPECT_EQ(wg.streamedElements, c.a.size() + c.b.size());
    EXPECT_EQ(wg.outputElements, out.size());
    EXPECT_GT(wg.probes, 0u);
}

TEST(OpWorkFormulas, Difference)
{
    const auto c = makeOpCase(6, 2048, 250, 400);
    OpWork wm, wg;
    const auto out = differenceMerge(c.a, c.b, wm);
    const Element max_a = c.a[c.a.size() - 1];
    const std::uint64_t b_consumed = static_cast<std::uint64_t>(
        std::upper_bound(c.b.begin(), c.b.end(), max_a) - c.b.begin());
    EXPECT_EQ(wm.streamedElements, c.a.size() + b_consumed);
    EXPECT_EQ(wm.outputElements, out.size());

    differenceGallop(c.a, c.b, wg);
    EXPECT_EQ(wg.streamedElements, c.a.size());
    EXPECT_EQ(wg.probes,
              c.a.size() * (ceilLog2(c.b.size()) + 1));
    EXPECT_EQ(wg.outputElements, out.size());
}

TEST(OpWorkFormulas, CardVariantsChargeLogicalOutput)
{
    const auto c = makeOpCase(7, 512, 100, 100);
    const DenseBitset da = DenseBitset::fromSorted(c.a.elements(), 512);
    const DenseBitset db = DenseBitset::fromSorted(c.b.elements(), 512);

    OpWork w1, w2;
    const std::uint64_t k = intersectCardDbDb(da, db, w1);
    EXPECT_EQ(w1.outputElements, k);
    EXPECT_EQ(w1.bitvectorWords, da.numWords());

    const std::uint64_t k2 = intersectCardSaDb(c.a, db, w2);
    EXPECT_EQ(w2.outputElements, k2);
    EXPECT_EQ(w2.streamedElements, c.a.size());
    EXPECT_EQ(w2.probes, c.a.size());
}

} // namespace
