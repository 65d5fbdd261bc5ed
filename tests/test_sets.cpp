/** @file Unit and property tests for the set representations. */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "sets/dense_bitset.hpp"
#include "sets/operations.hpp"
#include "sets/representation.hpp"
#include "sets/sorted_array.hpp"
#include "support/rng.hpp"

namespace {

using namespace sisa::sets;
using sisa::support::Xoshiro256;

// --- SortedArraySet ------------------------------------------------------

TEST(SortedArray, BasicMembership)
{
    const SortedArraySet s({1, 3, 5, 7});
    EXPECT_EQ(s.size(), 4u);
    EXPECT_TRUE(s.contains(3));
    EXPECT_FALSE(s.contains(4));
    EXPECT_EQ(s[2], 5u);
}

TEST(SortedArray, FromUnsortedDeduplicates)
{
    const auto s = SortedArraySet::fromUnsorted({5, 1, 5, 3, 1});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0], 1u);
    EXPECT_EQ(s[2], 5u);
}

TEST(SortedArray, AddKeepsOrderAndIgnoresDuplicates)
{
    SortedArraySet s({2, 6});
    s.add(4);
    s.add(4);
    s.add(1);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(SortedArray, RemoveMissingIsNoop)
{
    SortedArraySet s({2, 6});
    s.remove(3);
    EXPECT_EQ(s.size(), 2u);
    s.remove(2);
    EXPECT_EQ(s.size(), 1u);
}

TEST(SortedArray, StorageBits)
{
    const SortedArraySet s({1, 2, 3});
    EXPECT_EQ(s.storageBits(), 3u * word_bits);
}

// --- DenseBitset ----------------------------------------------------------

TEST(DenseBitset, SetClearTest)
{
    DenseBitset b(200);
    EXPECT_TRUE(b.empty());
    b.set(0);
    b.set(63);
    b.set(64);
    b.set(199);
    EXPECT_EQ(b.size(), 4u);
    EXPECT_TRUE(b.test(63));
    EXPECT_FALSE(b.test(100));
    b.clear(63);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_FALSE(b.test(63));
}

TEST(DenseBitset, IdempotentSetClear)
{
    DenseBitset b(64);
    b.set(5);
    b.set(5);
    EXPECT_EQ(b.size(), 1u);
    b.clear(5);
    b.clear(5);
    EXPECT_EQ(b.size(), 0u);
}

TEST(DenseBitset, FullMasksTail)
{
    const DenseBitset b = DenseBitset::full(70);
    EXPECT_EQ(b.size(), 70u);
    EXPECT_TRUE(b.test(69));
    // The bits beyond the universe must stay clear.
    EXPECT_EQ(b.words().back() >> 6, 0u);
}

TEST(DenseBitset, RoundTripSortedArray)
{
    const std::vector<Element> elems{3, 17, 64, 65, 90};
    const DenseBitset b = DenseBitset::fromSorted(elems, 128);
    const SortedArraySet s = b.toSortedArray();
    EXPECT_EQ(std::vector<Element>(s.begin(), s.end()), elems);
}

TEST(DenseBitset, StorageBitsIsUniverse)
{
    EXPECT_EQ(DenseBitset(1000).storageBits(), 1000u);
}

// --- Operation correctness against std::set -------------------------------

struct RandomSets
{
    SortedArraySet a;
    SortedArraySet b;
    std::set<Element> ref_a;
    std::set<Element> ref_b;
    Element universe;
};

RandomSets
makeRandomSets(std::uint64_t seed, Element universe, std::size_t size_a,
               std::size_t size_b)
{
    Xoshiro256 rng(seed);
    RandomSets out;
    out.universe = universe;
    while (out.ref_a.size() < size_a)
        out.ref_a.insert(static_cast<Element>(rng.nextBounded(universe)));
    while (out.ref_b.size() < size_b)
        out.ref_b.insert(static_cast<Element>(rng.nextBounded(universe)));
    out.a = SortedArraySet(
        std::vector<Element>(out.ref_a.begin(), out.ref_a.end()));
    out.b = SortedArraySet(
        std::vector<Element>(out.ref_b.begin(), out.ref_b.end()));
    return out;
}

std::vector<Element>
refIntersect(const std::set<Element> &a, const std::set<Element> &b)
{
    std::vector<Element> out;
    for (Element e : a) {
        if (b.count(e))
            out.push_back(e);
    }
    return out;
}

std::vector<Element>
refUnion(const std::set<Element> &a, const std::set<Element> &b)
{
    std::set<Element> u(a);
    u.insert(b.begin(), b.end());
    return {u.begin(), u.end()};
}

std::vector<Element>
refDifference(const std::set<Element> &a, const std::set<Element> &b)
{
    std::vector<Element> out;
    for (Element e : a) {
        if (!b.count(e))
            out.push_back(e);
    }
    return out;
}

using SweepParam = std::tuple<int, int, int>; // seed, |A|, |B|.

class SetOpSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    RandomSets
    sets() const
    {
        const auto [seed, sa, sb] = GetParam();
        return makeRandomSets(static_cast<std::uint64_t>(seed), 512,
                              static_cast<std::size_t>(sa),
                              static_cast<std::size_t>(sb));
    }
};

TEST_P(SetOpSweep, MergeAndGallopIntersectAgree)
{
    const RandomSets s = sets();
    OpWork w1, w2;
    const auto merge = intersectMerge(s.a, s.b, w1);
    const auto gallop = intersectGallop(s.a, s.b, w2);
    EXPECT_EQ(merge, gallop);
    const auto ref = refIntersect(s.ref_a, s.ref_b);
    EXPECT_EQ(std::vector<Element>(merge.begin(), merge.end()), ref);
}

TEST_P(SetOpSweep, IntersectionCardsMatchMaterialized)
{
    const RandomSets s = sets();
    OpWork w;
    const auto merged = intersectMerge(s.a, s.b, w);
    EXPECT_EQ(intersectCardMerge(s.a, s.b, w), merged.size());
    EXPECT_EQ(intersectCardGallop(s.a, s.b, w), merged.size());
}

TEST_P(SetOpSweep, UnionVariantsAgree)
{
    const RandomSets s = sets();
    OpWork w1, w2;
    const auto merge = unionMerge(s.a, s.b, w1);
    const auto gallop = unionGallop(s.a, s.b, w2);
    EXPECT_EQ(merge, gallop);
    const auto ref = refUnion(s.ref_a, s.ref_b);
    EXPECT_EQ(std::vector<Element>(merge.begin(), merge.end()), ref);
}

TEST_P(SetOpSweep, DifferenceVariantsAgree)
{
    const RandomSets s = sets();
    OpWork w1, w2;
    const auto merge = differenceMerge(s.a, s.b, w1);
    const auto gallop = differenceGallop(s.a, s.b, w2);
    EXPECT_EQ(merge, gallop);
    const auto ref = refDifference(s.ref_a, s.ref_b);
    EXPECT_EQ(std::vector<Element>(merge.begin(), merge.end()), ref);
}

TEST_P(SetOpSweep, MixedRepresentationOpsAgree)
{
    const RandomSets s = sets();
    const DenseBitset db =
        DenseBitset::fromSorted(s.b.elements(), s.universe);
    OpWork w;
    const auto sa_db = intersectSaDb(s.a, db, w);
    EXPECT_EQ(std::vector<Element>(sa_db.begin(), sa_db.end()),
              refIntersect(s.ref_a, s.ref_b));
    EXPECT_EQ(intersectCardSaDb(s.a, db, w), sa_db.size());

    const auto diff = differenceSaDb(s.a, db, w);
    EXPECT_EQ(std::vector<Element>(diff.begin(), diff.end()),
              refDifference(s.ref_a, s.ref_b));

    const DenseBitset uni = unionSaDb(s.a, db, w);
    EXPECT_EQ(uni.size(), refUnion(s.ref_a, s.ref_b).size());
}

TEST_P(SetOpSweep, DenseDenseOpsAgree)
{
    const RandomSets s = sets();
    const DenseBitset da =
        DenseBitset::fromSorted(s.a.elements(), s.universe);
    const DenseBitset db =
        DenseBitset::fromSorted(s.b.elements(), s.universe);
    OpWork w;
    const DenseBitset inter = intersectDbDb(da, db, w);
    EXPECT_EQ(inter.size(), refIntersect(s.ref_a, s.ref_b).size());
    EXPECT_EQ(intersectCardDbDb(da, db, w), inter.size());

    const DenseBitset uni = unionDbDb(da, db, w);
    EXPECT_EQ(uni.size(), refUnion(s.ref_a, s.ref_b).size());

    const DenseBitset diff = differenceDbDb(da, db, w);
    EXPECT_EQ(diff.size(), refDifference(s.ref_a, s.ref_b).size());

    const DenseBitset diff_sa = differenceDbSa(da, s.b, w);
    EXPECT_EQ(diff_sa.size(), diff.size());
}

TEST_P(SetOpSweep, WorkCountersScaleWithAlgorithms)
{
    const RandomSets s = sets();
    OpWork merge_work, gallop_work;
    intersectMerge(s.a, s.b, merge_work);
    intersectGallop(s.a, s.b, gallop_work);
    // Merge streams at most |A| + |B| elements.
    EXPECT_LE(merge_work.streamedElements, s.a.size() + s.b.size());
    EXPECT_EQ(merge_work.probes, 0u);
    // Galloping probes at most min * (log2(max) + 1) positions.
    const std::uint64_t small = std::min(s.a.size(), s.b.size());
    const std::uint64_t big = std::max(s.a.size(), s.b.size());
    std::uint64_t log_bound = 1;
    while ((1ull << log_bound) < big + 1)
        ++log_bound;
    EXPECT_LE(gallop_work.probes, small * (log_bound + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SetOpSweep,
    ::testing::Values(SweepParam{1, 40, 40},    // Similar sizes.
                      SweepParam{2, 4, 300},    // Galloping regime.
                      SweepParam{3, 300, 4},    // Swapped.
                      SweepParam{4, 1, 1},      // Singletons.
                      SweepParam{5, 256, 256},  // Half universe.
                      SweepParam{6, 500, 500},  // Nearly full overlap.
                      SweepParam{7, 17, 170},   // 10x ratio.
                      SweepParam{8, 100, 3}));

TEST(SetOps, EmptyOperands)
{
    const SortedArraySet empty;
    const SortedArraySet s({1, 2, 3});
    OpWork w;
    EXPECT_TRUE(intersectMerge(empty, s, w).empty());
    EXPECT_TRUE(intersectGallop(empty, s, w).empty());
    EXPECT_EQ(unionMerge(empty, s, w), s);
    EXPECT_TRUE(differenceMerge(empty, s, w).empty());
    EXPECT_EQ(differenceMerge(s, empty, w), s);
    EXPECT_EQ(intersectCardMerge(empty, empty, w), 0u);
}

TEST(SetOps, DisjointSets)
{
    const SortedArraySet a({1, 3, 5});
    const SortedArraySet b({2, 4, 6});
    OpWork w;
    EXPECT_TRUE(intersectMerge(a, b, w).empty());
    EXPECT_EQ(unionMerge(a, b, w).size(), 6u);
    EXPECT_EQ(differenceMerge(a, b, w), a);
}

TEST(SetOps, IdenticalSets)
{
    const SortedArraySet a({10, 20, 30});
    OpWork w;
    EXPECT_EQ(intersectMerge(a, a, w), a);
    EXPECT_EQ(unionMerge(a, a, w), a);
    EXPECT_TRUE(differenceMerge(a, a, w).empty());
}

// --- Representation policy -------------------------------------------------

TEST(ReprPolicy, TopFractionSelectsLargest)
{
    const std::vector<std::uint32_t> degrees{1, 100, 2, 90, 3};
    ReprPolicy policy;
    policy.t = 0.4; // Top 40% -> 2 vertices.
    policy.storageBudget = -1.0;
    const auto out = chooseRepresentations(degrees, 128, policy);
    EXPECT_EQ(out.denseCount, 2u);
    EXPECT_EQ(out.repr[1], SetRepr::DenseBitvector);
    EXPECT_EQ(out.repr[3], SetRepr::DenseBitvector);
    EXPECT_EQ(out.repr[0], SetRepr::SparseArray);
}

TEST(ReprPolicy, DegreeThresholdMode)
{
    const std::vector<std::uint32_t> degrees{1, 100, 2, 90, 3};
    ReprPolicy policy;
    policy.mode = BiasMode::DegreeThreshold;
    policy.t = 0.5; // Threshold 64 for universe 128.
    policy.storageBudget = -1.0;
    const auto out = chooseRepresentations(degrees, 128, policy);
    EXPECT_EQ(out.denseCount, 2u);
}

TEST(ReprPolicy, BudgetLimitsDenseCount)
{
    // Tiny degrees: every DB conversion adds (universe - 32d) bits,
    // so a tight budget stops conversions early.
    const std::vector<std::uint32_t> degrees(100, 2);
    ReprPolicy policy;
    policy.t = 1.0; // Ask for everything...
    policy.storageBudget = 0.10; // ...but allow only 10% extra.
    const auto out = chooseRepresentations(degrees, 10000, policy);
    EXPECT_LT(out.denseCount, 100u);
    EXPECT_LE(out.chosenBits,
              static_cast<std::uint64_t>(
                  1.1 * static_cast<double>(out.saOnlyBits)) +
                  10000);
}

TEST(ReprPolicy, DenseSavesStorageForHugeNeighborhoods)
{
    // |N(v)| = n/2 -> DB (n bits) beats SA (16n bits), Section 6.1.
    const std::vector<std::uint32_t> degrees{500};
    ReprPolicy policy;
    policy.t = 1.0;
    const auto out = chooseRepresentations(degrees, 1000, policy);
    EXPECT_EQ(out.denseCount, 1u);
    EXPECT_LT(out.chosenBits, out.saOnlyBits);
}

TEST(ReprPolicy, ZeroBiasKeepsEverythingSparse)
{
    const std::vector<std::uint32_t> degrees{10, 20, 30};
    ReprPolicy policy;
    policy.t = 0.0;
    const auto out = chooseRepresentations(degrees, 100, policy);
    EXPECT_EQ(out.denseCount, 0u);
    EXPECT_EQ(out.chosenBits, out.saOnlyBits);
}

} // namespace

// --- Property/fuzz: random op sequences vs a std::set oracle ---------------

#include <algorithm>
#include <iterator>

namespace fuzz_tests {

using namespace sisa::sets;
using sisa::support::Xoshiro256;

/** One fuzz slot: the functional set in SA or DB form + its oracle. */
struct Slot
{
    bool dense = false;
    SortedArraySet sa;
    DenseBitset db;
    std::set<Element> ref;
};

Slot
makeSlot(std::vector<Element> elems, bool dense, Element universe)
{
    Slot s;
    s.dense = dense;
    s.ref = std::set<Element>(elems.begin(), elems.end());
    SortedArraySet sa(
        std::vector<Element>(s.ref.begin(), s.ref.end()));
    if (dense)
        s.db = DenseBitset::fromSorted(sa.elements(), universe);
    else
        s.sa = std::move(sa);
    return s;
}

std::vector<Element>
elementsOf(const Slot &s)
{
    if (!s.dense)
        return {s.sa.begin(), s.sa.end()};
    std::vector<Element> out;
    s.db.collect(out);
    return out;
}

TEST(SetOpsFuzz, RandomMixedSequencesMatchStdSetOracle)
{
    // Replay random union/intersect/difference/cardinality sequences
    // over a mixed SA/DB pool -- including the empty set and the full
    // universe in both representations -- against a std::set oracle.
    // Every Table 5 variant applicable to the drawn representation
    // pair must agree with the oracle and with its sibling variants.
    constexpr Element universe = 192;
    Xoshiro256 rng(20260729);

    std::vector<Slot> slots;
    slots.push_back(makeSlot({}, false, universe)); // Empty SA.
    slots.push_back(makeSlot({}, true, universe));  // Empty DB.
    std::vector<Element> all;
    for (Element e = 0; e < universe; ++e)
        all.push_back(e);
    slots.push_back(makeSlot(all, true, universe));  // Full DB.
    slots.push_back(makeSlot(all, false, universe)); // Full SA.
    constexpr std::size_t fixed_slots = 4;
    for (int s = 0; s < 10; ++s) {
        std::vector<Element> elems;
        const std::uint64_t size = rng.nextBounded(universe);
        for (std::uint64_t e = 0; e < size; ++e)
            elems.push_back(
                static_cast<Element>(rng.nextBounded(universe)));
        slots.push_back(
            makeSlot(std::move(elems), rng.nextBounded(2) == 0,
                     universe));
    }

    const auto saOf = [](const Slot &s) {
        return s.dense ? s.db.toSortedArray() : s.sa;
    };
    const auto dbOf = [universe](const Slot &s) {
        return s.dense ? s.db
                       : DenseBitset::fromSorted(s.sa.elements(),
                                                 universe);
    };

    for (int iter = 0; iter < 1200; ++iter) {
        const Slot &a = slots[rng.nextBounded(slots.size())];
        const Slot &b = slots[rng.nextBounded(slots.size())];

        std::vector<Element> want_i, want_u, want_d;
        std::set_intersection(a.ref.begin(), a.ref.end(),
                              b.ref.begin(), b.ref.end(),
                              std::back_inserter(want_i));
        std::set_union(a.ref.begin(), a.ref.end(), b.ref.begin(),
                       b.ref.end(), std::back_inserter(want_u));
        std::set_difference(a.ref.begin(), a.ref.end(), b.ref.begin(),
                            b.ref.end(), std::back_inserter(want_d));

        OpWork work;
        switch (rng.nextBounded(4)) {
          case 0: { // Intersection.
            if (!a.dense && !b.dense) {
                const auto merge = intersectMerge(a.sa, b.sa, work);
                const auto gallop = intersectGallop(a.sa, b.sa, work);
                ASSERT_EQ(std::vector<Element>(merge.begin(),
                                               merge.end()),
                          want_i);
                ASSERT_EQ(merge, gallop);
                ASSERT_EQ(intersectCardMerge(a.sa, b.sa, work),
                          want_i.size());
                ASSERT_EQ(intersectCardGallop(a.sa, b.sa, work),
                          want_i.size());
            } else if (a.dense && b.dense) {
                const auto r = intersectDbDb(a.db, b.db, work);
                std::vector<Element> got;
                r.collect(got);
                ASSERT_EQ(got, want_i);
                ASSERT_EQ(intersectCardDbDb(a.db, b.db, work),
                          want_i.size());
            } else {
                const SortedArraySet &array = a.dense ? b.sa : a.sa;
                const DenseBitset &bits = a.dense ? a.db : b.db;
                const auto r = intersectSaDb(array, bits, work);
                ASSERT_EQ(std::vector<Element>(r.begin(), r.end()),
                          want_i);
                ASSERT_EQ(intersectCardSaDb(array, bits, work),
                          want_i.size());
            }
            break;
          }
          case 1: { // Union.
            if (!a.dense && !b.dense) {
                const auto merge = unionMerge(a.sa, b.sa, work);
                const auto gallop = unionGallop(a.sa, b.sa, work);
                ASSERT_EQ(std::vector<Element>(merge.begin(),
                                               merge.end()),
                          want_u);
                ASSERT_EQ(merge, gallop);
            } else if (a.dense && b.dense) {
                const auto r = unionDbDb(a.db, b.db, work);
                std::vector<Element> got;
                r.collect(got);
                ASSERT_EQ(got, want_u);
            } else {
                const SortedArraySet &array = a.dense ? b.sa : a.sa;
                const DenseBitset &bits = a.dense ? a.db : b.db;
                const auto r = unionSaDb(array, bits, work);
                std::vector<Element> got;
                r.collect(got);
                ASSERT_EQ(got, want_u);
            }
            break;
          }
          case 2: { // Difference A \ B (order matters).
            if (!a.dense && !b.dense) {
                const auto merge = differenceMerge(a.sa, b.sa, work);
                const auto gallop = differenceGallop(a.sa, b.sa, work);
                ASSERT_EQ(std::vector<Element>(merge.begin(),
                                               merge.end()),
                          want_d);
                ASSERT_EQ(merge, gallop);
            } else if (a.dense && b.dense) {
                const auto r = differenceDbDb(a.db, b.db, work);
                std::vector<Element> got;
                r.collect(got);
                ASSERT_EQ(got, want_d);
            } else if (!a.dense && b.dense) {
                const auto r = differenceSaDb(a.sa, b.db, work);
                ASSERT_EQ(std::vector<Element>(r.begin(), r.end()),
                          want_d);
            } else {
                const auto r = differenceDbSa(a.db, b.sa, work);
                std::vector<Element> got;
                r.collect(got);
                ASSERT_EQ(got, want_d);
            }
            break;
          }
          default: { // Cardinalities across forced conversions.
            ASSERT_EQ(intersectCardMerge(saOf(a), saOf(b), work),
                      want_i.size());
            ASSERT_EQ(intersectCardDbDb(dbOf(a), dbOf(b), work),
                      want_i.size());
            ASSERT_EQ(intersectCardSaDb(saOf(a), dbOf(b), work),
                      want_i.size());
            break;
          }
        }

        // Feed results back into the pool so sequences compound
        // (never overwriting the fixed empty/full edge slots).
        if (iter % 7 == 0) {
            const std::size_t target =
                fixed_slots +
                rng.nextBounded(slots.size() - fixed_slots);
            slots[target] = makeSlot(std::move(want_i),
                                     rng.nextBounded(2) == 0,
                                     universe);
        }
    }
}

} // namespace fuzz_tests
