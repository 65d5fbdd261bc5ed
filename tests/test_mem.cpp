/** @file Unit tests for the memory substrate (caches, PIM models). */

#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/pim.hpp"

namespace {

using namespace sisa::mem;

TEST(AddressSpace, PageAlignedDisjointRegions)
{
    AddressSpace space;
    const Region a = space.allocate(100);
    const Region b = space.allocate(5000);
    EXPECT_EQ(a.base % 4096, 0u);
    EXPECT_EQ(b.base % 4096, 0u);
    EXPECT_GE(b.base, a.base + 4096);
    EXPECT_EQ(a.elem(3, 8), a.base + 24);
}

TEST(Cache, HitAfterMiss)
{
    Cache cache({1024, 2, 64, 1});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103f)); // Same 64B line.
    EXPECT_FALSE(cache.access(0x1040)); // Next line.
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 2 sets (256B total).
    Cache cache({256, 2, 64, 1});
    // Three lines mapping to the same set (stride = 128).
    cache.access(0x0000);
    cache.access(0x0080);
    cache.access(0x0100); // Evicts 0x0000 (LRU).
    EXPECT_FALSE(cache.contains(0x0000));
    EXPECT_TRUE(cache.contains(0x0080));
    EXPECT_TRUE(cache.contains(0x0100));
    // Touch 0x0080, then insert another: 0x0100 becomes the victim.
    cache.access(0x0080);
    cache.access(0x0180);
    EXPECT_TRUE(cache.contains(0x0080));
    EXPECT_FALSE(cache.contains(0x0100));
}

TEST(Cache, FlushClears)
{
    Cache cache({1024, 2, 64, 1});
    cache.access(0x40);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x40));
}

TEST(Hierarchy, LatencyOrdering)
{
    HierarchyConfig cfg;
    CacheHierarchy hier(cfg);
    const Cycles cold = hier.loadLatency(0x10000);
    const Cycles warm = hier.loadLatency(0x10000);
    EXPECT_GT(cold, warm);
    // Warm hit = L1 latency (TLB entry cached too).
    EXPECT_EQ(warm, cfg.l1.hitLatency);
    // Cold miss pays every level plus DRAM plus the TLB walk.
    EXPECT_EQ(cold, cfg.tlbMissPenalty + cfg.l1.hitLatency +
                        cfg.l2.hitLatency + cfg.l3.hitLatency +
                        cfg.dramLatency);
}

TEST(Hierarchy, SharedL3VisibleToPeers)
{
    HierarchyConfig cfg;
    auto l3 = std::make_shared<Cache>(cfg.l3);
    CacheHierarchy a(cfg, l3);
    CacheHierarchy b(cfg, l3);
    a.loadLatency(0x20000); // a warms the shared L3...
    const Cycles b_first = b.loadLatency(0x20000);
    // ...so b misses L1/L2 but hits L3 (no DRAM access).
    EXPECT_EQ(b_first, cfg.tlbMissPenalty + cfg.l1.hitLatency +
                           cfg.l2.hitLatency + cfg.l3.hitLatency);
    EXPECT_EQ(b.dramAccesses(), 0u);
}

TEST(Hierarchy, CountsDramAccesses)
{
    HierarchyConfig cfg;
    CacheHierarchy hier(cfg);
    hier.loadLatency(0x0);
    hier.loadLatency(0x100000);
    hier.loadLatency(0x0); // Hit.
    EXPECT_EQ(hier.dramAccesses(), 2u);
}

// --- PIM timing models (Section 8.3 / 9.1 formulas) ----------------------

TEST(Pim, PumSingleStepForSmallBitvectors)
{
    PimParams p;
    // Any n below q * R takes exactly one in-situ step.
    EXPECT_EQ(pumBulkCycles(p, 1), p.dramLatency + p.inSituLatency);
    EXPECT_EQ(pumBulkCycles(p, p.rowBits * p.parallelRows),
              p.dramLatency + p.inSituLatency);
}

TEST(Pim, PumStepsScaleWithBits)
{
    PimParams p;
    const std::uint64_t step = p.rowBits * p.parallelRows;
    EXPECT_EQ(pumBulkCycles(p, step + 1),
              p.dramLatency + 2 * p.inSituLatency);
    EXPECT_EQ(pumBulkCycles(p, 10 * step),
              p.dramLatency + 10 * p.inSituLatency);
}

TEST(Pim, StreamModelMatchesFormula)
{
    PimParams p;
    // l_M + W * max / min(b_M, b_L).
    const Cycles c = pnmStreamCycles(p, 1000, 4);
    EXPECT_EQ(c, p.dramLatency + static_cast<Cycles>(
                                     4000.0 /
                                     std::min(p.memBandwidth,
                                              p.interconnectBandwidth)));
}

TEST(Pim, StreamBottleneckedByInterconnect)
{
    PimParams p;
    p.memBandwidth = 16.0;
    p.interconnectBandwidth = 2.0;
    // min(b_M, b_L) = 2 bytes/cycle -> 4 bytes take 2 cycles each.
    EXPECT_EQ(pnmStreamCycles(p, 100, 4), p.dramLatency + 200);
}

TEST(Pim, RandomModelLinearInProbes)
{
    PimParams p;
    EXPECT_EQ(pnmRandomCycles(p, 0), 0u);
    EXPECT_EQ(pnmRandomCycles(p, 7), 7 * p.dramLatency);
}

TEST(Pim, GallopPrediction)
{
    EXPECT_EQ(predictedGallopProbes(0, 100), 0u);
    EXPECT_EQ(predictedGallopProbes(1, 1), 1u);
    // 4 * (ceil(log2(256)) + 1) = 4 * 9.
    EXPECT_EQ(predictedGallopProbes(4, 256), 36u);
}

TEST(Pim, MergeBeatsGallopForSimilarSizes)
{
    // The crossover the SCU exploits: similar sizes favor merge,
    // wildly different sizes favor galloping.
    PimParams p;
    const Cycles merge_similar = pnmStreamCycles(p, 1000, 4);
    const Cycles gallop_similar =
        pnmRandomCycles(p, predictedGallopProbes(1000, 1000));
    EXPECT_LT(merge_similar, gallop_similar);

    const Cycles merge_skewed = pnmStreamCycles(p, 100000, 4);
    const Cycles gallop_skewed =
        pnmRandomCycles(p, predictedGallopProbes(2, 100000));
    EXPECT_LT(gallop_skewed, merge_skewed);
}

TEST(Pim, StreamBytesFormIsExact)
{
    PimParams p;
    // l_M + ceil(bytes / min(b_M, b_L)), byte-granular.
    EXPECT_EQ(pnmStreamBytesCycles(p, 0), p.dramLatency);
    EXPECT_EQ(pnmStreamBytesCycles(p, 1), p.dramLatency + 1);
    EXPECT_EQ(pnmStreamBytesCycles(p, 8), p.dramLatency + 1);
    EXPECT_EQ(pnmStreamBytesCycles(p, 9), p.dramLatency + 2);
    EXPECT_EQ(pnmStreamBytesCycles(p, 8192), p.dramLatency + 1024);
}

TEST(Pim, StreamElementFormDelegatesToBytes)
{
    // The element-count form must price exactly elem_bytes per
    // element, so mixed-width streams (4 B SA elements vs 8 B DB
    // words) are comparable after conversion to bytes.
    PimParams p;
    EXPECT_EQ(pnmStreamCycles(p, 1000, 4), pnmStreamBytesCycles(p, 4000));
    EXPECT_EQ(pnmStreamCycles(p, 500, 8), pnmStreamBytesCycles(p, 4000));
    EXPECT_EQ(pnmStreamCycles(p, 1000, 4), pnmStreamCycles(p, 500, 8));
}

TEST(Pim, PumBeatsPnmForWideBitvectors)
{
    // The headline effect: an in-situ AND over n bits costs two row
    // operations' worth of latency, while streaming the equivalent
    // sparse data through a vault scales with the data size.
    PimParams p;
    const std::uint64_t n_bits = 1 << 20;
    const Cycles pum = pumBulkCycles(p, n_bits);
    const Cycles pnm = pnmStreamCycles(p, n_bits / 2, 4);
    EXPECT_LT(pum, pnm / 10);
}

} // namespace
