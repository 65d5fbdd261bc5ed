/** @file Unit tests for the memory substrate (caches, PIM models). */

#include <gtest/gtest.h>

#include <map>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/pim.hpp"
#include "support/rng.hpp"

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
    EXPECT_FALSE(cache.access(0x0000));
    EXPECT_FALSE(cache.access(0x0080));
    EXPECT_FALSE(cache.access(0x0100)); // Evicts 0x0000 (LRU).
    EXPECT_TRUE(cache.access(0x0080));  // Now 0x0100 is the LRU way.
    EXPECT_FALSE(cache.access(0x0000)); // Evicts 0x0100.
    EXPECT_TRUE(cache.access(0x0080));
    EXPECT_FALSE(cache.access(0x0100));
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 5u);
}

TEST(CacheDeathTest, RejectsNonPowerOfTwoGeometry)
{
    // 48-byte lines.
    EXPECT_DEATH(Cache({3 * 1024, 2, 48, 1}), "line size");
    // 3 sets of 2 ways.
    EXPECT_DEATH(Cache({384, 2, 64, 1}), "set count");
    // 5 lines cannot fill 2-way sets.
    EXPECT_DEATH(Cache({320, 2, 64, 1}), "set count");
}

TEST(Hierarchy, LatencyOrdering)
{
    Cache l3(kL3);
    CacheHierarchy hier(l3);
    const CacheHierarchy::Load cold = hier.load(0x10000);
    const CacheHierarchy::Load warm = hier.load(0x10000);
    // Warm hit = L1 latency (TLB entry cached too).
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.latency, kL1.hitLatency);
    // Cold miss pays every level plus DRAM plus the TLB walk.
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_EQ(cold.latency, kTlbMissPenalty + kL1.hitLatency +
                                kL2.hitLatency + kL3.hitLatency +
                                kDramLatency);
}

TEST(Hierarchy, SharedL3VisibleToPeers)
{
    Cache l3(kL3);
    CacheHierarchy a(l3);
    CacheHierarchy b(l3);
    a.load(0x20000); // a warms the shared L3...
    const Cycles b_first = b.load(0x20000).latency;
    // ...so b misses L1/L2 but hits L3 (no DRAM access).
    EXPECT_EQ(b_first, kTlbMissPenalty + kL1.hitLatency +
                           kL2.hitLatency + kL3.hitLatency);
    EXPECT_EQ(b.dramAccesses(), 0u);
}

TEST(Hierarchy, CountsDramAccesses)
{
    Cache l3(kL3);
    CacheHierarchy hier(l3);
    hier.load(0x0);
    hier.load(0x100000);
    hier.load(0x0); // Hit.
    EXPECT_EQ(hier.dramAccesses(), 2u);
}

// --- Seeded replays: exact hit/miss behaviour and conservation ------------

/** FNV-1a step over the eight bytes of @p value. */
std::uint64_t
fnv(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Two cores of the Section 9.1 hierarchy sharing one L3, driven by
 * 2^17 seeded loads. Each load picks a core and an address from one of
 * four ranges: 16 KB (L1-resident), 192 KB (L2), 6 MB (L3 only) and
 * 64 MB (mostly DRAM), so every level and both TLB outcomes occur.
 */
struct SharedL3Replay
{
    static constexpr std::uint64_t kLoads = 1u << 17;

    Cache l3{kL3};
    CacheHierarchy cores[2] = {CacheHierarchy(l3), CacheHierarchy(l3)};
    std::uint64_t loads[2] = {0, 0};
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::map<Cycles, std::uint64_t> latencies; ///< Latency -> loads.

    SharedL3Replay()
    {
        static constexpr Addr kRanges[] = {16 << 10, 192 << 10, 6 << 20,
                                           64 << 20};
        sisa::support::Xoshiro256 rng(2104);
        for (std::uint64_t i = 0; i < kLoads; ++i) {
            const std::uint64_t r = rng();
            const std::size_t core = (r >> 2) & 1;
            const Addr addr = 0x10000000 + (r >> 3) % kRanges[r & 3];
            const Cycles latency = cores[core].load(addr).latency;
            ++loads[core];
            ++latencies[latency];
            digest = fnv(fnv(digest, core), latency);
        }
    }
};

TEST(Hierarchy, SharedL3ReplayDigestPinned)
{
    const SharedL3Replay replay;
    // The latency names the TLB outcome (+30 on a miss) and the level
    // that hit (L1 4, L2 16, L3 54, DRAM 154): all eight occur.
    const std::map<Cycles, std::uint64_t> expected = {
        {4, 16347},  {16, 22477}, {34, 1062},  {46, 6877},
        {54, 7221},  {84, 15700}, {154, 1795}, {184, 59593}};
    EXPECT_EQ(replay.latencies, expected);
    // Every load's core and latency, in order.
    EXPECT_EQ(replay.digest, 14368293291167077835ULL);
}

TEST(Hierarchy, SharedL3ReplayConservesLookups)
{
    SharedL3Replay replay;
    std::uint64_t l2_misses = 0;
    std::uint64_t dram = 0;
    for (std::size_t core = 0; core < 2; ++core) {
        const CacheHierarchy &hier = replay.cores[core];
        EXPECT_EQ(hier.l1().hits() + hier.l1().misses(),
                  replay.loads[core]);
        EXPECT_EQ(hier.l2().hits() + hier.l2().misses(),
                  hier.l1().misses());
        l2_misses += hier.l2().misses();
        dram += hier.dramAccesses();
    }
    EXPECT_EQ(replay.l3.hits() + replay.l3.misses(), l2_misses);
    EXPECT_EQ(dram, replay.l3.misses());
}

TEST(Cache, SmbReplayDigestPinned)
{
    // The SCU's SMB geometry (16-byte lines, 4-way) at the three sizes
    // bench_scu_cache sweeps. Entries come from a hot 4 KB set and a
    // cold 512 KB set, half each.
    const std::uint64_t expected_digest[] = {18209463434007904132ULL,
                                             16729160954326929636ULL,
                                             6225054796532021541ULL};
    const std::uint64_t expected_hits[] = {14989, 34015, 43124};
    const std::uint64_t sizes_kb[] = {4, 32, 256};
    for (std::size_t i = 0; i < 3; ++i) {
        Cache smb({sizes_kb[i] << 10, 4, 16, 2});
        sisa::support::Xoshiro256 rng(sizes_kb[i]);
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        for (std::uint64_t k = 0; k < (1u << 16); ++k) {
            const std::uint64_t r = rng();
            const std::uint64_t entry = (r >> 8) % ((r & 1) ? 256 : 32768);
            digest = fnv(digest, smb.access(0x20000000 + entry * 16 +
                                            ((r >> 1) & 15)));
        }
        EXPECT_EQ(digest, expected_digest[i]) << sizes_kb[i] << " KB";
        EXPECT_EQ(smb.hits(), expected_hits[i]) << sizes_kb[i] << " KB";
    }
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
