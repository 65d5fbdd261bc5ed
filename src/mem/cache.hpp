/**
 * @file
 * Set-associative cache hierarchy with LRU replacement, plus a TLB,
 * modeling the out-of-order CPU platform the paper evaluates non-SISA
 * code on (Section 9.1: 32KB L1I/D, 256KB L2, shared 8MB L3, 64-entry
 * D-TLB, 512-entry S-TLB). The hierarchy is driven by synthetic
 * addresses (see address_space.hpp) and returns access latencies in
 * cycles; the CPU core model (src/sim) layers MLP overlap and
 * bandwidth contention on top.
 */

#ifndef SISA_MEM_CACHE_HPP
#define SISA_MEM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/pim.hpp"

namespace sisa::mem {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t associativity = 8;
    std::uint32_t lineBytes = 64;
    Cycles hitLatency = 4;
};

/** The Section 9.1 hierarchy: private L1 and L2, shared L3, D-TLB. */
inline constexpr CacheConfig kL1{32 * 1024, 8, 64, 4};
inline constexpr CacheConfig kL2{256 * 1024, 8, 64, 12};
inline constexpr CacheConfig kL3{8 * 1024 * 1024, 16, 64, 38};
inline constexpr CacheConfig kDtlb{64 * 4096, 4, 4096, 0}; ///< 64 x 4KB.
inline constexpr Cycles kTlbMissPenalty = 30;
inline constexpr Cycles kDramLatency = 100; ///< l_M.

/**
 * One set-associative LRU cache (or TLB when lineBytes = pageBytes).
 * Its line size and set count must be powers of two.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Look up @p addr; inserts on miss. @return true on hit. */
    bool access(Addr addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /**
     * One way. An empty way has the sentinel tag (no address maps to
     * it) and age 0, older than any filled way, so the victim is
     * simply the first way of minimum age.
     */
    struct Line
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t age = 0;
    };

    std::uint32_t associativity_;
    unsigned lineShift_; ///< log2(line bytes).
    unsigned setShift_;  ///< log2(set count).
    std::vector<Line> lines_; ///< set count x associativity, row-major.
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * One core of the Section 9.1 hierarchy: private L1, L2 and D-TLB over
 * an L3 that every core shares.
 */
class CacheHierarchy
{
  public:
    /** @param shared_l3 A kL3 cache, the same object for every core. */
    explicit CacheHierarchy(Cache &shared_l3);

    /** Outcome of one load. */
    struct Load
    {
        Cycles latency;
        bool l1Hit;
    };

    /** Look up @p addr at line granularity, level by level. */
    Load load(Addr addr);

    std::uint64_t dramAccesses() const { return dramAccesses_; }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    Cache l1_{kL1};
    Cache l2_{kL2};
    Cache *l3_;
    Cache dtlb_{kDtlb};
    std::uint64_t dramAccesses_ = 0;
};

} // namespace sisa::mem

#endif // SISA_MEM_CACHE_HPP
