#include "mem/cache.hpp"

#include "support/bits.hpp"
#include "support/logging.hpp"

namespace sisa::mem {

Cache::Cache(const CacheConfig &config)
    : associativity_(config.associativity)
{
    sisa_assert(support::isPowerOfTwo(config.lineBytes),
                "cache line size must be a power of two");
    const std::uint64_t lines = config.sizeBytes / config.lineBytes;
    const std::uint64_t sets = lines / config.associativity;
    sisa_assert(support::isPowerOfTwo(sets) &&
                    sets * config.associativity == lines,
                "cache set count must be a power of two");
    lineShift_ = support::floorLog2(config.lineBytes);
    setShift_ = support::floorLog2(sets);
    lines_.resize(lines);
}

bool
Cache::access(Addr addr)
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line >> setShift_;
    Line *const set =
        &lines_[(line & ((1ull << setShift_) - 1)) * associativity_];
    Line *victim = set;
    ++tick_;
    for (Line *way = set; way != set + associativity_; ++way) {
        if (way->tag == tag) {
            way->age = tick_;
            ++hits_;
            return true;
        }
        if (way->age < victim->age)
            victim = way;
    }
    *victim = {tag, tick_};
    ++misses_;
    return false;
}

CacheHierarchy::CacheHierarchy(Cache &shared_l3) : l3_(&shared_l3) {}

CacheHierarchy::Load
CacheHierarchy::load(Addr addr)
{
    Cycles latency = dtlb_.access(addr) ? 0 : kTlbMissPenalty;
    latency += kL1.hitLatency;
    if (l1_.access(addr))
        return {latency, true};
    latency += kL2.hitLatency;
    if (l2_.access(addr))
        return {latency, false};
    latency += kL3.hitLatency;
    if (l3_->access(addr))
        return {latency, false};
    ++dramAccesses_;
    return {latency + kDramLatency, false};
}

} // namespace sisa::mem
