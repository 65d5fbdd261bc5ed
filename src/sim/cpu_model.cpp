#include "sim/cpu_model.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace sisa::sim {

CpuModel::CpuModel(const CpuParams &params, std::uint32_t num_threads)
    : params_(params), sharedL3_(std::make_unique<mem::Cache>(mem::kL3)),
      perThread_(num_threads, mem::CacheHierarchy(*sharedL3_))
{
}

double
CpuModel::contentionFactor(const SimContext &ctx) const
{
    if (params_.scalableBandwidth)
        return 1.0;
    return 1.0 + kContentionPerThread *
                     static_cast<double>(ctx.numThreads() - 1);
}

void
CpuModel::compute(SimContext &ctx, ThreadId tid, std::uint64_t ops)
{
    const auto cycles = static_cast<mem::Cycles>(
        std::ceil(static_cast<double>(ops) / kIpc));
    ctx.chargeBusy(tid, cycles);
}

mem::Cycles
CpuModel::load(SimContext &ctx, ThreadId tid, mem::Addr addr,
               AccessKind kind)
{
    sisa_assert(tid < perThread_.size(), "thread id out of range");
    const mem::CacheHierarchy::Load result = perThread_[tid].load(addr);

    constexpr mem::Cycles l1_lat = mem::kL1.hitLatency;
    ctx.chargeBusy(tid, l1_lat);
    if (result.l1Hit)
        return l1_lat;

    // Beyond-L1 cycles are stalls; streamed misses overlap via MLP,
    // and on a fixed-bandwidth uncore (Figure 1 config) they queue
    // behind the other threads' traffic.
    auto beyond = static_cast<double>(result.latency - l1_lat);
    beyond *= contentionFactor(ctx);
    if (kind == AccessKind::Sequential)
        beyond /= kStreamMlp;
    const auto stall = static_cast<mem::Cycles>(std::ceil(beyond));
    ctx.chargeStall(tid, stall);
    return l1_lat + stall;
}

void
CpuModel::elementWork(SimContext &ctx, ThreadId tid, std::uint64_t count)
{
    ctx.chargeBusy(tid, static_cast<mem::Cycles>(std::ceil(
                            kElementCycles * static_cast<double>(count))));
}

void
CpuModel::stream(SimContext &ctx, ThreadId tid, mem::Addr base,
                 std::uint64_t count, std::uint32_t elem_bytes)
{
    if (count == 0)
        return;
    constexpr std::uint32_t line = mem::kL1.lineBytes;
    const mem::Addr first_line = base / line;
    const mem::Addr last_line = (base + count * elem_bytes - 1) / line;
    for (mem::Addr l = first_line; l <= last_line; ++l)
        load(ctx, tid, l * line, AccessKind::Sequential);
    elementWork(ctx, tid, count);
}

std::uint64_t
CpuModel::dramAccesses(ThreadId tid) const
{
    return perThread_[tid].dramAccesses();
}

} // namespace sisa::sim
