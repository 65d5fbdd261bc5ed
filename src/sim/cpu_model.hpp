/**
 * @file
 * Analytic out-of-order CPU core model (the Section 9.1 non-SISA
 * platform: 128-entry instruction window, branch predictor, private
 * L1/L2, shared 8MB L3, TLBs). Memory accesses run through the cache
 * hierarchy of src/mem; the core model layers on top of it:
 *
 *  - memory-level parallelism: the OoO window overlaps independent
 *    (streaming) misses, dividing their latency by `kStreamMlp`;
 *    dependent accesses (pointer chases, binary-search probes) cannot
 *    be overlapped and pay full latency;
 *  - bandwidth contention: in the fixed-bandwidth configuration used
 *    for the Figure 1 motivation study, DRAM latency grows with the
 *    number of active threads (queueing); the PIM-parametrized
 *    baselines of Figure 6 instead use `scalableBandwidth = true`,
 *    matching the paper's "for fair comparison, we increase the
 *    memory bandwidth with the number of cores".
 *
 * Cycles beyond the L1 hit latency are charged as stall cycles; L1
 * hits (also after a D-TLB miss) and arithmetic are charged as busy
 * cycles. The constants below fix the Section 9.1 core; the only
 * choice left to callers is the bandwidth switch in CpuParams.
 */

#ifndef SISA_SIM_CPU_MODEL_HPP
#define SISA_SIM_CPU_MODEL_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "sim/context.hpp"

namespace sisa::sim {

/** Sustained instructions/cycle for simple ALU work. */
inline constexpr double kIpc = 2.0;
/** Overlap factor for independent (streamed) misses. */
inline constexpr double kStreamMlp = 4.0;
/**
 * Amortized cycles of per-element software work in data-dependent set
 * loops (compare + advance + a hard-to-predict branch): ~4
 * instructions at kIpc plus ~0.25 mispredictions of ~14 cycles.
 * Charged via elementWork(); the PIM engines do this work inside the
 * memory units instead.
 */
inline constexpr double kElementCycles = 5.0;
/** Beyond-L1 latency growth per extra thread on a fixed uncore. */
inline constexpr double kContentionPerThread = 0.18;

/** The one core-model choice a paper figure varies. */
struct CpuParams
{
    /**
     * When false, every beyond-L1 latency (shared L3, memory bus,
     * DRAM) is scaled by (1 + kContentionPerThread * (T - 1)) to model
     * the fixed shared uncore of a conventional CPU (the Figure 1
     * configuration). The PIM-parametrized baselines of Figure 6 use
     * true: bandwidth scales with the core count.
     */
    bool scalableBandwidth = true;
};

/** Kind of memory access, deciding the MLP overlap applied. */
enum class AccessKind
{
    Sequential, ///< Part of a stream; misses overlap (kStreamMlp).
    Dependent,  ///< Serialized on prior loads; full latency.
};

/**
 * One cache hierarchy per simulated thread plus shared L3; charges
 * cycles into a SimContext.
 */
class CpuModel
{
  public:
    CpuModel(const CpuParams &params, std::uint32_t num_threads);

    /** Charge @p ops simple ALU operations to @p tid. */
    void compute(SimContext &ctx, ThreadId tid, std::uint64_t ops);

    /**
     * Charge the software cost of processing @p count elements in a
     * data-dependent loop (merge steps, filter tests, probe checks).
     */
    void elementWork(SimContext &ctx, ThreadId tid,
                     std::uint64_t count);

    /** One load of @p addr; returns the modeled latency. */
    mem::Cycles load(SimContext &ctx, ThreadId tid, mem::Addr addr,
                     AccessKind kind);

    /**
     * Stream @p count elements of @p elem_bytes from @p base: touches
     * each cache line once with Sequential overlap and charges
     * elementWork() for the @p count elements.
     */
    void stream(SimContext &ctx, ThreadId tid, mem::Addr base,
                std::uint64_t count, std::uint32_t elem_bytes);

    /** DRAM accesses observed by @p tid's hierarchy. */
    std::uint64_t dramAccesses(ThreadId tid) const;

  private:
    double contentionFactor(const SimContext &ctx) const;

    CpuParams params_;
    std::unique_ptr<mem::Cache> sharedL3_;
    std::vector<mem::CacheHierarchy> perThread_;
};

} // namespace sisa::sim

#endif // SISA_SIM_CPU_MODEL_HPP
