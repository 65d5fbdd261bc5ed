/**
 * @file
 * Charged CSR accessors for the hand-tuned non-set baselines
 * (Section 9.1, "Comparison Targets: Hand-Tuned Algorithms"). The
 * baselines run on the out-of-order CPU model: every CSR access goes
 * through the simulated cache hierarchy at its synthetic address.
 */

#ifndef SISA_BASELINES_CSR_VIEW_HPP
#define SISA_BASELINES_CSR_VIEW_HPP

#include <span>

#include "graph/graph.hpp"
#include "mem/address_space.hpp"
#include "sim/cpu_model.hpp"

namespace sisa::baselines {

using graph::Graph;
using graph::VertexId;

/** A Graph bound to synthetic memory regions and a CPU cost model. */
class CsrView
{
  public:
    /**
     * Bind @p graph's arrays to synthetic regions starting at
     * @p arena. Two views read in one run need disjoint arenas, or
     * their arrays share cache lines: start the second at the first
     * one's arenaEnd().
     */
    CsrView(const Graph &graph, sim::CpuModel &cpu,
            mem::Addr arena = mem::AddressSpace::kDefaultBase);

    const Graph &graph() const { return *graph_; }
    sim::CpuModel &cpu() { return *cpu_; }

    /** First synthetic address past this view's arrays. */
    mem::Addr arenaEnd() const { return space_.end(); }

    /** Address of adj[index]. */
    mem::Addr
    adjAddr(std::uint64_t index) const
    {
        return adj_.elem(index, sizeof(VertexId));
    }

    /** Charge the offsets[v] + offsets[v+1] loads, return N(v). */
    std::span<const VertexId> neighbors(sim::SimContext &ctx,
                                        sim::ThreadId tid, VertexId v);

    /** Charge a full sequential scan of N(v) (after neighbors()). */
    void streamNeighbors(sim::SimContext &ctx, sim::ThreadId tid,
                         VertexId v);

    /**
     * Membership test v in N(u) by binary search over the CSR run:
     * charged as dependent loads (the classic baseline access
     * pattern that SISA's streaming formulations avoid).
     */
    bool hasEdgeBinary(sim::SimContext &ctx, sim::ThreadId tid,
                       VertexId u, VertexId v);

    /**
     * Merge-intersect N(u) and N(v) directly on the CSR (the GAP-
     * style tuned kernel): charges streams over both runs and returns
     * the common-neighbor count.
     */
    std::uint64_t mergeCountCommon(sim::SimContext &ctx,
                                   sim::ThreadId tid, VertexId u,
                                   VertexId v);

  private:
    const Graph *graph_;
    sim::CpuModel *cpu_;
    mem::AddressSpace space_;
    mem::Region offsets_;
    mem::Region adj_;
    std::vector<std::uint64_t> offsetIndex_; ///< offsets_ mirror.
};

} // namespace sisa::baselines

#endif // SISA_BASELINES_CSR_VIEW_HPP
