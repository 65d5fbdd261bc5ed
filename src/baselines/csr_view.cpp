#include "baselines/csr_view.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace sisa::baselines {

CsrView::CsrView(const Graph &graph, sim::CpuModel &cpu, mem::Addr arena)
    : graph_(&graph), cpu_(&cpu), space_(arena)
{
    const std::uint64_t n = graph.numVertices();
    offsets_ = space_.allocate((n + 1) * 8);
    const std::uint64_t arcs =
        graph.directed() ? graph.numEdges() : 2 * graph.numEdges();
    adj_ = space_.allocate(arcs * sizeof(VertexId));
    offsetIndex_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        offsetIndex_[v + 1] = offsetIndex_[v] + graph.degree(v);
}

std::span<const VertexId>
CsrView::neighbors(sim::SimContext &ctx, sim::ThreadId tid, VertexId v)
{
    cpu_->load(ctx, tid, offsets_.elem(v, 8),
               sim::AccessKind::Sequential);
    cpu_->load(ctx, tid, offsets_.elem(v + 1, 8),
               sim::AccessKind::Sequential);
    return graph_->neighbors(v);
}

void
CsrView::streamNeighbors(sim::SimContext &ctx, sim::ThreadId tid,
                         VertexId v)
{
    cpu_->stream(ctx, tid, adjAddr(offsetIndex_[v]), graph_->degree(v),
                 sizeof(VertexId));
}

bool
CsrView::hasEdgeBinary(sim::SimContext &ctx, sim::ThreadId tid,
                       VertexId u, VertexId v)
{
    const auto nbrs = graph_->neighbors(u);
    std::uint64_t lo = 0;
    std::uint64_t hi = nbrs.size();
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        cpu_->load(ctx, tid, adjAddr(offsetIndex_[u] + mid),
                   sim::AccessKind::Dependent);
        cpu_->elementWork(ctx, tid, 1);
        if (nbrs[mid] < v) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo < nbrs.size() && nbrs[lo] == v;
}

std::uint64_t
CsrView::mergeCountCommon(sim::SimContext &ctx, sim::ThreadId tid,
                          VertexId u, VertexId v)
{
    const auto nu = graph_->neighbors(u);
    const auto nv = graph_->neighbors(v);
    cpu_->stream(ctx, tid, adjAddr(offsetIndex_[u]), nu.size(),
                 sizeof(VertexId));
    cpu_->stream(ctx, tid, adjAddr(offsetIndex_[v]), nv.size(),
                 sizeof(VertexId));

    std::uint64_t count = 0;
    std::size_t i = 0, j = 0;
    while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
            ++i;
        } else if (nv[j] < nu[i]) {
            ++j;
        } else {
            ++count;
            ++i;
            ++j;
        }
    }
    return count;
}

} // namespace sisa::baselines
