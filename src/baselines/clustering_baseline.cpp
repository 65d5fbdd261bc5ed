#include "baselines/clustering_baseline.hpp"

#include <algorithm>

namespace sisa::baselines {

std::uint64_t
jarvisPatrickBaseline(CsrView &csr, sim::SimContext &ctx,
                      ClusterCoefficient coefficient, double tau)
{
    const Graph &graph = csr.graph();
    const graph::UpperEdges edges(graph);

    std::uint64_t cluster_edges = 0;
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(edges.size(), ctx.numThreads(), tid);
        graph::UpperEdges::Walk walk = edges.walkFrom(range.begin);
        for (std::uint64_t i = range.begin; i != range.end; ++i) {
            if (ctx.cutoffReached(tid))
                break;
            const auto [u, v] = walk.next();
            const auto common = static_cast<double>(
                csr.mergeCountCommon(ctx, tid, u, v));
            const auto du = static_cast<double>(graph.degree(u));
            const auto dv = static_cast<double>(graph.degree(v));
            double similarity = 0.0;
            switch (coefficient) {
              case ClusterCoefficient::Jaccard: {
                const double uni = du + dv - common;
                similarity = uni == 0.0 ? 0.0 : common / uni;
                break;
              }
              case ClusterCoefficient::Overlap: {
                const double smaller = std::min(du, dv);
                similarity = smaller == 0.0 ? 0.0 : common / smaller;
                break;
              }
              case ClusterCoefficient::TotalNeighbors:
                similarity = du + dv - common;
                break;
            }
            csr.cpu().compute(ctx, tid, 6);
            if (similarity > tau) {
                ++cluster_edges;
                ctx.countPattern(tid);
            }
        }
    }
    return cluster_edges;
}

} // namespace sisa::baselines
