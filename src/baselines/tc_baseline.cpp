#include "baselines/tc_baseline.hpp"

#include "sim/context.hpp"

namespace sisa::baselines {

std::uint64_t
triangleCountBaseline(CsrView &csr, sim::SimContext &ctx)
{
    const Graph &graph = csr.graph();
    const VertexId n = graph.numVertices();

    std::vector<std::uint64_t> partial(ctx.numThreads(), 0);
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(n, ctx.numThreads(), tid);
        for (std::uint64_t i = range.begin; i != range.end; ++i) {
            if (ctx.cutoffReached(tid))
                break;
            const auto u = static_cast<VertexId>(i);
            for (VertexId v : csr.neighbors(ctx, tid, u)) {
                const std::uint64_t found =
                    csr.mergeCountCommon(ctx, tid, u, v);
                partial[tid] += found;
                if (!ctx.countPatterns(tid, found))
                    break;
            }
        }
    }

    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total;
}

} // namespace sisa::baselines
