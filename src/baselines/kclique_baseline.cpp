#include "baselines/kclique_baseline.hpp"

#include <algorithm>
#include <map>

namespace sisa::baselines {

namespace {

struct KcBaselineTask
{
    CsrView &csr;
    sim::SimContext &ctx;
    sim::ThreadId tid;
    std::uint32_t k;
    const std::function<void(sim::ThreadId,
                             const std::vector<VertexId> &)> *onClique;
    std::vector<VertexId> stack;

    std::uint64_t
    count(std::uint32_t i, const std::vector<VertexId> &cands)
    {
        std::uint64_t found = 0;
        if (i == k) {
            if (onClique && *onClique) {
                for (VertexId v : cands) {
                    stack.push_back(v);
                    (*onClique)(tid, stack);
                    stack.pop_back();
                    ++found;
                    if (!ctx.countPattern(tid))
                        break;
                }
            } else {
                found = cands.size();
                ctx.countPatterns(tid, found);
            }
            return found;
        }
        for (VertexId v : cands) {
            if (ctx.cutoffReached(tid))
                break;
            // Filter: w in cands with w in N+(v) -- per-element
            // binary-search probes (the non-set access pattern).
            std::vector<VertexId> next;
            next.reserve(cands.size());
            for (VertexId w : cands) {
                if (w != v && csr.hasEdgeBinary(ctx, tid, v, w))
                    next.push_back(w);
            }
            stack.push_back(v);
            found += count(i + 1, next);
            stack.pop_back();
        }
        return found;
    }
};

std::uint64_t
runBaseline(CsrView &csr, sim::SimContext &ctx, std::uint32_t k,
            const std::function<void(sim::ThreadId,
                                     const std::vector<VertexId> &)>
                *on_clique)
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
            const auto nbrs = csr.neighbors(ctx, tid, u);
            csr.streamNeighbors(ctx, tid, u);
            std::vector<VertexId> cands(nbrs.begin(), nbrs.end());
            KcBaselineTask task{csr, ctx, tid, k, on_clique, {u}};
            partial[tid] += task.count(2, cands);
        }
    }

    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total;
}

} // namespace

std::uint64_t
kCliqueCountBaseline(CsrView &csr, sim::SimContext &ctx, std::uint32_t k)
{
    return runBaseline(csr, ctx, k, nullptr);
}

std::uint64_t
kCliqueListBaseline(CsrView &csr, sim::SimContext &ctx, std::uint32_t k,
                    const std::function<void(
                        sim::ThreadId, const std::vector<VertexId> &)>
                        &on_clique)
{
    return runBaseline(csr, ctx, k, &on_clique);
}

std::uint64_t
kCliqueStarBaseline(CsrView &oriented, CsrView &undirected,
                    sim::SimContext &ctx, std::uint32_t k)
{
    std::map<std::vector<VertexId>, bool> seen;
    std::uint64_t stars = 0;

    kCliqueListBaseline(
        oriented, ctx, k,
        [&](sim::ThreadId tid, const std::vector<VertexId> &clique) {
            // Candidates: neighbors of the first member; verify each
            // against all members by binary-searched adjacency.
            std::vector<VertexId> members(clique);
            std::sort(members.begin(), members.end());
            std::vector<VertexId> star(members);
            for (VertexId cand :
                 undirected.neighbors(ctx, tid, members[0])) {
                if (std::binary_search(members.begin(), members.end(),
                                       cand)) {
                    continue;
                }
                bool adjacent_to_all = true;
                for (VertexId m : members) {
                    if (cand != m &&
                        !undirected.hasEdgeBinary(ctx, tid, cand, m)) {
                        adjacent_to_all = false;
                        break;
                    }
                }
                if (adjacent_to_all) {
                    star.insert(std::lower_bound(star.begin(),
                                                 star.end(), cand),
                                cand);
                }
            }
            undirected.streamNeighbors(ctx, tid, members[0]);
            if (!seen.contains(star)) {
                seen.emplace(star, true);
                ++stars;
            }
        });
    return stars;
}

} // namespace sisa::baselines
