#include "algorithms/bron_kerbosch.hpp"

#include <algorithm>

#include "graph/degeneracy.hpp"

namespace sisa::algorithms {

namespace {

/** Recursion state shared by one outer-loop task. */
struct BkTask
{
    SetGraph &sg;
    SetEngine &eng;
    sim::SimContext &ctx;
    sim::ThreadId tid;
    MaximalCliqueResult &result;
    const std::function<void(const std::vector<VertexId> &)> &onClique;
    std::vector<VertexId> clique; ///< R, host-side (output only).

    /**
     * BKPivot(R, P, X): owns and destroys the set ids it is given.
     */
    void
    recurse(core::SetId p, core::SetId x)
    {
        if (ctx.cutoffReached(tid)) {
            eng.destroy(ctx, tid, p);
            eng.destroy(ctx, tid, x);
            return;
        }
        const std::uint64_t p_size = eng.cardinality(ctx, tid, p);
        const std::uint64_t x_size = eng.cardinality(ctx, tid, x);
        if (p_size == 0 && x_size == 0) {
            // |P| == 0 and |X| == 0: R is a maximal clique.
            ++result.cliqueCount;
            result.maxCliqueSize =
                std::max<std::uint64_t>(result.maxCliqueSize,
                                        clique.size());
            if (onClique)
                onClique(clique);
            ctx.countPattern(tid);
            eng.destroy(ctx, tid, p);
            eng.destroy(ctx, tid, x);
            return;
        }
        if (p_size == 0) {
            eng.destroy(ctx, tid, p);
            eng.destroy(ctx, tid, x);
            return;
        }

        // Tomita pivot: u in P cup X maximizing |P cap N(u)|. All
        // |P| + |X| fused cardinalities ride ONE batched dispatch;
        // N(u) is the primary (vault-routing) operand since it varies
        // across the batch while P is loop-invariant. The first
        // maximum wins, exactly as the serial scan did.
        std::vector<sets::Element> members;
        for (core::SetId side : {p, x}) {
            for (sets::Element u : eng.elements(ctx, tid, side))
                members.push_back(u);
        }
        core::BatchRequest pivot_batch;
        pivot_batch.reserve(members.size());
        for (sets::Element u : members)
            pivot_batch.intersectCard(sg.neighborhood(u), p);
        const core::BatchResult gains = eng.collectBatch(
            ctx, tid, eng.executeBatchAsync(ctx, tid, pivot_batch));
        VertexId pivot = graph::invalid_vertex;
        std::uint64_t best = 0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const std::uint64_t gain = gains.entries[i].value;
            if (pivot == graph::invalid_vertex || gain > best) {
                best = gain;
                pivot = members[i];
            }
        }

        // Candidates: P setminus N(u).
        const core::SetId cands =
            eng.difference(ctx, tid, p, sg.neighborhood(pivot));
        core::BatchRequest child;
        for (sets::Element v : eng.elements(ctx, tid, cands)) {
            if (ctx.cutoffReached(tid))
                break;
            // P' = P cap N(v) and X' = X cap N(v) are independent:
            // one dispatch materializes both (same result ids and
            // instruction trace as the serial pair), and under a
            // result-placing policy the intermediates stay in the
            // vault that produced them, keeping the recursion local.
            child.clear();
            child.intersect(p, sg.neighborhood(v));
            child.intersect(x, sg.neighborhood(v));
            const core::BatchResult next = eng.collectBatch(
                ctx, tid, eng.executeBatchAsync(ctx, tid, child));
            const core::SetId p_next = next.entries[0].set;
            const core::SetId x_next = next.entries[1].set;
            clique.push_back(v);
            recurse(p_next, x_next);
            clique.pop_back();
            eng.remove(ctx, tid, p, v);  // P = P setminus {v}
            eng.insert(ctx, tid, x, v);  // X = X cup {v}
        }
        eng.destroy(ctx, tid, cands);
        eng.destroy(ctx, tid, p);
        eng.destroy(ctx, tid, x);
    }
};

} // namespace

MaximalCliqueResult
maximalCliques(SetGraph &sg, const graph::DegeneracyResult &deg,
               sim::SimContext &ctx,
               const std::function<void(const std::vector<VertexId> &)>
                   &on_clique)
{
    SetEngine &eng = sg.engine();
    const VertexId n = sg.numVertices();
    sisa_assert(deg.rank.size() == n,
                "maximalCliques: order is not of the set graph's graph");

    MaximalCliqueResult result;
    // Outer loop over the degeneracy order (Eppstein et al.): for the
    // i-th vertex v, P = N(v) cap {later vertices}, X = N(v) cap
    // {earlier vertices}. Later/earlier filtering runs on the host
    // order array; the set operations run on the engine.
    parallelFor(ctx, n, [&](sim::ThreadId tid, std::uint64_t i) {
        const VertexId v = deg.order[i];
        std::vector<sets::Element> later, earlier;
        for (VertexId w : sg.graph().neighbors(v)) {
            (deg.rank[w] > deg.rank[v] ? later : earlier).push_back(w);
        }
        // Dynamic auxiliary sets: DBs per the Section 6.2.4 guidance.
        const core::SetId p = eng.create(
            ctx, tid, std::move(later), sets::SetRepr::DenseBitvector);
        const core::SetId x = eng.create(
            ctx, tid, std::move(earlier),
            sets::SetRepr::DenseBitvector);

        BkTask task{sg, eng, ctx, tid, result, on_clique, {v}};
        task.recurse(p, x);
    });
    eng.drainBatches(ctx, 0); // Retire the last thread's window.
    return result;
}

MaximalCliqueResult
maximalCliques(SetGraph &sg, sim::SimContext &ctx,
               const std::function<void(const std::vector<VertexId> &)>
                   &on_clique)
{
    return maximalCliques(sg, graph::exactDegeneracyOrder(sg.graph()),
                          ctx, on_clique);
}

} // namespace sisa::algorithms
