#include "algorithms/kclique.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace sisa::algorithms {

namespace {

/** Shared recursion for counting and listing. */
struct KcTask
{
    OrientedSetGraph &osg;
    SetEngine &eng;
    sim::SimContext &ctx;
    sim::ThreadId tid;
    std::uint32_t k;
    core::SisaOp variant;
    const CliqueCallback *onClique;
    std::vector<VertexId> stack;

    /**
     * count(i, C_i): C_i holds candidates completing an i-clique with
     * the vertices on `stack`. Owns and destroys @p c_i.
     */
    std::uint64_t
    count(std::uint32_t i, core::SetId c_i)
    {
        SetGraph &sg = *osg.sets;
        std::uint64_t found = 0;
        if (i == k) {
            if (onClique && *onClique) {
                for (sets::Element v : eng.elements(ctx, tid, c_i)) {
                    stack.push_back(v);
                    (*onClique)(tid, stack);
                    stack.pop_back();
                    found += 1;
                    if (!ctx.countPattern(tid))
                        break;
                }
            } else {
                found = eng.cardinality(ctx, tid, c_i);
                ctx.countPatterns(tid, found);
            }
            eng.destroy(ctx, tid, c_i);
            return found;
        }
        // C_{i+1} = N+(v) cap C_i for every candidate v: the
        // extensions of this level are independent, so issue them as
        // batched dispatches (the varying N+(v) routes each op to its
        // vault) and recurse on the results. Chunking bounds the
        // number of simultaneously materialized extension sets.
        constexpr std::size_t batch_chunk = 64;
        const std::vector<sets::Element> elems =
            eng.elements(ctx, tid, c_i);
        core::BatchRequest batch;
        for (std::size_t base = 0;
             base < elems.size() && !ctx.cutoffReached(tid);
             base += batch_chunk) {
            const std::size_t chunk_end =
                std::min(elems.size(), base + batch_chunk);
            batch.clear();
            batch.reserve(chunk_end - base);
            for (std::size_t idx = base; idx < chunk_end; ++idx)
                batch.intersect(sg.neighborhood(elems[idx]), c_i,
                                variant);
            const core::BatchResult res = eng.collectBatch(
                ctx, tid, eng.executeBatchAsync(ctx, tid, batch));
            for (std::size_t idx = base; idx < chunk_end; ++idx) {
                const core::SetId c_next =
                    res.entries[idx - base].set;
                if (ctx.cutoffReached(tid)) {
                    // Past the cutoff: drop the unused extensions.
                    eng.destroy(ctx, tid, c_next);
                    continue;
                }
                stack.push_back(elems[idx]);
                found += count(i + 1, c_next);
                stack.pop_back();
            }
        }
        eng.destroy(ctx, tid, c_i);
        return found;
    }
};

std::uint64_t
runKClique(OrientedSetGraph &osg, sim::SimContext &ctx, std::uint32_t k,
           core::SisaOp variant, const CliqueCallback *on_clique)
{
    sisa_assert(k >= 2, "kCliqueCount requires k >= 2");
    SetGraph &sg = *osg.sets;
    SetEngine &eng = sg.engine();
    const VertexId n = sg.numVertices();

    std::vector<std::uint64_t> partial(ctx.numThreads(), 0);
    parallelFor(ctx, n, [&](sim::ThreadId tid, std::uint64_t i) {
        const auto u = static_cast<VertexId>(i);
        // C_2 = N+(u); count u's neighboring k-cliques.
        const core::SetId c2 =
            eng.clone(ctx, tid, sg.neighborhood(u));
        KcTask task{osg, eng, ctx, tid, k, variant, on_clique, {u}};
        partial[tid] += task.count(2, c2);
    });
    eng.drainBatches(ctx, 0); // Retire the last thread's window.

    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total;
}

} // namespace

std::uint64_t
kCliqueCount(OrientedSetGraph &osg, sim::SimContext &ctx, std::uint32_t k,
             core::SisaOp variant)
{
    return runKClique(osg, ctx, k, variant, nullptr);
}

std::uint64_t
kCliqueList(OrientedSetGraph &osg, sim::SimContext &ctx, std::uint32_t k,
            const CliqueCallback &on_clique)
{
    return runKClique(osg, ctx, k, core::SisaOp::IntersectAuto,
                      &on_clique);
}

} // namespace sisa::algorithms
