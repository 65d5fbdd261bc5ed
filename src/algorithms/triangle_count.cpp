#include "algorithms/triangle_count.hpp"

namespace sisa::algorithms {

std::uint64_t
triangleCount(OrientedSetGraph &osg, sim::SimContext &ctx,
              core::SisaOp variant)
{
    SetGraph &sg = *osg.sets;
    SetEngine &eng = sg.engine();
    const VertexId n = sg.numVertices();

    std::vector<std::uint64_t> partial(ctx.numThreads(), 0);
    core::BatchRequest batch;
    parallelFor(ctx, n, [&](sim::ThreadId tid, std::uint64_t i) {
        const auto v = static_cast<VertexId>(i);
        const auto &nbrs = osg.oriented->neighbors(v);
        if (nbrs.empty())
            return;
        // One dispatch per neighborhood: |N+(v) cap N+(w)| for every
        // out-neighbor w at once. The variant knob only matters for
        // SA-SA pairs; the engine handles DB operands itself. N+(w)
        // is the primary (vault-routing) operand: it varies across
        // the batch, so the ops spread over vaults, while the
        // loop-invariant N+(v) would pin them all to one.
        batch.clear();
        batch.reserve(nbrs.size());
        for (VertexId w : nbrs) {
            batch.intersectCard(sg.neighborhood(w), sg.neighborhood(v),
                                variant);
        }
        // Async issue at the same program point as the barriered
        // dispatch: results forward immediately (the front end is
        // in-order), while the batch's makespan retires lazily so
        // successive neighborhoods overlap in modeled time.
        const core::BatchResult res = eng.collectBatch(
            ctx, tid, eng.executeBatchAsync(ctx, tid, batch));
        for (const core::BatchEntry &entry : res.entries) {
            const std::uint64_t found = entry.value;
            partial[tid] += found;
            if (!ctx.countPatterns(tid, found))
                break;
        }
    });
    eng.drainBatches(ctx, 0); // Retire the last thread's window.

    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total;
}

std::uint64_t
triangleCountNodeIterator(SetGraph &sg, sim::SimContext &ctx)
{
    SetEngine &eng = sg.engine();
    const VertexId n = sg.numVertices();

    std::vector<std::uint64_t> partial(ctx.numThreads(), 0);
    core::BatchRequest batch;
    parallelFor(ctx, n, [&](sim::ThreadId tid, std::uint64_t i) {
        const auto v = static_cast<VertexId>(i);
        const auto &nbrs = sg.graph().neighbors(v);
        if (nbrs.empty())
            return;
        batch.clear();
        batch.reserve(nbrs.size());
        // The varying neighborhood routes the op to its vault.
        for (VertexId w : nbrs)
            batch.intersectCard(sg.neighborhood(w), sg.neighborhood(v));
        const core::BatchResult res = eng.collectBatch(
            ctx, tid, eng.executeBatchAsync(ctx, tid, batch));
        for (const core::BatchEntry &entry : res.entries)
            partial[tid] += entry.value;
    });
    eng.drainBatches(ctx, 0); // Retire the last thread's window.

    std::uint64_t total = 0;
    for (std::uint64_t p : partial)
        total += p;
    return total / 6;
}

} // namespace sisa::algorithms
