/**
 * @file
 * Shared plumbing for the set-centric algorithm implementations: the
 * degeneracy-oriented SetGraph bundle most pattern-matching kernels
 * start from (Sections 5.1.3, 5.4, 7.1), and the simulated-parallel
 * loop helper that partitions work across logical threads.
 */

#ifndef SISA_ALGORITHMS_COMMON_HPP
#define SISA_ALGORITHMS_COMMON_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/set_engine.hpp"
#include "core/set_graph.hpp"
#include "graph/degeneracy.hpp"
#include "graph/graph.hpp"
#include "support/logging.hpp"

namespace sisa::algorithms {

using core::SetEngine;
using core::SetGraph;
using graph::Graph;
using graph::VertexId;

/**
 * The graph-only half of the oriented preprocessing: an exact
 * degeneracy order of an undirected graph and the graph oriented by
 * it. Both depend on the graph alone, so one instance can back the
 * OrientedSetGraphs of any number of engines, read-only.
 */
struct DegeneracyOrientation
{
    std::shared_ptr<const graph::DegeneracyResult> degeneracy;
    std::shared_ptr<const Graph> oriented; ///< Arcs follow the order.
};

/** Compute @p graph's exact degeneracy order and orient it by it. */
inline DegeneracyOrientation
orientByDegeneracy(const Graph &graph)
{
    auto degeneracy = std::make_shared<const graph::DegeneracyResult>(
        graph::exactDegeneracyOrder(graph));
    auto oriented =
        std::make_shared<const Graph>(graph.orientByRank(degeneracy->rank));
    return {std::move(degeneracy), std::move(oriented)};
}

/**
 * A graph oriented by its degeneracy ordering together with the
 * SetGraph over the out-neighborhoods -- the common preprocessing of
 * the k-clique family (Algorithm 3, Table 4) and triangle counting.
 * The order and the oriented graph are shared read-only; the sets
 * live in the engine they were built in, or in the shared base of a
 * view's engine.
 */
struct OrientedSetGraph
{
    const Graph *original; ///< The undirected input graph.
    std::shared_ptr<const graph::DegeneracyResult> degeneracy;
    std::shared_ptr<const Graph> oriented; ///< Arcs follow the order.
    std::unique_ptr<SetGraph> sets;        ///< N+(v) as SISA sets.

    /** Over @p prep, a precomputed orientation of @p graph. */
    OrientedSetGraph(const Graph &graph, DegeneracyOrientation prep,
                     SetEngine &engine,
                     const sets::ReprPolicy &policy = {})
        : original(&graph), degeneracy(std::move(prep.degeneracy)),
          oriented(std::move(prep.oriented)),
          sets(std::make_unique<SetGraph>(*oriented, engine, policy))
    {
        sisa_assert(degeneracy->rank.size() == graph.numVertices() &&
                        oriented->numVertices() == graph.numVertices(),
                    "OrientedSetGraph: orientation of another graph");
    }

    OrientedSetGraph(const Graph &graph, SetEngine &engine,
                     const sets::ReprPolicy &policy = {})
        : OrientedSetGraph(graph, orientByDegeneracy(graph), engine,
                           policy)
    {
    }

    /**
     * A view of @p built's sets through @p engine, whose store has
     * @p built's store as its shared base (SetGraph's view
     * constructor, which rejects any other engine).
     */
    OrientedSetGraph(const OrientedSetGraph &built, SetEngine &engine)
        : original(built.original), degeneracy(built.degeneracy),
          oriented(built.oriented),
          sets(std::make_unique<SetGraph>(*built.sets, engine))
    {
    }
};

/**
 * Simulated parallel-for: statically partitions [0, total) into
 * contiguous blocks, one per logical thread, and runs them
 * sequentially while each charges its own thread's cycle counters.
 * `fn(tid, i)` must charge all its costs to `tid`.
 */
template <typename Fn>
void
parallelFor(sim::SimContext &ctx, std::uint64_t total, Fn &&fn)
{
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(total, ctx.numThreads(), tid);
        for (std::uint64_t i = range.begin; i != range.end; ++i) {
            if (ctx.cutoffReached(tid))
                break;
            fn(tid, i);
        }
    }
}

/**
 * Chunked variant of parallelFor for batched dispatch: each logical
 * thread walks its contiguous block in sub-ranges of at most
 * @p chunk indices, calling `fn(tid, begin, end)` per sub-range
 * (cutoffs are checked between chunks; `fn` handles finer grain).
 */
template <typename Fn>
void
parallelForChunks(sim::SimContext &ctx, std::uint64_t total,
                  std::uint64_t chunk, Fn &&fn)
{
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(total, ctx.numThreads(), tid);
        for (std::uint64_t begin = range.begin;
             begin < range.end && !ctx.cutoffReached(tid);
             begin += chunk) {
            fn(tid, begin, std::min(range.end, begin + chunk));
        }
    }
}

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_COMMON_HPP
