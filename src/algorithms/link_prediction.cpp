#include "algorithms/link_prediction.hpp"

#include <algorithm>
#include <limits>

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace sisa::algorithms {

namespace {

/** Edge id for set operations over edges: u * n + v with u < v. */
std::uint64_t
edgeId(VertexId u, VertexId v, VertexId n)
{
    if (u > v)
        std::swap(u, v);
    return static_cast<std::uint64_t>(u) * n + v;
}

} // namespace

LinkPredictionResult
linkPredictionTest(SetEngine &engine, const Graph &graph,
                   sim::SimContext &ctx, SimilarityMeasure measure,
                   double remove_ratio, std::uint64_t seed)
{
    sisa_assert(remove_ratio > 0.0 && remove_ratio < 1.0,
                "remove_ratio must lie in (0, 1)");
    const VertexId n = graph.numVertices();
    // Edge ids u * n + v are stored in 32-bit sparse arrays; the
    // accuracy test targets the small/medium suites.
    sisa_assert(static_cast<std::uint64_t>(n) * n <=
                    std::numeric_limits<sets::Element>::max(),
                "graph too large for edge-id set encoding");

    // E as an edge list (u < v).
    std::vector<std::pair<VertexId, VertexId>> all_edges;
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v : graph.neighbors(u)) {
            if (u < v)
                all_edges.emplace_back(u, v);
        }
    }

    // E_rndm: random subset of E (deterministic Fisher-Yates prefix).
    support::Xoshiro256 rng(seed);
    const auto remove_count = static_cast<std::uint64_t>(
        remove_ratio * static_cast<double>(all_edges.size()));
    for (std::uint64_t i = 0; i < remove_count; ++i) {
        const std::uint64_t j =
            i + rng.nextBounded(all_edges.size() - i);
        std::swap(all_edges[i], all_edges[j]);
    }

    // E_sparse = E setminus E_rndm.
    graph::GraphBuilder builder(n);
    for (std::uint64_t i = remove_count; i < all_edges.size(); ++i)
        builder.addEdge(all_edges[i].first, all_edges[i].second);
    const Graph sparse = builder.build();
    SetGraph sparse_sets(sparse, engine);

    // Score candidates: distance-2 non-adjacent pairs in E_sparse.
    struct Scored
    {
        double score;
        VertexId u, v;
    };
    std::vector<Scored> scored;
    std::vector<std::pair<VertexId, VertexId>> candidates;
    {
        std::vector<bool> seen(n, false);
        for (VertexId u = 0; u < n; ++u) {
            std::vector<VertexId> two_hop;
            for (VertexId w : sparse.neighbors(u)) {
                for (VertexId v : sparse.neighbors(w)) {
                    if (v > u && !sparse.hasEdge(u, v) && !seen[v]) {
                        seen[v] = true;
                        two_hop.push_back(v);
                    }
                }
            }
            for (VertexId v : two_hop) {
                seen[v] = false;
                candidates.emplace_back(u, v);
            }
        }
    }
    scored.resize(candidates.size());
    if (similarityBatchable(measure)) {
        // One executeBatch per candidate chunk: every pair's fused
        // cardinality rides a single dispatch across the vaults
        // (scores are identical to the serial path -- only the cycle
        // model differs).
        constexpr std::uint64_t chunk = 256;
        core::BatchRequest batch;
        parallelForChunks(ctx, candidates.size(), chunk, [&](
                              sim::ThreadId tid, std::uint64_t start,
                              std::uint64_t end) {
            batch.clear();
            batch.reserve(end - start);
            for (std::uint64_t i = start; i < end; ++i) {
                const auto [u, v] = candidates[i];
                appendSimilarityOp(sparse_sets, batch, u, v, measure);
            }
            const core::BatchResult res =
                engine.executeBatch(ctx, tid, batch);
            for (std::uint64_t i = start; i < end; ++i) {
                const auto [u, v] = candidates[i];
                scored[i] = {similarityFromCard(
                                 sparse_sets, ctx, tid, u, v, measure,
                                 res.entries[i - start].value),
                             u, v};
            }
        });
    } else {
        parallelFor(ctx, candidates.size(), [&](sim::ThreadId tid,
                                                std::uint64_t i) {
            const auto [u, v] = candidates[i];
            scored[i] = {vertexSimilarity(sparse_sets, ctx, tid, u, v,
                                          measure),
                         u, v};
        });
    }

    // E_predict: the |E_rndm| highest-scored candidates.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored &a, const Scored &b) {
                         return a.score > b.score;
                     });
    const std::uint64_t predict_count =
        std::min<std::uint64_t>(remove_count, scored.size());

    // eff = |E_predict cap E_rndm| as a SISA set intersection over
    // edge ids (sorted sparse arrays).
    std::vector<sets::Element> predicted, removed;
    for (std::uint64_t i = 0; i < predict_count; ++i) {
        predicted.push_back(static_cast<sets::Element>(
            edgeId(scored[i].u, scored[i].v, n)));
    }
    for (std::uint64_t i = 0; i < remove_count; ++i) {
        removed.push_back(static_cast<sets::Element>(
            edgeId(all_edges[i].first, all_edges[i].second, n)));
    }
    std::sort(predicted.begin(), predicted.end());
    std::sort(removed.begin(), removed.end());

    const core::SetId p_set = engine.create(
        ctx, 0, std::move(predicted), sets::SetRepr::SparseArray);
    const core::SetId r_set = engine.create(
        ctx, 0, std::move(removed), sets::SetRepr::SparseArray);

    LinkPredictionResult result;
    result.removedEdges = remove_count;
    result.predictedEdges = predict_count;
    result.correct = engine.intersectCard(ctx, 0, p_set, r_set);
    engine.destroy(ctx, 0, p_set);
    engine.destroy(ctx, 0, r_set);
    return result;
}

} // namespace sisa::algorithms
