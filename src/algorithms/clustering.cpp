#include "algorithms/clustering.hpp"

#include <algorithm>
#include <numeric>

namespace sisa::algorithms {

namespace {

/** Union-find over vertex ids for the cluster-count summary. */
class UnionFind
{
  public:
    explicit UnionFind(std::uint32_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    std::uint32_t
    find(std::uint32_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(std::uint32_t a, std::uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[a] = b;
    }

  private:
    std::vector<std::uint32_t> parent_;
};

} // namespace

ClusteringResult
jarvisPatrick(SetGraph &sg, sim::SimContext &ctx,
              SimilarityMeasure measure, double tau)
{
    const VertexId n = sg.numVertices();
    const graph::Graph &graph = sg.graph();

    // Edge list (u < v) for the [in par] edge loop.
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(graph.numEdges());
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v : graph.neighbors(u)) {
            if (u < v)
                edges.emplace_back(u, v);
        }
    }

    ClusteringResult result;
    UnionFind clusters(n);

    // Edge similarities from the common-neighbor cardinality (plus
    // O(1) degree lookups) batch cleanly; the weighted measures
    // (Adamic-Adar, resource allocation) materialize the common set
    // and stay on the serial path.
    const bool batchable = similarityBatchable(measure);
    constexpr std::uint64_t chunk = 256;

    const auto acceptEdge = [&](sim::ThreadId tid, VertexId u,
                                VertexId v, double similarity) {
        if (similarity > tau) {
            // C = C cup {e}.
            ++result.clusterEdges;
            clusters.unite(u, v);
            ctx.countPattern(tid);
        }
    };

    if (!batchable) {
        parallelFor(ctx, edges.size(), [&](sim::ThreadId tid,
                                           std::uint64_t i) {
            const auto [u, v] = edges[i];
            acceptEdge(tid, u, v,
                       vertexSimilarity(sg, ctx, tid, u, v, measure));
        });
    } else {
        SetEngine &eng = sg.engine();
        core::BatchRequest batch;
        parallelForChunks(ctx, edges.size(), chunk, [&](
                              sim::ThreadId tid, std::uint64_t start,
                              std::uint64_t end) {
            batch.clear();
            batch.reserve(end - start);
            for (std::uint64_t i = start; i < end; ++i) {
                const auto [u, v] = edges[i];
                appendSimilarityOp(sg, batch, u, v, measure);
            }
            const core::BatchResult res =
                eng.executeBatch(ctx, tid, batch);
            for (std::uint64_t i = start; i < end; ++i) {
                if (ctx.cutoffReached(tid))
                    break;
                const auto [u, v] = edges[i];
                acceptEdge(tid, u, v,
                           similarityFromCard(
                               sg, ctx, tid, u, v, measure,
                               res.entries[i - start].value));
            }
        });
    }

    // Summarize: non-singleton components of C are the clusters.
    std::vector<std::uint32_t> size(n, 0);
    for (VertexId v = 0; v < n; ++v)
        ++size[clusters.find(v)];
    for (VertexId v = 0; v < n; ++v) {
        if (clusters.find(v) == v && size[v] > 1)
            ++result.clusterCount;
    }
    return result;
}

} // namespace sisa::algorithms
