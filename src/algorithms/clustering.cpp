#include "algorithms/clustering.hpp"

#include <numeric>

#include "support/logging.hpp"

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
    // Edge similarities from the common-neighbor cardinality (plus
    // O(1) degree lookups) batch cleanly; the weighted measures
    // (Adamic-Adar, resource allocation) would materialize the common
    // set per edge, and no clustering problem uses them.
    if (!similarityBatchable(measure)) {
        sisa_fatal("jarvisPatrick: similarity measure '",
                   measureName(measure),
                   "' does not batch (use jac, ovr, cn or tot)");
    }
    const VertexId n = sg.numVertices();
    // The [in par] edge loop runs over the edges u < v.
    const graph::UpperEdges edges(sg.graph());

    ClusteringResult result;
    UnionFind clusters(n);

    constexpr std::uint64_t chunk = 256;
    SetEngine &eng = sg.engine();
    core::BatchRequest batch;
    parallelForChunks(ctx, edges.size(), chunk, [&](
                          sim::ThreadId tid, std::uint64_t start,
                          std::uint64_t end) {
        batch.clear();
        batch.reserve(end - start);
        graph::UpperEdges::Walk walk = edges.walkFrom(start);
        for (std::uint64_t i = start; i < end; ++i) {
            const graph::Edge e = walk.next();
            appendSimilarityOp(sg, batch, e.u, e.v, measure);
        }
        const core::BatchResult res = eng.executeBatch(ctx, tid, batch);
        walk = edges.walkFrom(start);
        for (std::uint64_t i = start; i < end; ++i) {
            if (ctx.cutoffReached(tid))
                break;
            const graph::Edge e = walk.next();
            if (similarityFromCard(sg, ctx, tid, e.u, e.v, measure,
                                   res.entries[i - start].value) > tau) {
                // C = C cup {e}.
                ++result.clusterEdges;
                clusters.unite(e.u, e.v);
                ctx.countPattern(tid);
            }
        }
    });

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
