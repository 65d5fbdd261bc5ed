#include "graph/degeneracy.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace sisa::graph {

DegeneracyResult
exactDegeneracyOrder(const Graph &graph)
{
    const VertexId n = graph.numVertices();
    DegeneracyResult result;
    result.order.reserve(n);
    result.rank.assign(n, 0);

    // Bucket queue over current degrees (Matula-Beck smallest-last).
    std::vector<std::uint32_t> degree(n);
    std::uint32_t max_degree = 0;
    for (VertexId v = 0; v < n; ++v) {
        degree[v] = graph.degree(v);
        max_degree = std::max(max_degree, degree[v]);
    }

    std::vector<std::vector<VertexId>> buckets(max_degree + 1);
    for (VertexId v = 0; v < n; ++v)
        buckets[degree[v]].push_back(v);

    std::vector<bool> removed(n, false);
    std::uint32_t current_core = 0;
    std::uint32_t cursor = 0; // Lowest possibly non-empty bucket.

    for (VertexId peeled = 0; peeled < n; ++peeled) {
        while (cursor <= max_degree && buckets[cursor].empty())
            ++cursor;
        sisa_assert(cursor <= max_degree, "bucket queue underflow");

        // Lazy deletion: entries may be stale after degree decrements.
        VertexId v = invalid_vertex;
        while (!buckets[cursor].empty()) {
            VertexId cand = buckets[cursor].back();
            buckets[cursor].pop_back();
            if (!removed[cand] && degree[cand] == cursor) {
                v = cand;
                break;
            }
        }
        if (v == invalid_vertex) {
            --peeled;
            continue;
        }

        current_core = std::max(current_core, cursor);
        result.rank[v] = static_cast<std::uint32_t>(result.order.size());
        result.order.push_back(v);
        removed[v] = true;

        for (VertexId w : graph.neighbors(v)) {
            if (removed[w])
                continue;
            --degree[w];
            buckets[degree[w]].push_back(w);
            if (degree[w] < cursor)
                cursor = degree[w];
        }
    }

    result.degeneracy = current_core;
    return result;
}

} // namespace sisa::graph
