#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/logging.hpp"

namespace sisa::graph {

std::uint32_t
Graph::maxDegree() const
{
    std::uint32_t max_deg = 0;
    for (VertexId v = 0; v < numVertices_; ++v)
        max_deg = std::max(max_deg, degree(v));
    return max_deg;
}

bool
Graph::hasEdge(VertexId u, VertexId v) const
{
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::int64_t
Graph::edgeIndex(VertexId u, VertexId v) const
{
    const auto nbrs = neighbors(u);
    auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v)
        return -1;
    return static_cast<std::int64_t>(
        offsets_[u] + static_cast<std::size_t>(it - nbrs.begin()));
}

Label
Graph::edgeLabel(VertexId u, VertexId v) const
{
    const std::int64_t idx = edgeIndex(u, v);
    sisa_assert(idx >= 0, "edgeLabel on a non-edge (", u, ",", v, ")");
    return edgeLabels_[static_cast<std::size_t>(idx)];
}

void
Graph::setVertexLabels(std::vector<Label> labels)
{
    sisa_assert(labels.size() == numVertices_,
                "label vector size must equal the vertex count");
    vertexLabels_ = std::move(labels);
}

Graph
Graph::orientByRank(const std::vector<std::uint32_t> &rank) const
{
    sisa_assert(!directed_, "orientByRank expects an undirected graph");
    sisa_assert(rank.size() == numVertices_, "rank size mismatch");

    GraphBuilder builder(numVertices_, /*directed=*/true);
    for (VertexId u = 0; u < numVertices_; ++u) {
        for (VertexId v : neighbors(u)) {
            if (rank[u] < rank[v])
                builder.addEdge(u, v);
        }
    }
    Graph oriented = builder.build();
    if (hasVertexLabels())
        oriented.vertexLabels_ = vertexLabels_;
    return oriented;
}

Graph
Graph::inducedSubgraph(const std::vector<VertexId> &vertices) const
{
    std::vector<VertexId> remap(numVertices_, invalid_vertex);
    for (std::size_t i = 0; i < vertices.size(); ++i)
        remap[vertices[i]] = static_cast<VertexId>(i);

    GraphBuilder builder(static_cast<VertexId>(vertices.size()), directed_);
    for (VertexId u : vertices) {
        for (VertexId v : neighbors(u)) {
            if (remap[v] == invalid_vertex)
                continue;
            // For undirected graphs each edge appears twice in the CSR;
            // only emit it once (the builder re-mirrors it).
            if (!directed_ && remap[u] > remap[v])
                continue;
            builder.addEdge(remap[u], remap[v]);
        }
    }
    Graph sub = builder.build();
    if (hasVertexLabels()) {
        std::vector<Label> labels(vertices.size());
        for (std::size_t i = 0; i < vertices.size(); ++i)
            labels[i] = vertexLabels_[vertices[i]];
        sub.setVertexLabels(std::move(labels));
    }
    return sub;
}

std::uint64_t
Graph::degreeSquareSum() const
{
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < numVertices_; ++v) {
        const std::uint64_t d = degree(v);
        sum += d * d;
    }
    return sum;
}

std::string
Graph::describe() const
{
    std::ostringstream oss;
    oss << (directed_ ? "directed" : "undirected") << " graph: n="
        << numVertices_ << " m=" << numEdges_ << " dmax=" << maxDegree();
    return oss.str();
}

GraphBuilder::GraphBuilder(VertexId num_vertices, bool directed)
    : numVertices_(num_vertices), directed_(directed)
{
}

void
GraphBuilder::addEdge(VertexId u, VertexId v)
{
    if (u >= numVertices_ || v >= numVertices_)
        sisa_fatal("edge (", u, ",", v, ") out of range, n=", numVertices_);
    if (u == v)
        return; // Self-loops carry no information for mining kernels.
    edges_.emplace_back(u, v);
}

Graph
GraphBuilder::build()
{
    Graph graph;
    graph.numVertices_ = numVertices_;
    graph.directed_ = directed_;
    auto &offsets = graph.offsets_;
    auto &adj = graph.adj_;

    // Counting sort by source: count each row's arcs (an undirected
    // edge is an arc in both rows), prefix-sum the counts into row
    // starts, then scatter the targets. The scatter advances
    // offsets[u] from the start of row u to its end.
    offsets.assign(numVertices_ + 1, 0);
    for (auto [u, v] : edges_) {
        ++offsets[u + 1];
        if (!directed_)
            ++offsets[v + 1];
    }
    for (VertexId v = 0; v < numVertices_; ++v)
        offsets[v + 1] += offsets[v];
    adj.resize(offsets[numVertices_]);
    for (auto [u, v] : edges_) {
        adj[offsets[u]++] = v;
        if (!directed_)
            adj[offsets[v]++] = u;
    }
    edges_.clear();

    // Sort and deduplicate each row in place, compacting the kept
    // arcs towards the front; offsets[v] then becomes row v's start.
    std::uint64_t kept = 0;
    std::uint64_t row_begin = 0;
    for (VertexId v = 0; v < numVertices_; ++v) {
        VertexId *first = adj.data() + row_begin;
        VertexId *last = adj.data() + offsets[v];
        std::sort(first, last);
        last = std::unique(first, last);
        if (kept != row_begin)
            std::copy(first, last, adj.data() + kept);
        row_begin = offsets[v];
        offsets[v] = kept;
        kept += static_cast<std::uint64_t>(last - first);
    }
    offsets[numVertices_] = kept;
    adj.resize(kept);
    adj.shrink_to_fit();
    graph.numEdges_ = directed_ ? kept : kept / 2;
    return graph;
}

} // namespace sisa::graph
