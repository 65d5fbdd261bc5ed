#include "graph/graph.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "support/logging.hpp"

namespace sisa::graph {

namespace {

/** Free @p v's storage now (clear() alone keeps the capacity). */
template <typename Vector>
void
release(Vector &v)
{
    Vector().swap(v);
}

} // namespace

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

    // Rows are sorted and duplicate-free, so filtering each one in
    // order yields the oriented rows. Every edge keeps at most one
    // direction, so m arcs bound the output (exactly, without ties).
    Graph oriented;
    oriented.numVertices_ = numVertices_;
    oriented.directed_ = true;
    oriented.offsets_.assign(numVertices_ + 1, 0);
    oriented.adj_.reserve(numEdges_);
    for (VertexId u = 0; u < numVertices_; ++u) {
        for (VertexId v : neighbors(u)) {
            if (rank[u] < rank[v])
                oriented.adj_.push_back(v);
        }
        oriented.offsets_[u + 1] = oriented.adj_.size();
    }
    oriented.numEdges_ = oriented.adj_.size();
    oriented.vertexLabels_ = vertexLabels_;
    return oriented;
}

Graph
Graph::unionWith(const Graph &other) const
{
    sisa_assert(numVertices_ == other.numVertices_ &&
                    directed_ == other.directed_,
                "unionWith expects graphs of the same shape");

    // A sorted union per row; the two arc counts bound the output.
    Graph merged;
    merged.numVertices_ = numVertices_;
    merged.directed_ = directed_;
    merged.offsets_.assign(numVertices_ + 1, 0);
    merged.adj_.reserve(adj_.size() + other.adj_.size());
    for (VertexId u = 0; u < numVertices_; ++u) {
        const auto mine = neighbors(u);
        const auto theirs = other.neighbors(u);
        std::set_union(mine.begin(), mine.end(), theirs.begin(),
                       theirs.end(), std::back_inserter(merged.adj_));
        merged.offsets_[u + 1] = merged.adj_.size();
    }
    merged.numEdges_ =
        directed_ ? merged.adj_.size() : merged.adj_.size() / 2;
    return merged;
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

    // Count every arc (an undirected edge is an arc each way) into
    // its source's row, offsets[u + 1], and its target's bucket,
    // bucket[v]; then prefix-sum the rows into starts and the
    // buckets into ends.
    const VertexId n = numVertices_;
    offsets.assign(n + 1, 0);
    std::vector<std::uint64_t> bucket(n + 1, 0);
    for (auto [u, v] : edges_) {
        ++offsets[u + 1];
        ++bucket[v];
        if (!directed_) {
            ++offsets[v + 1];
            ++bucket[u];
        }
    }
    for (VertexId v = 0; v < n; ++v) {
        offsets[v + 1] += offsets[v];
        bucket[v + 1] += bucket[v];
    }

    // Pass 1 buckets each arc's source by its target (the transpose),
    // moving bucket[v] down from the end of bucket v to its start.
    std::vector<VertexId> sources(offsets[n]);
    for (auto [u, v] : edges_) {
        sources[--bucket[v]] = u;
        if (!directed_)
            sources[--bucket[u]] = v;
    }
    release(edges_);

    // Pass 2 walks the targets in increasing order and appends each
    // to its sources' rows, so every row comes out sorted. It
    // advances offsets[u] from the start of row u to its end.
    adj.resize(offsets[n]);
    for (VertexId v = 0; v < n; ++v) {
        for (std::uint64_t i = bucket[v]; i < bucket[v + 1]; ++i)
            adj[offsets[sources[i]]++] = v;
    }
    release(sources);
    release(bucket);

    // Deduplicate each sorted row in place, compacting the kept arcs
    // towards the front; offsets[v] then becomes row v's start.
    std::uint64_t kept = 0;
    std::uint64_t row_begin = 0;
    for (VertexId v = 0; v < n; ++v) {
        VertexId *first = adj.data() + row_begin;
        VertexId *last = std::unique(first, adj.data() + offsets[v]);
        if (kept != row_begin)
            std::copy(first, last, adj.data() + kept);
        row_begin = offsets[v];
        offsets[v] = kept;
        kept += static_cast<std::uint64_t>(last - first);
    }
    offsets[n] = kept;
    adj.resize(kept);
    adj.shrink_to_fit();
    graph.numEdges_ = directed_ ? kept : kept / 2;
    return graph;
}

} // namespace sisa::graph
