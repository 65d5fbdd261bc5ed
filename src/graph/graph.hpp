/**
 * @file
 * Compressed-sparse-row graphs (Section 2 of the SISA paper). A Graph
 * models either an undirected graph G = (V, E) with both edge
 * directions materialized, or a directed graph (e.g., the degeneracy
 * orientation used by the k-clique algorithms) with out-edges only.
 * Neighborhoods are sorted, following the established practice the
 * paper builds its set representations on, and optional vertex/edge
 * labels support the labeled subgraph-isomorphism algorithms.
 */

#ifndef SISA_GRAPH_GRAPH_HPP
#define SISA_GRAPH_GRAPH_HPP

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace sisa::graph {

/** Vertices are modeled with integers V = {0, ..., n-1}. */
using VertexId = std::uint32_t;

/** Sentinel for "no vertex". */
inline constexpr VertexId invalid_vertex = static_cast<VertexId>(-1);

/** Label type for labeled graphs (Section 5.1.6). */
using Label = std::uint32_t;

/** An undirected edge as an unordered pair (stored u <= v). */
struct Edge
{
    VertexId u;
    VertexId v;

    friend bool operator==(const Edge &, const Edge &) = default;
};

/**
 * Immutable CSR graph. Build through GraphBuilder or the generators.
 */
class Graph
{
  public:
    Graph() = default;

    /** Number of vertices n. */
    VertexId numVertices() const { return numVertices_; }

    /** Number of (undirected) edges m, or arcs for a directed graph. */
    std::uint64_t numEdges() const { return numEdges_; }

    /** Whether this graph stores directed arcs (out-edges only). */
    bool directed() const { return directed_; }

    /** Sorted neighbors N(v), or out-neighbors N+(v) when directed. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {adj_.data() + offsets_[v],
                adj_.data() + offsets_[v + 1]};
    }

    /** Degree d(v) (out-degree when directed). */
    std::uint32_t
    degree(VertexId v) const
    {
        return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    }

    /** Maximum degree d over all vertices. */
    std::uint32_t maxDegree() const;

    /** O(log d(u)) membership test for the arc/edge (u, v). */
    bool hasEdge(VertexId u, VertexId v) const;

    /** Index into the CSR adjacency array for an arc, or -1. */
    std::int64_t edgeIndex(VertexId u, VertexId v) const;

    /** Byte offset of the offsets array (for the memory trace models). */
    const std::uint64_t *offsetsData() const { return offsets_.data(); }

    /** Raw adjacency storage (for the memory trace models). */
    const VertexId *adjData() const { return adj_.data(); }

    /** Whether vertex labels are attached. */
    bool hasVertexLabels() const { return !vertexLabels_.empty(); }

    /** Whether edge labels are attached. */
    bool hasEdgeLabels() const { return !edgeLabels_.empty(); }

    /** Label L(v); requires hasVertexLabels(). */
    Label vertexLabel(VertexId v) const { return vertexLabels_[v]; }

    /** Label L(u, v); requires hasEdgeLabels() and the edge to exist. */
    Label edgeLabel(VertexId u, VertexId v) const;

    /** Attach vertex labels (size must equal numVertices()). */
    void setVertexLabels(std::vector<Label> labels);

    /**
     * Attach a label to every edge, derived from @p fn(u, v); the
     * function must be symmetric for undirected graphs.
     */
    template <typename Fn>
    void
    setEdgeLabels(Fn &&fn)
    {
        edgeLabels_.resize(adj_.size());
        for (VertexId u = 0; u < numVertices_; ++u) {
            for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i)
                edgeLabels_[i] = fn(u, adj_[i]);
        }
    }

    /**
     * Orient an undirected graph by a total vertex order: keep arc
     * u -> v iff rank[u] < rank[v]. Used with the degeneracy order to
     * bound out-degrees by the degeneracy c (Section 7.1). Rows are
     * already sorted and duplicate-free, so each oriented row is its
     * row filtered in order, with no rebuild. Vertex labels carry
     * over, edge labels do not.
     *
     * @param rank rank[v] is the position of v in the order.
     */
    Graph orientByRank(const std::vector<std::uint32_t> &rank) const;

    /**
     * Edge-set union with @p other, a graph on the same vertices and
     * of the same directedness, merged one sorted row at a time.
     * Labels do not carry over.
     */
    Graph unionWith(const Graph &other) const;

    /** Induced subgraph on @p vertices (ids are re-numbered densely). */
    Graph inducedSubgraph(const std::vector<VertexId> &vertices) const;

    /** One-line human-readable description. */
    std::string describe() const;

  private:
    friend class GraphBuilder;

    VertexId numVertices_ = 0;
    std::uint64_t numEdges_ = 0;
    bool directed_ = false;
    std::vector<std::uint64_t> offsets_;
    std::vector<VertexId> adj_;
    std::vector<Label> vertexLabels_;
    std::vector<Label> edgeLabels_;
};

/**
 * Accumulates edges and materializes a CSR Graph. Duplicate edges and
 * self-loops are dropped; for undirected graphs both directions are
 * stored, so (u, v) and (v, u) are the same edge.
 */
class GraphBuilder
{
  public:
    /**
     * @param num_vertices Number of vertices (fixed up-front).
     * @param directed     Build a directed graph when true.
     */
    explicit GraphBuilder(VertexId num_vertices, bool directed = false);

    /** Queue one edge/arc; out-of-range endpoints are a fatal error. */
    void addEdge(VertexId u, VertexId v);

    /** Make room for @p edges queued edges, for callers that know. */
    void reserve(std::uint64_t edges) { edges_.reserve(edges); }

    /** Number of edges queued so far (before dedup). */
    std::uint64_t pendingEdges() const { return edges_.size(); }

    /**
     * Produce the CSR graph and empty the builder, in O(n + arcs)
     * with no comparison sort. Two counting-sort passes do the
     * ordering: the first buckets each arc's source by its target
     * (the transpose), the second walks the targets in increasing
     * order and appends each to its sources' rows, so every row comes
     * out sorted. Duplicates are then dropped in place. The queued
     * edges are freed between the passes, so at most the queue and
     * one arc-sized array are alive at once.
     */
    Graph build();

  private:
    VertexId numVertices_;
    bool directed_;
    std::vector<std::pair<VertexId, VertexId>> edges_;
};

} // namespace sisa::graph

#endif // SISA_GRAPH_GRAPH_HPP
