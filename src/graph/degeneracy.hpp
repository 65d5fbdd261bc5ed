/**
 * @file
 * Degeneracy ordering (Sections 5.1.5 and 7.1 of the SISA paper): the
 * classic Matula-Beck peeling, used to orient graphs so out-degrees
 * are bounded by the degeneracy c.
 */

#ifndef SISA_GRAPH_DEGENERACY_HPP
#define SISA_GRAPH_DEGENERACY_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sisa::graph {

/** Result of a degeneracy-ordering computation. */
struct DegeneracyResult
{
    /** Vertices in peeling order (eta). */
    std::vector<VertexId> order;
    /** rank[v] = position of v in `order`. */
    std::vector<std::uint32_t> rank;
    /** The graph degeneracy c. */
    std::uint32_t degeneracy = 0;
};

/**
 * Exact degeneracy ordering by repeated minimum-degree peeling with a
 * bucket queue; O(n + m) time.
 */
DegeneracyResult exactDegeneracyOrder(const Graph &graph);

} // namespace sisa::graph

#endif // SISA_GRAPH_DEGENERACY_HPP
