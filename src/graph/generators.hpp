/**
 * @file
 * Deterministic graph generators. These provide (1) the Kronecker /
 * RMAT graphs the paper uses for its strong/weak-scaling study
 * (Section 9.2, "Scalability"), and (2) the building blocks the
 * dataset registry combines to synthesize structural analogues of the
 * Network Repository datasets in Table 7 (see DESIGN.md,
 * Substitution 2): Chung-Lu power-law graphs with controllable tail
 * weight plus planted dense communities that mimic the large cliques
 * of genome-style graphs.
 */

#ifndef SISA_GRAPH_GENERATORS_HPP
#define SISA_GRAPH_GENERATORS_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sisa::graph {

/**
 * G(n, m) Erdos-Renyi: m distinct uniform edges. An m above
 * n(n-1)/2 is fatal.
 */
Graph erdosRenyi(VertexId n, std::uint64_t m, std::uint64_t seed);

/** Complete graph K_n. */
Graph complete(VertexId n);

/** Star: vertex 0 connected to all others (degeneracy 1, d = n-1). */
Graph star(VertexId n);

/** Simple path 0-1-...-(n-1). */
Graph path(VertexId n);

/** Simple cycle. */
Graph cycle(VertexId n);

/** Parameters for the RMAT/Kronecker generator. */
struct RmatParams
{
    std::uint32_t scale = 10;      ///< n = 2^scale vertices.
    std::uint32_t edgeFactor = 16; ///< m = edgeFactor * n edges.
    double a = 0.57;               ///< Graph500 defaults.
    double b = 0.19;
    double c = 0.19;
};

/** RMAT (Kronecker) graph, Graph500-style recursive quadrant splits. */
Graph rmat(const RmatParams &params, std::uint64_t seed);

/** Parameters for the Chung-Lu expected-degree generator. */
struct ChungLuParams
{
    VertexId n = 1000;
    std::uint64_t m = 10000;
    /** Power-law exponent of the weight sequence (smaller = heavier). */
    double exponent = 2.5;
    /**
     * Number of hub vertices whose weight is boosted so their expected
     * degree approaches hubDegreeFraction * n (mimics Fig. 7a's
     * genome graphs where vertices connect to >30% of all vertices).
     */
    VertexId hubs = 0;
    double hubDegreeFraction = 0.3;
    /**
     * Cap on any vertex's expected degree as a fraction of n
     * (<= 0 disables). Light-tailed analogues (soc-orkut, sc-pwtk)
     * use a small cap so no vertex grows a hub neighborhood.
     */
    double maxDegreeFraction = 0.0;
};

/**
 * Chung-Lu power-law graph: endpoints of each edge are drawn with
 * probability proportional to per-vertex weights w_v ~ v^{-1/(exp-1)}
 * until m distinct edges exist (or 30m + 1000 draws are spent). Drawn
 * edges are deduplicated in a flat open-addressing set of packed
 * (u, v) keys, probed in prefetched batches of 16 draws that stop on
 * exactly the draw a one-at-a-time loop would; the set is freed
 * before the CSR is built. An m above n(n-1)/2 is fatal.
 */
Graph chungLu(const ChungLuParams &params, std::uint64_t seed);

/** Parameters for planted dense communities. */
struct PlantedCliqueParams
{
    std::uint32_t count = 0;     ///< Number of planted groups.
    std::uint32_t minSize = 4;   ///< Smallest group.
    std::uint32_t maxSize = 12;  ///< Largest group.
    double density = 1.0;        ///< 1.0 = true cliques.
};

/**
 * Overlay dense vertex groups on the undirected @p base: each group
 * is a uniformly random vertex subset wired into an (almost-)clique.
 * Models the dense clusters of biological/brain networks (Section
 * 9.2). Only the group edges are built into a graph, which is then
 * merged into @p base row by row (Graph::unionWith); labels do not
 * carry over. A maxSize above the vertex count is fatal.
 */
Graph plantCliques(const Graph &base, const PlantedCliqueParams &params,
                   std::uint64_t seed);

/** Uniform random vertex labels in [0, num_labels). */
std::vector<Label> randomVertexLabels(VertexId n, std::uint32_t num_labels,
                                      std::uint64_t seed);

} // namespace sisa::graph

#endif // SISA_GRAPH_GENERATORS_HPP
