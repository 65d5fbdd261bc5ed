/**
 * @file
 * Set-centric k-clique counting/listing (Section 5.1.3, Algorithm 3).
 * The graph is oriented by the degeneracy order, so each candidate set
 * C_i is an intersection of out-neighborhoods of size <= c, giving the
 * Section 7 bound O(k m (c/2)^{k-2}) with merging intersections.
 */

#ifndef SISA_ALGORITHMS_KCLIQUE_HPP
#define SISA_ALGORITHMS_KCLIQUE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "algorithms/common.hpp"

namespace sisa::algorithms {

/**
 * Count k-cliques (k >= 3) over a degeneracy-oriented SetGraph.
 *
 * @param variant Force merge/galloping intersections or IntersectAuto.
 */
std::uint64_t kCliqueCount(OrientedSetGraph &osg, sim::SimContext &ctx,
                           std::uint32_t k,
                           core::SisaOp variant =
                               core::SisaOp::IntersectAuto);

/**
 * List k-cliques, invoking @p on_clique with each clique's vertices
 * (in degeneracy-orientation order). Used by k-clique-star listing.
 */
using CliqueCallback =
    std::function<void(sim::ThreadId, const std::vector<VertexId> &)>;

std::uint64_t kCliqueList(OrientedSetGraph &osg, sim::SimContext &ctx,
                          std::uint32_t k,
                          const CliqueCallback &on_clique);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_KCLIQUE_HPP
