/**
 * @file
 * k-clique-star listing (Section 5.1.4, Algorithm 4, Jabbour et al.,
 * enhanced): find k-cliques, then for each clique intersect all member
 * neighborhoods and union the result with the clique.
 */

#ifndef SISA_ALGORITHMS_KCLIQUE_STAR_HPP
#define SISA_ALGORITHMS_KCLIQUE_STAR_HPP

#include <cstdint>

#include "algorithms/common.hpp"

namespace sisa::algorithms {

/** Result of a k-clique-star run. */
struct KcsResult
{
    /** Distinct stars ("remove duplicates from S"). */
    std::uint64_t starCount = 0;
    std::uint64_t memberTotal = 0; ///< Sum over stars (checksum).
};

/** Algorithm 4: intersect member neighborhoods per k-clique. */
KcsResult kCliqueStarsJabbour(OrientedSetGraph &osg,
                              sim::SimContext &ctx, std::uint32_t k);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_KCLIQUE_STAR_HPP
