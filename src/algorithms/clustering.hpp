/**
 * @file
 * Jarvis-Patrick clustering (Section 5.2.3, Algorithm 11): two
 * vertices land in the same cluster when the similarity of their
 * neighborhoods exceeds a threshold tau. The evaluation's cl-jac /
 * cl-ovr / cl-tot problems are this kernel under the Jaccard,
 * overlap, and total-neighbors measures.
 */

#ifndef SISA_ALGORITHMS_CLUSTERING_HPP
#define SISA_ALGORITHMS_CLUSTERING_HPP

#include <cstdint>
#include <vector>

#include "algorithms/common.hpp"
#include "algorithms/similarity.hpp"

namespace sisa::algorithms {

/** Result of a Jarvis-Patrick run. */
struct ClusteringResult
{
    /** Edges whose endpoints were deemed similar (the clustering C). */
    std::uint64_t clusterEdges = 0;
    /** Number of connected components induced by C (cluster count). */
    std::uint64_t clusterCount = 0;
};

/**
 * Jarvis-Patrick clustering over all edges [in par].
 *
 * @param measure Similarity measure (Common Neighbors in the paper's
 *                listing; any Algorithm 9 measure is allowed).
 * @param tau     Similarity threshold.
 */
ClusteringResult jarvisPatrick(SetGraph &sg, sim::SimContext &ctx,
                               SimilarityMeasure measure, double tau);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_CLUSTERING_HPP
