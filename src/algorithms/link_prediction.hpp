/**
 * @file
 * Link prediction and its accuracy testing (Section 5.2.2, Algorithm
 * 10, after Wang et al.): remove a random subset E_rndm of edges,
 * score candidate links on the sparsified graph with a vertex
 * similarity measure, predict the top-|E_rndm| scores, and measure
 * eff = |E_predict cap E_rndm| with a set intersection over edge ids.
 */

#ifndef SISA_ALGORITHMS_LINK_PREDICTION_HPP
#define SISA_ALGORITHMS_LINK_PREDICTION_HPP

#include <cstdint>

#include "algorithms/common.hpp"
#include "algorithms/similarity.hpp"

namespace sisa::algorithms {

/** Outcome of one link-prediction accuracy test. */
struct LinkPredictionResult
{
    std::uint64_t removedEdges = 0;   ///< |E_rndm|.
    std::uint64_t predictedEdges = 0; ///< |E_predict| (== removed).
    std::uint64_t correct = 0;        ///< eff = |E_predict cap E_rndm|.

    double
    effectiveness() const
    {
        return removedEdges == 0
                   ? 0.0
                   : static_cast<double>(correct) /
                         static_cast<double>(removedEdges);
    }
};

/**
 * Algorithm 10 end to end. Candidate links are non-adjacent pairs at
 * distance two in the sparsified graph (pairs farther apart score 0
 * under every neighborhood measure, so they can never enter the
 * prediction set).
 *
 * @param engine        Engine evaluated for all set operations.
 * @param graph         The ground-truth graph G = (V, E).
 * @param measure       Similarity measure S.
 * @param remove_ratio  Fraction of E removed into E_rndm.
 * @param seed          Sampling seed (deterministic).
 */
LinkPredictionResult linkPredictionTest(SetEngine &engine,
                                        const Graph &graph,
                                        sim::SimContext &ctx,
                                        SimilarityMeasure measure,
                                        double remove_ratio,
                                        std::uint64_t seed);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_LINK_PREDICTION_HPP
