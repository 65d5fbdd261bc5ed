/**
 * @file
 * Set-centric maximal clique listing (Section 5.1.2, Algorithm 2):
 * the Bron-Kerbosch recursion with Tomita pivoting and the Eppstein
 * degeneracy-order outer loop. Everything the paper grays out as a
 * SISA-accelerated operation is an engine call here: P cap N(v),
 * X cap N(v), P setminus N(u), P setminus {v}, X cup {v}, and the
 * pivot-selection cardinalities |P cap N(u)|.
 */

#ifndef SISA_ALGORITHMS_BRON_KERBOSCH_HPP
#define SISA_ALGORITHMS_BRON_KERBOSCH_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "algorithms/common.hpp"

namespace sisa::algorithms {

/** Result of a maximal-clique run. */
struct MaximalCliqueResult
{
    std::uint64_t cliqueCount = 0;   ///< Maximal cliques reported.
    std::uint64_t maxCliqueSize = 0; ///< Largest clique seen.
};

/**
 * List maximal cliques. The outer loop follows @p deg, an exact
 * degeneracy order of `sg.graph()` (each thread owns a contiguous
 * block of it); per-thread pattern cutoffs bound the simulated work
 * exactly like the paper's runs. The order is host-side
 * preprocessing: callers on one graph may share it.
 *
 * @param on_clique Optional callback receiving each maximal clique.
 */
MaximalCliqueResult maximalCliques(
    SetGraph &sg, const graph::DegeneracyResult &deg,
    sim::SimContext &ctx,
    const std::function<void(const std::vector<VertexId> &)> &on_clique =
        nullptr);

/** As above, computing the degeneracy order of `sg.graph()` first. */
MaximalCliqueResult maximalCliques(
    SetGraph &sg, sim::SimContext &ctx,
    const std::function<void(const std::vector<VertexId> &)> &on_clique =
        nullptr);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_BRON_KERBOSCH_HPP
