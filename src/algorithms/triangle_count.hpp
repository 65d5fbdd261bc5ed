/**
 * @file
 * Set-centric triangle counting (Section 5.1.1, Algorithm 1). The
 * directed formulation orients edges by the degeneracy order so each
 * triangle is counted exactly once and intersections run over
 * out-neighborhoods of size <= c (the Section 7.2 bound O(mc) with
 * merging, O(mc log c) with galloping).
 */

#ifndef SISA_ALGORITHMS_TRIANGLE_COUNT_HPP
#define SISA_ALGORITHMS_TRIANGLE_COUNT_HPP

#include <cstdint>

#include "algorithms/common.hpp"

namespace sisa::algorithms {

/**
 * Count triangles over a degeneracy-oriented SetGraph:
 * tc = sum over arcs (v, w) of |N+(v) cap N+(w)|.
 *
 * @param variant Force merge/galloping or leave the choice to the
 *                engine (IntersectAuto).
 */
std::uint64_t triangleCount(OrientedSetGraph &osg, sim::SimContext &ctx,
                            core::SisaOp variant =
                                core::SisaOp::IntersectAuto);

/**
 * The undirected node-iterator of Algorithm 1 (each triangle counted
 * six times and divided out) -- kept as the paper's literal listing;
 * used by tests to cross-validate the oriented version.
 */
std::uint64_t triangleCountNodeIterator(SetGraph &sg,
                                        sim::SimContext &ctx);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_TRIANGLE_COUNT_HPP
