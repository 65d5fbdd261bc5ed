/**
 * @file
 * The predefined SISA graph structure (Section 6.1): when a SISA
 * program starts, every vertex neighborhood is materialized as a set
 * in the engine's store -- small neighborhoods as sparse arrays and
 * the largest ones as dense bitvectors, chosen by the representation
 * policy (bias parameter t + storage budget). Works for undirected
 * graphs (N(v)) and degeneracy-oriented graphs (N+(v)) alike.
 */

#ifndef SISA_CORE_SET_GRAPH_HPP
#define SISA_CORE_SET_GRAPH_HPP

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/set_engine.hpp"
#include "graph/graph.hpp"
#include "sets/representation.hpp"
#include "sisa/placement.hpp"

namespace sisa::core {

using graph::VertexId;

/** Graph whose neighborhoods live as SISA sets. */
class SetGraph
{
  public:
    /**
     * Build neighborhood sets for @p graph inside @p engine's store.
     * Construction models the program-load phase and is not charged
     * to the simulated run time.
     *
     * @param policy Representation selection (Section 6.1).
     */
    SetGraph(const graph::Graph &graph, SetEngine &engine,
             const sets::ReprPolicy &policy = {});

    /**
     * A view of @p built's sets through @p engine, whose store must
     * have @p built's store as its shared read-only base
     * (SisaEngine's shared-base constructor): same set ids, same
     * representations, no set built. Panics on any other engine.
     */
    SetGraph(const SetGraph &built, SetEngine &engine);

    const graph::Graph &graph() const { return *graph_; }
    SetEngine &engine() { return *engine_; }

    VertexId numVertices() const { return graph_->numVertices(); }
    std::uint64_t numEdges() const { return graph_->numEdges(); }
    std::uint32_t degree(VertexId v) const { return graph_->degree(v); }

    /** The set id of N(v) (or N+(v) for an oriented graph). */
    SetId neighborhood(VertexId v) const { return nbr_[v]; }

    /** Representation chosen for N(v). */
    sets::SetRepr representation(VertexId v) const
    {
        return assignment_.repr[v];
    }

    /** Outcome of the representation selection (storage accounting). */
    const sets::ReprAssignment &assignment() const { return assignment_; }

  private:
    const graph::Graph *graph_;
    SetEngine *engine_;
    sets::ReprAssignment assignment_;
    std::vector<SetId> nbr_;
};

/**
 * Traffic arcs seeding locality-aware placement
 * (isa::greedyLocalityPlacement): the neighborhood-joining kernels
 * (TC, k-clique, clustering, BK pivoting) intersect N(w) with N(v)
 * for every arc v -> w of @p sg's (possibly degeneracy-oriented)
 * graph, so each arc is one expected operand pairing of the two
 * neighborhood sets.
 */
std::vector<isa::TrafficArc> placementArcs(const SetGraph &sg);

/**
 * The placement policy named @p name (isa::parsePlacement) over
 * @p vaults, seeded from @p sg's traffic arcs. nullptr for hash, the
 * SCU's default placement; any other name is fatal.
 */
std::shared_ptr<const isa::PlacementPolicy>
makePlacement(std::string_view name, std::uint32_t vaults,
              const SetGraph &sg);

} // namespace sisa::core

#endif // SISA_CORE_SET_GRAPH_HPP
