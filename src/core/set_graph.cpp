#include "core/set_graph.hpp"

#include <optional>

#include "support/logging.hpp"

namespace sisa::core {

SetGraph::SetGraph(const graph::Graph &graph, SetEngine &engine,
                   const sets::ReprPolicy &policy)
    : graph_(&graph), engine_(&engine)
{
    const VertexId n = graph.numVertices();
    sisa_assert(engine.store().universe() >= n,
                "engine universe smaller than the vertex count");

    auto tables = std::make_shared<Tables>();
    std::vector<std::uint32_t> degrees(n);
    for (VertexId v = 0; v < n; ++v)
        degrees[v] = graph.degree(v);
    tables->assignment = sets::chooseRepresentations(
        degrees, engine.store().universe(), policy);

    tables->nbr.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
        const auto nbrs = graph.neighbors(v);
        std::vector<sets::Element> elems(nbrs.begin(), nbrs.end());
        tables->nbr.push_back(engine.store().createFromSorted(
            std::move(elems), tables->assignment.repr[v]));
    }
    nbr_ = tables->nbr.data();
    tables_ = std::move(tables);
}

SetGraph::SetGraph(const SetGraph &built, SetEngine &engine)
    : graph_(built.graph_), engine_(&engine), tables_(built.tables_),
      nbr_(built.nbr_)
{
    sisa_assert(engine.store().base() == &built.engine_->store(),
                "SetGraph view: the engine's store does not share the "
                "store the sets were built in");
}

std::vector<isa::TrafficArc>
placementArcs(const SetGraph &sg)
{
    std::vector<isa::TrafficArc> arcs;
    const graph::Graph &g = sg.graph();
    // One arc per adjacency entry: m for oriented graphs, 2m for
    // undirected ones (both directions pair the same two sets; the
    // duplicate just doubles every weight uniformly).
    std::size_t entries = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        entries += g.degree(v);
    arcs.reserve(entries);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId w : g.neighbors(v))
            arcs.push_back({sg.neighborhood(w), sg.neighborhood(v), 1});
    }
    return arcs;
}

std::shared_ptr<const isa::PlacementPolicy>
makePlacement(std::string_view name, std::uint32_t vaults,
              const SetGraph &sg)
{
    const std::optional<isa::PlacementKind> kind =
        isa::parsePlacement(name);
    if (!kind) {
        sisa_fatal("unknown placement policy '", name, "' (",
                   isa::placementNames(), ")");
    }
    if (*kind == isa::PlacementKind::Hash)
        return nullptr;
    return isa::makePlacement(*kind, vaults,
                              [&] { return placementArcs(sg); });
}

} // namespace sisa::core
