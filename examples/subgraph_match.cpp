/**
 * @file
 * Labeled subgraph isomorphism (Algorithm 7 / VF2) -- a motif-search
 * scenario: find star motifs in an interaction network whose vertices
 * carry one of three labels (the evaluation's si-4s / si-4s-L
 * workloads). Labels add constraints that prune the recursion, so the
 * labeled search is usually *faster* despite extra label checks --
 * the same effect Section 9.2 reports.
 *
 *   ./subgraph_match [dataset-name]   (default: intD-antCol4)
 */

#include <cstdio>
#include <string>

#include "algorithms/subgraph_iso.hpp"
#include "core/sisa_engine.hpp"
#include "graph/dataset_registry.hpp"
#include "graph/generators.hpp"

using namespace sisa;

namespace {

struct RunResult
{
    std::uint64_t matches;
    std::uint64_t cycles;
};

RunResult
run(const graph::Graph &g, const graph::Graph &pattern)
{
    core::SisaEngine engine(g.numVertices(), isa::ScuConfig{}, 8);
    sim::SimContext ctx(8);
    // Full executions: the label claim is about total work, and
    // labels prune the recursion early (Section 9.2, "Labels").
    core::SetGraph sg(g, engine);
    const auto result =
        algorithms::subgraphIsomorphism(sg, ctx, pattern);
    return {result.matches, ctx.makespan()};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "intD-antCol4";
    graph::Graph g = graph::makeDataset(name);
    // Each vertex receives one of 3 random labels (Section 9.1).
    g.setVertexLabels(
        graph::randomVertexLabels(g.numVertices(), 3, 7));
    std::printf("dataset %s: %s\n", name.c_str(),
                g.describe().c_str());

    const graph::Graph star = algorithms::starPattern(3);
    const graph::Graph labeled_star =
        algorithms::labeledStarPattern(3, 3);

    const RunResult unlabeled = run(g, star);
    const RunResult labeled = run(g, labeled_star);

    std::printf("\n%-12s %12s %14s\n", "pattern", "matches", "cycles");
    std::printf("%-12s %12llu %14llu\n", "4-star",
                static_cast<unsigned long long>(unlabeled.matches),
                static_cast<unsigned long long>(unlabeled.cycles));
    std::printf("%-12s %12llu %14llu\n", "4-star-L",
                static_cast<unsigned long long>(labeled.matches),
                static_cast<unsigned long long>(labeled.cycles));
    if (labeled.cycles < unlabeled.cycles) {
        std::printf("\nlabels pruned the search: %.2fx faster\n",
                    static_cast<double>(unlabeled.cycles) /
                        static_cast<double>(labeled.cycles));
    }
    return 0;
}
