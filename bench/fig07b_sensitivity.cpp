/**
 * @file
 * Figure 7b reproduction: sensitivity analysis. Sweep the fraction of
 * neighborhoods kept as dense bitvectors (the bias t) against three
 * galloping thresholds (5, 100, 10000) for kcc-4 on a heavy-tailed
 * mouse graph with 32 threads. Expected shape: both extremes (only
 * SISA-PNM at t=0, only SISA-PUM at t=1) are slowest; a mid-range t
 * (~0.4) is near-optimal; the galloping threshold shifts but does not
 * change the pattern.
 */

#include <iostream>

#include "algorithms/triangle_count.hpp"
#include "graph/dataset_registry.hpp"
#include "harness.hpp"
#include "support/table.hpp"

using namespace sisa;
using namespace sisa::bench;

int
main()
{
    const graph::Graph g = graph::makeDataset("bn-mouse");
    std::cout << "kcc-4 on bn-mouse analogue (" << g.describe()
              << "), T=32\n\n";

    support::TextTable table(
        "Figure 7b: DB fraction (t) x galloping threshold");
    table.setHeader({"t", "gallop=5", "gallop=100", "gallop=10000"});

    for (const double t :
         {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0}) {
        std::vector<std::string> row{
            support::TextTable::formatDouble(t, 1)};
        for (const double threshold : {5.0, 100.0, 10000.0}) {
            RunConfig config;
            config.cutoff = soloProblem("kcc-4").defaultCutoff();
            config.policy.t = t;
            config.policy.storageBudget = -1.0; // Sweep the full axis.
            config.scu.gallopThreshold = threshold;
            const RunOutcome outcome =
                runProblem("kcc-4", g, Mode::Sisa, config);
            row.push_back(support::TextTable::formatDouble(
                static_cast<double>(outcome.cycles) / 1e6, 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nRows are runtime in Mcycles; t=0 is only "
                 "SISA-PNM, t=1 only SISA-PUM. Like the paper's "
                 "figure, the oriented kernel moves only a few "
                 "percent across the sweep (out-degrees are bounded "
                 "by the degeneracy), with the PUM-only extreme "
                 "clearly slowest.\n\n";

    // Second panel: the undirected node-iterator kernel, where hub
    // neighborhoods reach the maximum degree and the DB-vs-SA choice
    // has full effect (the U shape is pronounced).
    support::TextTable undirected(
        "Figure 7b (undirected tc): DB fraction (t) vs runtime");
    undirected.setHeader({"t", "Mcycles", "pum-ops"});
    for (const double t :
         {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0}) {
        core::SisaEngine engine(g.numVertices(), isa::ScuConfig{},
                                32);
        sim::SimContext ctx(32);
        ctx.setPatternCutoff(2000);
        sets::ReprPolicy policy;
        policy.t = t;
        policy.storageBudget = -1.0;
        core::SetGraph sg(g, engine, policy);
        algorithms::triangleCountNodeIterator(sg, ctx);
        undirected.addRow(
            {support::TextTable::formatDouble(t, 1),
             support::TextTable::formatDouble(
                 static_cast<double>(ctx.makespan()) / 1e6, 3),
             std::to_string(ctx.counter("scu.pum_ops"))});
    }
    undirected.print(std::cout);
    std::cout << "\nShape check: the undirected sweep is U-shaped "
                 "-- both extremes lose to mid-range t.\n";
    return 0;
}
