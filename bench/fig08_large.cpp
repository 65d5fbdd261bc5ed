/**
 * @file
 * Figure 8 reproduction: large graphs (scaled-down analogues; see
 * DESIGN.md). kcc-4/5 and ksc-4/5 on the Fig. 8 suite with 8 cores,
 * runtimes normalized to the non-set baseline (the paper's y-axis).
 * Expected shape: sisa fastest everywhere; set-based and sisa nearly
 * tie on the light-tailed sc-pwtk / soc-orkut analogues, where few
 * neighborhoods qualify as bitvectors.
 */

#include <iostream>

#include "graph/dataset_registry.hpp"
#include "harness.hpp"
#include "support/table.hpp"

using namespace sisa;
using namespace sisa::bench;

int
main()
{
    const std::vector<std::string> problems = {"kcc-4", "kcc-5",
                                               "ksc-4", "ksc-5"};

    // Generate each dataset once; reuse across problems and modes.
    std::vector<std::pair<std::string, graph::Graph>> graphs;
    for (const auto &spec : graph::largeSuite()) {
        // ksc on the two densest genome analogues dominates runtime;
        // everything else runs everywhere.
        graphs.emplace_back(spec.name, graph::makeDataset(spec));
        std::cout << "generated " << spec.name << ": "
                  << graphs.back().second.describe() << " ("
                  << spec.scaleNote << ")\n";
    }
    std::cout << '\n';

    for (const std::string &problem : problems) {
        support::TextTable table("Figure 8 panel: " + problem +
                                 " (T=8, normalized runtime)");
        table.setHeader({"graph", "non-set", "set-based", "sisa"});
        for (auto &[name, g] : graphs) {
            RunConfig config;
            config.threads = 8;
            config.cutoff = soloProblem(problem).defaultCutoff() / 2;

            const auto base =
                runProblem(problem, g, Mode::NonSet, config);
            const auto set_based =
                runProblem(problem, g, Mode::SetBased, config);
            const auto sisa_run =
                runProblem(problem, g, Mode::Sisa, config);

            const double norm = static_cast<double>(base.cycles);
            table.addRow(
                {name, "1.00",
                 support::TextTable::formatDouble(
                     static_cast<double>(set_based.cycles) / norm, 2),
                 support::TextTable::formatDouble(
                     static_cast<double>(sisa_run.cycles) / norm,
                     2)});
        }
        table.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "Shape check: sisa < set-based < non-set on "
                 "heavy-tailed bio-/int- analogues; sisa and "
                 "set-based converge on sc-pwtk / soc-orkut.\n";
    return 0;
}
