/**
 * @file
 * Figure 6 reproduction: the main result. For every graph of the
 * small/medium suite (Table 7) and every mining problem panel
 * (cl-jac, kcc-4/5/6, ksc-4/5/6, mc, tc, si-4s, si-4s-L), run the
 * three comparison modes with full parallelism (32 threads) and print
 * runtimes in millions of cycles plus the paper's four speedup
 * summaries:
 *
 *   (1) sisa over non-set, avg-of-speedups (geomean of ratios)
 *   (2) sisa over non-set, speedup-of-avgs (ratio of means)
 *   (3) sisa over set-based, avg-of-speedups
 *   (4) sisa over set-based, speedup-of-avgs
 */

#include <iostream>

#include "graph/dataset_registry.hpp"
#include "harness.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace sisa;
using namespace sisa::bench;

int
main(int argc, char **argv)
{
    // Optional: a single problem name to run just one panel.
    std::vector<std::string> problems = {
        "cl-jac", "kcc-4", "kcc-5", "kcc-6", "ksc-4", "ksc-5",
        "ksc-6",  "mc",    "si-4s", "tc",    "si-4s-L"};
    if (argc > 1)
        problems = {argv[1]};

    for (const std::string &problem : problems) {
        support::TextTable table("Figure 6 panel: " + problem +
                                 " (T=32, Mcycles)");
        table.setHeader(
            {"graph", "non-set", "set-based", "sisa", "best"});

        std::vector<double> nonset_times, setbased_times, sisa_times;
        for (const auto &spec : graph::fig6Suite()) {
            const graph::Graph g = graph::makeDataset(spec);
            RunConfig config;
            config.cutoff = soloProblem(problem).defaultCutoff();

            const RunOutcome base =
                runProblem(problem, g, Mode::NonSet, config);
            const RunOutcome set_based =
                runProblem(problem, g, Mode::SetBased, config);
            const RunOutcome sisa_run =
                runProblem(problem, g, Mode::Sisa, config);

            nonset_times.push_back(static_cast<double>(base.cycles));
            setbased_times.push_back(
                static_cast<double>(set_based.cycles));
            sisa_times.push_back(
                static_cast<double>(sisa_run.cycles));

            const char *best =
                sisa_run.cycles <= base.cycles &&
                        sisa_run.cycles <= set_based.cycles
                    ? "sisa"
                    : (set_based.cycles <= base.cycles ? "set-based"
                                                       : "non-set");
            table.addRow(
                {spec.name,
                 support::TextTable::formatDouble(
                     static_cast<double>(base.cycles) / 1e6, 2),
                 support::TextTable::formatDouble(
                     static_cast<double>(set_based.cycles) / 1e6, 2),
                 support::TextTable::formatDouble(
                     static_cast<double>(sisa_run.cycles) / 1e6, 2),
                 best});
        }
        table.print(std::cout);

        std::cout << "SISA speedups: "
                  << support::TextTable::formatDouble(
                         support::averageOfSpeedups(nonset_times,
                                                    sisa_times),
                         2)
                  << "x, "
                  << support::TextTable::formatDouble(
                         support::speedupOfAverages(nonset_times,
                                                    sisa_times),
                         2)
                  << "x, "
                  << support::TextTable::formatDouble(
                         support::averageOfSpeedups(setbased_times,
                                                    sisa_times),
                         2)
                  << "x, "
                  << support::TextTable::formatDouble(
                         support::speedupOfAverages(setbased_times,
                                                    sisa_times),
                         2)
                  << "x  (avg-of-speedups / speedup-of-avgs over "
                     "non-set, then over set-based)\n\n";
    }
    return 0;
}
