/**
 * @file
 * Shared benchmark harness: runs one (problem, graph, mode) cell of
 * the evaluation and reports simulated cycles. The three modes are
 * the paper's comparison bars (Section 9.1):
 *
 *   NonSet   hand-tuned baseline on the OoO CPU + cache model
 *   SetBased set-centric formulation executed in software
 *   Sisa     set-centric formulation offloaded to the PIM model
 *
 * All modes run with PIM-grade scalable bandwidth ("for fair
 * comparison"); per-thread pattern cutoffs tame the NP-hard kernels
 * exactly as Section 9.1 describes.
 */

#ifndef SISA_BENCH_HARNESS_HPP
#define SISA_BENCH_HARNESS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/kclique_star.hpp"
#include "algorithms/subgraph_iso.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/clustering_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/kclique_baseline.hpp"
#include "baselines/tc_baseline.hpp"
#include "baselines/vf2_baseline.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "support/logging.hpp"

namespace sisa::bench {

using graph::Graph;

/** Execution mode (one evaluation bar). */
enum class Mode { NonSet, SetBased, Sisa };

inline const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::NonSet: return "non-set";
      case Mode::SetBased: return "set-based";
      case Mode::Sisa: return "sisa";
    }
    return "?";
}

/** Per-run configuration. */
struct RunConfig
{
    std::uint32_t threads = 32;
    std::uint64_t cutoff = 100; ///< Patterns per thread (0 = full).
    sets::ReprPolicy policy{};
    isa::ScuConfig scu{};
    sim::CpuParams cpu{};
    std::uint32_t labels = 0; ///< >0: attach random vertex labels.
    bool traceSetSizes = false;
    /**
     * Vault placement for Sisa mode: "hash" (default) or "locality"
     * (greedy edge-locality seeded from the run's graph).
     * Placement moves cycle charges and setops.xvault_* counters
     * only; results are policy-invariant.
     */
    std::string placement{};
    /**
     * Execution-vault routing for Sisa mode: "primary" (the
     * a-operand's vault) or "balanced" (makespan-driven LPT batch
     * scheduling against per-vault load, transfer-aware); empty
     * keeps scu.routing. Cycle charges and xvault counters only;
     * results are invariant.
     */
    std::string routing{};
    /**
     * Record the run's full encoded SISA instruction stream (Sisa
     * mode): the caller-owned trace attaches to the SCU before any
     * set exists, so offline linting (`sisa_run ... analyze=trace`,
     * sisa/analysis.hpp) sees every instruction the run issued.
     */
    isa::InstructionTrace *trace = nullptr;
};

/** Build the named placement policy over @p sg's traffic arcs. */
inline std::shared_ptr<isa::PlacementPolicy>
makePlacement(const std::string &name, std::uint32_t vaults,
              const core::SetGraph &sg)
{
    const std::optional<isa::PlacementKind> kind =
        isa::parsePlacement(name);
    if (!kind) {
        sisa_fatal("unknown placement policy '", name, "' (",
                   isa::placementNames(), ")");
    }
    return isa::makePlacement(*kind, vaults,
                              [&] { return core::placementArcs(sg); });
}

/** Outcome of one run. */
struct RunOutcome
{
    std::uint64_t cycles = 0;   ///< Simulated makespan.
    std::uint64_t value = 0;    ///< Problem-specific count.
    std::uint64_t patterns = 0; ///< Patterns reported before cutoff.
    std::unique_ptr<sim::SimContext> ctx; ///< Full stats.
};

/** The problems runProblem accepts, as listed in error messages. */
inline constexpr const char *valid_problems =
    "tc | kcc-3..6 | ksc-3..6 | mc | si-4s | si-4s-L | cl-jac | "
    "cl-ovr | cl-tot";

/** Is @p problem one runProblem can run (see valid_problems)? */
inline bool
validProblem(const std::string &problem)
{
    if (problem == "tc" || problem == "mc" || problem == "si-4s" ||
        problem == "si-4s-L" || problem == "cl-jac" ||
        problem == "cl-ovr" || problem == "cl-tot")
        return true;
    return problem.size() == 5 &&
           (problem.rfind("kcc-", 0) == 0 ||
            problem.rfind("ksc-", 0) == 0) &&
           problem[4] >= '3' && problem[4] <= '6';
}

/**
 * Run @p problem on @p graph under @p mode. Problems: tc, kcc-3..6,
 * ksc-3..6, mc, si-4s, si-4s-L, cl-jac, cl-ovr, cl-tot; any other
 * name is fatal.
 */
inline RunOutcome
runProblem(const std::string &problem, const Graph &graph, Mode mode,
           const RunConfig &config)
{
    if (!validProblem(problem))
        sisa_fatal("unknown problem '", problem, "' (", valid_problems,
                   ")");
    RunOutcome outcome;
    outcome.ctx =
        std::make_unique<sim::SimContext>(config.threads);
    sim::SimContext &ctx = *outcome.ctx;
    ctx.setPatternCutoff(config.cutoff);
    if (config.traceSetSizes)
        ctx.enableSetSizeTrace(5);

    Graph labeled;
    const Graph *g = &graph;
    if (config.labels > 0) {
        labeled = graph;
        labeled.setVertexLabels(graph::randomVertexLabels(
            graph.numVertices(), config.labels, 7));
        g = &labeled;
    }

    const bool needs_orientation =
        problem == "tc" || problem.rfind("kcc-", 0) == 0 ||
        problem.rfind("ksc-", 0) == 0;

    if (mode == Mode::NonSet) {
        sim::CpuModel cpu(config.cpu, config.threads);
        if (needs_orientation) {
            const auto deg = graph::exactDegeneracyOrder(*g);
            const Graph oriented = g->orientByRank(deg.rank);
            baselines::CsrView view(oriented, cpu);
            if (problem == "tc") {
                outcome.value =
                    baselines::triangleCountBaseline(view, ctx);
            } else if (problem.rfind("kcc-", 0) == 0) {
                outcome.value = baselines::kCliqueCountBaseline(
                    view, ctx,
                    static_cast<std::uint32_t>(
                        std::stoul(problem.substr(4))));
            } else {
                baselines::CsrView undirected(*g, cpu);
                outcome.value = baselines::kCliqueStarBaseline(
                    view, undirected, ctx,
                    static_cast<std::uint32_t>(
                        std::stoul(problem.substr(4))));
            }
        } else {
            baselines::CsrView view(*g, cpu);
            if (problem == "mc") {
                outcome.value =
                    baselines::maximalCliquesBaseline(view, ctx)
                        .cliqueCount;
            } else if (problem == "si-4s" || problem == "si-4s-L") {
                const Graph pattern =
                    problem == "si-4s-L"
                        ? algorithms::labeledStarPattern(3, 3)
                        : algorithms::starPattern(3);
                outcome.value =
                    baselines::subgraphIsoBaseline(view, ctx, pattern);
            } else if (problem.rfind("cl-", 0) == 0) {
                const auto coeff =
                    problem == "cl-jac"
                        ? baselines::ClusterCoefficient::Jaccard
                        : (problem == "cl-ovr"
                               ? baselines::ClusterCoefficient::Overlap
                               : baselines::ClusterCoefficient::
                                     TotalNeighbors);
                outcome.value = baselines::jarvisPatrickBaseline(
                    view, ctx, coeff, problem == "cl-tot" ? 2.0 : 0.05);
            }
        }
    } else {
        std::unique_ptr<core::SetEngine> engine;
        core::SisaEngine *sisa_engine = nullptr;
        if (mode == Mode::Sisa) {
            isa::ScuConfig scu_cfg = config.scu;
            if (!config.routing.empty()) {
                const std::optional<isa::Routing> routing =
                    isa::parseRouting(config.routing);
                if (!routing) {
                    sisa_fatal("unknown routing rule '", config.routing,
                               "' (", isa::routingNames(), ")");
                }
                scu_cfg.routing = *routing;
            }
            auto sisa = std::make_unique<core::SisaEngine>(
                g->numVertices(), scu_cfg, config.threads);
            sisa_engine = sisa.get();
            if (config.trace)
                sisa_engine->scu().setTrace(config.trace);
            engine = std::move(sisa);
        } else {
            engine = std::make_unique<core::CpuSetEngine>(
                g->numVertices(), config.cpu, config.threads);
        }
        // Placement can only be seeded once the neighborhood sets
        // exist, so it installs right after SetGraph construction.
        const auto installPlacement = [&](const core::SetGraph &sg) {
            if (sisa_engine && !config.placement.empty()) {
                sisa_engine->scu().setPlacement(makePlacement(
                    config.placement, config.scu.pim.vaults, sg));
            }
        };
        if (needs_orientation) {
            algorithms::OrientedSetGraph osg(*g, *engine,
                                             config.policy);
            installPlacement(*osg.sets);
            if (problem == "tc") {
                outcome.value = algorithms::triangleCount(osg, ctx);
            } else if (problem.rfind("kcc-", 0) == 0) {
                outcome.value = algorithms::kCliqueCount(
                    osg, ctx,
                    static_cast<std::uint32_t>(
                        std::stoul(problem.substr(4))));
            } else {
                outcome.value =
                    algorithms::kCliqueStarsJabbour(
                        osg, ctx,
                        static_cast<std::uint32_t>(
                            std::stoul(problem.substr(4))))
                        .starCount;
            }
        } else {
            core::SetGraph sg(*g, *engine, config.policy);
            installPlacement(sg);
            if (problem == "mc") {
                outcome.value =
                    algorithms::maximalCliques(sg, ctx).cliqueCount;
            } else if (problem == "si-4s" || problem == "si-4s-L") {
                const Graph pattern =
                    problem == "si-4s-L"
                        ? algorithms::labeledStarPattern(3, 3)
                        : algorithms::starPattern(3);
                outcome.value =
                    algorithms::subgraphIsomorphism(sg, ctx, pattern)
                        .matches;
            } else if (problem.rfind("cl-", 0) == 0) {
                const auto measure =
                    problem == "cl-jac"
                        ? algorithms::SimilarityMeasure::Jaccard
                        : (problem == "cl-ovr"
                               ? algorithms::SimilarityMeasure::Overlap
                               : algorithms::SimilarityMeasure::
                                     TotalNeighbors);
                outcome.value =
                    algorithms::jarvisPatrick(
                        sg, ctx, measure,
                        problem == "cl-tot" ? 2.0 : 0.05)
                        .clusterEdges;
            }
        }
    }

    outcome.cycles = ctx.makespan();
    outcome.patterns = ctx.totalPatterns();
    return outcome;
}

/** Per-problem default pattern cutoffs keeping simulations tractable. */
inline std::uint64_t
defaultCutoff(const std::string &problem)
{
    if (problem == "tc")
        return 2000;
    if (problem.rfind("kcc-", 0) == 0)
        return 300;
    if (problem.rfind("ksc-", 0) == 0)
        return 60;
    if (problem == "mc")
        return 60;
    if (problem.rfind("si-", 0) == 0)
        return 150;
    if (problem.rfind("cl-", 0) == 0)
        return 1500;
    return 200;
}

} // namespace sisa::bench

#endif // SISA_BENCH_HARNESS_HPP
