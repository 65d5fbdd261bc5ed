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

#include "algorithms/problem.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/clustering_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/kclique_baseline.hpp"
#include "baselines/tc_baseline.hpp"
#include "baselines/vf2_baseline.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/degeneracy.hpp"
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
};

/** Outcome of one run. */
struct RunOutcome
{
    std::uint64_t cycles = 0;   ///< Simulated makespan.
    std::uint64_t value = 0;    ///< Problem-specific count.
    std::uint64_t patterns = 0; ///< Patterns reported before cutoff.
    std::unique_ptr<sim::SimContext> ctx; ///< Full stats.
};

/** The solo problem named @p name; any other name is fatal. */
inline algorithms::Problem
soloProblem(const std::string &name)
{
    using algorithms::EntryPoint;
    const std::optional<algorithms::Problem> problem =
        algorithms::Problem::parse(name, EntryPoint::Solo);
    if (!problem) {
        sisa_fatal("unknown problem '", name, "' (",
                   algorithms::Problem::list(EntryPoint::Solo), ")");
    }
    return *problem;
}

/** Run @p problem's hand-tuned non-set baseline on @p g. */
inline std::uint64_t
runBaseline(const algorithms::Problem &problem, const Graph &g,
            sim::CpuModel &cpu, sim::SimContext &ctx)
{
    using Kind = algorithms::Problem::Kind;
    Graph oriented;
    if (problem.oriented())
        oriented = g.orientByRank(graph::exactDegeneracyOrder(g).rank);
    baselines::CsrView view(problem.oriented() ? oriented : g, cpu);
    switch (problem.kind) {
      case Kind::Tc:
        return baselines::triangleCountBaseline(view, ctx);
      case Kind::KClique:
        return baselines::kCliqueCountBaseline(view, ctx, problem.k);
      case Kind::KCliqueStar: {
        baselines::CsrView undirected(g, cpu, view.arenaEnd());
        return baselines::kCliqueStarBaseline(view, undirected, ctx,
                                              problem.k);
      }
      case Kind::Mc:
        return baselines::maximalCliquesBaseline(view, ctx).cliqueCount;
      case Kind::Si:
        return baselines::subgraphIsoBaseline(view, ctx,
                                              problem.pattern());
      case Kind::Clustering: {
        using Coefficient = baselines::ClusterCoefficient;
        using Measure = algorithms::SimilarityMeasure;
        const Coefficient coefficient =
            problem.measure == Measure::Jaccard   ? Coefficient::Jaccard
            : problem.measure == Measure::Overlap ? Coefficient::Overlap
                                : Coefficient::TotalNeighbors;
        return baselines::jarvisPatrickBaseline(view, ctx, coefficient,
                                                problem.threshold());
      }
      case Kind::Lp:
        break;
    }
    sisa_fatal("runBaseline: lp has no non-set baseline");
}

/**
 * Run the solo problem named @p name (see algorithms/problem.hpp) on
 * @p graph under @p mode; any other name is fatal.
 */
inline RunOutcome
runProblem(const std::string &name, const Graph &graph, Mode mode,
           const RunConfig &config)
{
    const algorithms::Problem problem = soloProblem(name);
    RunOutcome outcome;
    outcome.ctx =
        std::make_unique<sim::SimContext>(config.threads);
    sim::SimContext &ctx = *outcome.ctx;
    ctx.setPatternCutoff(config.cutoff);
    if (config.traceSetSizes)
        ctx.enableSetSizeTrace(5);

    // A labelled problem (si-4s-L) runs on a labelled copy.
    Graph labelled;
    if (problem.labelled) {
        labelled = graph;
        labelled.setVertexLabels(
            problem.vertexLabels(graph.numVertices()));
    }
    const Graph &g = problem.labelled ? labelled : graph;

    if (mode == Mode::NonSet) {
        sim::CpuModel cpu(sim::CpuParams{}, config.threads);
        outcome.value = runBaseline(problem, g, cpu, ctx);
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
                g.numVertices(), scu_cfg, config.threads);
            sisa_engine = sisa.get();
            engine = std::move(sisa);
        } else {
            engine = std::make_unique<core::CpuSetEngine>(
                g.numVertices(), sim::CpuParams{}, config.threads);
        }
        std::optional<algorithms::OrientedSetGraph> osg;
        std::optional<core::SetGraph> sg;
        if (problem.oriented())
            osg.emplace(g, *engine, config.policy);
        else
            sg.emplace(g, *engine, config.policy);
        // Placement is seeded from the neighborhood sets, so it
        // installs once they exist.
        if (sisa_engine && !config.placement.empty()) {
            sisa_engine->scu().setPlacement(
                core::makePlacement(config.placement, config.scu.pim.vaults,
                                    osg ? *osg->sets : *sg));
        }
        outcome.value = algorithms::runOnSets(
            problem, {osg ? &*osg : nullptr, sg ? &*sg : nullptr}, ctx);
    }

    outcome.cycles = ctx.makespan();
    outcome.patterns = ctx.totalPatterns();
    return outcome;
}

} // namespace sisa::bench

#endif // SISA_BENCH_HARNESS_HPP
