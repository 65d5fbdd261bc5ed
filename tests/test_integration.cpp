/**
 * @file Cross-module integration tests: the evaluation pipeline end to
 * end -- registry graphs, three execution modes, expected performance
 * shapes, and the Table 6 / Section 7 work-bound validations.
 */

#include <gtest/gtest.h>

#include <memory>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/tc_baseline.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/dataset_registry.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace {

using namespace sisa;
using namespace sisa::algorithms;

TEST(Integration, RegistryGraphRunsAllThreeModes)
{
    const graph::Graph g = graph::makeDataset("int-antCol5-d1");
    const auto deg = graph::exactDegeneracyOrder(g);
    const graph::Graph d = g.orientByRank(deg.rank);

    // non-set baseline.
    sim::CpuModel cpu(sim::CpuParams{}, 4);
    sim::SimContext ctx_base(4);
    ctx_base.setPatternCutoff(500);
    baselines::CsrView view(d, cpu);
    const auto tc_base =
        baselines::triangleCountBaseline(view, ctx_base);

    // set-based.
    core::CpuSetEngine cpu_eng(g.numVertices(), sim::CpuParams{}, 4);
    sim::SimContext ctx_set(4);
    ctx_set.setPatternCutoff(500);
    OrientedSetGraph osg_cpu(g, cpu_eng);
    const auto tc_set = triangleCount(osg_cpu, ctx_set);

    // sisa.
    core::SisaEngine sisa_eng(g.numVertices(), isa::ScuConfig{}, 4);
    sim::SimContext ctx_sisa(4);
    ctx_sisa.setPatternCutoff(500);
    OrientedSetGraph osg_sisa(g, sisa_eng);
    const auto tc_sisa = triangleCount(osg_sisa, ctx_sisa);

    // Same work cut off at the same number of patterns: all modes
    // report the same (partial) counts and nonzero runtimes.
    EXPECT_EQ(tc_set, tc_sisa);
    EXPECT_EQ(tc_base, tc_sisa);
    EXPECT_GT(ctx_base.makespan(), 0u);
    EXPECT_GT(ctx_set.makespan(), 0u);
    EXPECT_GT(ctx_sisa.makespan(), 0u);
}

TEST(Integration, SisaBeatsSetBasedOnHeavyTailGraph)
{
    // The Figure 6 headline shape on a dense bio-style graph.
    graph::ChungLuParams cl;
    cl.n = 800;
    cl.m = 24000;
    cl.exponent = 1.9;
    cl.hubs = 12;
    cl.hubDegreeFraction = 0.4;
    const graph::Graph g = graph::chungLu(cl, 5);

    core::SisaEngine sisa_eng(g.numVertices(), isa::ScuConfig{}, 8);
    sim::SimContext ctx_sisa(8);
    ctx_sisa.setPatternCutoff(2000);
    OrientedSetGraph osg_sisa(g, sisa_eng);
    triangleCount(osg_sisa, ctx_sisa);

    core::CpuSetEngine cpu_eng(g.numVertices(), sim::CpuParams{}, 8);
    sim::SimContext ctx_set(8);
    ctx_set.setPatternCutoff(2000);
    OrientedSetGraph osg_cpu(g, cpu_eng);
    triangleCount(osg_cpu, ctx_set);

    EXPECT_LT(ctx_sisa.makespan(), ctx_set.makespan());
}

TEST(Integration, PumUsedOnDenseGraphsOnly)
{
    // Heavy-tail graphs put big neighborhoods in DBs -> PUM ops; a
    // sparse light-tail graph under the same policy sees none.
    graph::ChungLuParams heavy;
    heavy.n = 600;
    heavy.m = 18000;
    heavy.exponent = 1.9;
    heavy.hubs = 10;
    heavy.hubDegreeFraction = 0.4;
    const graph::Graph g_heavy = graph::chungLu(heavy, 5);

    core::SisaEngine eng_h(g_heavy.numVertices(), isa::ScuConfig{}, 2);
    sim::SimContext ctx_h(2);
    OrientedSetGraph osg_h(g_heavy, eng_h);
    triangleCount(osg_h, ctx_h);
    EXPECT_GT(ctx_h.counter("scu.pum_ops"), 0u);

    graph::ChungLuParams light;
    light.n = 600;
    light.m = 3000;
    light.exponent = 2.9;
    light.maxDegreeFraction = 0.02;
    const graph::Graph g_light = graph::chungLu(light, 6);

    core::SisaEngine eng_l(g_light.numVertices(), isa::ScuConfig{}, 2);
    sim::SimContext ctx_l(2);
    OrientedSetGraph osg_l(g_light, eng_l);
    triangleCount(osg_l, ctx_l);

    // Compare the PUM share of all dispatched set ops: the dense
    // graph must use the in-situ path much more often.
    auto pum_share = [](const sim::SimContext &ctx) {
        const double pum =
            static_cast<double>(ctx.counter("scu.pum_ops"));
        const double total =
            pum +
            static_cast<double>(ctx.counter("scu.pnm_stream_ops")) +
            static_cast<double>(ctx.counter("scu.pnm_random_ops"));
        return total == 0.0 ? 0.0 : pum / total;
    };
    EXPECT_GT(pum_share(ctx_h), pum_share(ctx_l));
}

TEST(Integration, Table6MergeWorkBoundedByMC)
{
    // Section 7.2: oriented triangle counting with merging performs
    // O(m c) set-operation work.
    const graph::Graph g = graph::erdosRenyi(300, 2400, 9);
    const auto deg = graph::exactDegeneracyOrder(g);

    core::SisaEngine eng(g.numVertices(), isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    OrientedSetGraph osg(g, eng);
    triangleCount(osg, ctx, core::SisaOp::IntersectMerge);

    const std::uint64_t streamed = ctx.counter("setops.streamed");
    const std::uint64_t bound =
        2 * g.numEdges() * (deg.degeneracy + 1);
    EXPECT_LE(streamed, bound);
    EXPECT_GT(streamed, 0u);
}

TEST(Integration, Table6GallopWorkBoundedByMCLogC)
{
    const graph::Graph g = graph::erdosRenyi(300, 2400, 9);
    const auto deg = graph::exactDegeneracyOrder(g);

    core::SisaEngine eng(g.numVertices(), isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    OrientedSetGraph osg(g, eng);
    triangleCount(osg, ctx, core::SisaOp::IntersectGallop);

    const std::uint64_t probes = ctx.counter("setops.probes");
    std::uint64_t log_c = 1;
    while ((1ull << log_c) < deg.degeneracy + 2)
        ++log_c;
    const std::uint64_t bound =
        2 * g.numEdges() * (deg.degeneracy + 1) * (log_c + 2);
    EXPECT_LE(probes, bound);
    EXPECT_GT(probes, 0u);
}

TEST(Integration, StorageBudgetRespected)
{
    // Section 9.1: neighborhood storage within 10% over CSR.
    const graph::Graph g = graph::makeDataset("bio-SC-GT");
    core::SisaEngine eng(g.numVertices(), isa::ScuConfig{}, 1);
    sets::ReprPolicy policy; // Default: t=0.4, 10% budget.
    core::SetGraph sg(g, eng, policy);
    EXPECT_LE(sg.assignment().chosenBits,
              static_cast<std::uint64_t>(
                  1.1 *
                  static_cast<double>(sg.assignment().saOnlyBits)) +
                  g.numVertices());
    EXPECT_GT(sg.assignment().denseCount, 0u);
}

TEST(Integration, BkWithCutoffProducesPartialButEqualCounts)
{
    const graph::Graph g = graph::makeDataset("int-antCol3-d1");

    auto run = [&](auto &engine) {
        sim::SimContext ctx(4);
        ctx.setPatternCutoff(50);
        core::SetGraph sg(g, engine);
        const auto result = maximalCliques(sg, ctx);
        return std::pair{result.cliqueCount, ctx.makespan()};
    };

    core::SisaEngine sisa_eng(g.numVertices(), isa::ScuConfig{}, 4);
    core::CpuSetEngine cpu_eng(g.numVertices(), sim::CpuParams{}, 4);
    const auto [cliques_sisa, time_sisa] = run(sisa_eng);
    const auto [cliques_cpu, time_cpu] = run(cpu_eng);
    EXPECT_EQ(cliques_sisa, cliques_cpu);
    EXPECT_GT(cliques_sisa, 0u);
    EXPECT_GT(time_sisa, 0u);
    EXPECT_GT(time_cpu, 0u);
}

TEST(Integration, MoreThreadsReduceSisaMakespan)
{
    const graph::Graph g = graph::makeDataset("int-antCol6-d2");

    auto run = [&](std::uint32_t threads) {
        core::SisaEngine eng(g.numVertices(), isa::ScuConfig{},
                             threads);
        sim::SimContext ctx(threads);
        ctx.setPatternCutoff(0);
        OrientedSetGraph osg(g, eng);
        kCliqueCount(osg, ctx, 3);
        return ctx.makespan();
    };

    const auto t1 = run(1);
    const auto t8 = run(8);
    EXPECT_LT(t8, t1);
}

TEST(Integration, SetSizeTraceCapturesLargeSets)
{
    // The Figure 9b methodology check: partial executions still
    // encounter the large sets that drive load imbalance.
    const graph::Graph g = graph::makeDataset("int-antCol3-d1");
    core::SisaEngine eng(g.numVertices(), isa::ScuConfig{}, 2);
    sim::SimContext ctx(2);
    ctx.enableSetSizeTrace(10);
    ctx.setPatternCutoff(200);
    OrientedSetGraph osg(g, eng);
    kCliqueCount(osg, ctx, 4);
    std::uint64_t total = 0;
    for (sim::ThreadId t = 0; t < 2; ++t)
        total += ctx.setSizeTrace(t).totalWeight();
    EXPECT_GT(total, 0u);
}

TEST(Integration, FixedBandwidthStallsGrowWithThreads)
{
    // The Figure 1 motivation shape, on the non-set baseline with a
    // fixed-bandwidth memory bus.
    const graph::Graph g = graph::makeDataset("int-antCol5-d1");

    auto stalled_fraction = [&](std::uint32_t threads) {
        sim::CpuParams params;
        params.scalableBandwidth = false;
        sim::CpuModel cpu(params, threads);
        sim::SimContext ctx(threads);
        ctx.setPatternCutoff(100);
        baselines::CsrView view(g, cpu);
        baselines::maximalCliquesBaseline(view, ctx);
        double mean = 0.0;
        for (sim::ThreadId t = 0; t < threads; ++t)
            mean += ctx.threadStall(t) > 0
                        ? static_cast<double>(ctx.threadStall(t)) /
                              static_cast<double>(ctx.threadCycles(t))
                        : 0.0;
        return mean / threads;
    };

    EXPECT_GT(stalled_fraction(16), stalled_fraction(1));
}

} // namespace
