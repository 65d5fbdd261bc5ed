/** @file Unit tests for the programming model (engines, SetGraph). */

#include <gtest/gtest.h>

#include <memory>

#include "algorithms/common.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/set_graph.hpp"
#include "core/sisa_engine.hpp"
#include "core/vertex_set.hpp"
#include "graph/generators.hpp"

namespace {

using namespace sisa;
using core::CpuSetEngine;
using core::SetEngine;
using core::SisaEngine;
using sets::Element;
using sets::SetRepr;

std::unique_ptr<SetEngine>
makeEngine(const std::string &kind, Element universe,
           std::uint32_t threads = 2)
{
    if (kind == "sisa") {
        return std::make_unique<SisaEngine>(universe, isa::ScuConfig{},
                                            threads);
    }
    return std::make_unique<CpuSetEngine>(universe, sim::CpuParams{},
                                          threads);
}

class EngineTest : public ::testing::TestWithParam<const char *>
{
  protected:
    EngineTest() : engine_(makeEngine(GetParam(), 512)), ctx_(2) {}

    std::unique_ptr<SetEngine> engine_;
    sim::SimContext ctx_;
};

TEST_P(EngineTest, FunctionalIntersect)
{
    auto &eng = *engine_;
    const auto a = eng.create(ctx_, 0, {1, 2, 3, 4},
                              SetRepr::SparseArray);
    const auto b = eng.create(ctx_, 0, {2, 4, 6},
                              SetRepr::DenseBitvector);
    const auto r = eng.intersect(ctx_, 0, a, b);
    EXPECT_EQ(eng.store().elementsOf(r), (std::vector<Element>{2, 4}));
    EXPECT_EQ(eng.intersectCard(ctx_, 0, a, b), 2u);
}

TEST_P(EngineTest, FunctionalUnionAndDifference)
{
    auto &eng = *engine_;
    const auto a = eng.create(ctx_, 0, {1, 5}, SetRepr::SparseArray);
    const auto b = eng.create(ctx_, 0, {5, 9}, SetRepr::SparseArray);
    EXPECT_EQ(eng.store().elementsOf(eng.setUnion(ctx_, 0, a, b)),
              (std::vector<Element>{1, 5, 9}));
    EXPECT_EQ(eng.store().elementsOf(eng.difference(ctx_, 0, a, b)),
              (std::vector<Element>{1}));
    EXPECT_EQ(eng.unionCard(ctx_, 0, a, b), 3u);
}

TEST_P(EngineTest, ElementOpsAndLifecycle)
{
    auto &eng = *engine_;
    const auto a = eng.createEmpty(ctx_, 0, SetRepr::DenseBitvector);
    eng.insert(ctx_, 0, a, 42);
    eng.insert(ctx_, 0, a, 7);
    EXPECT_TRUE(eng.member(ctx_, 0, a, 42));
    EXPECT_EQ(eng.cardinality(ctx_, 0, a), 2u);
    eng.remove(ctx_, 0, a, 42);
    EXPECT_FALSE(eng.member(ctx_, 0, a, 42));

    const auto b = eng.clone(ctx_, 0, a);
    eng.insert(ctx_, 0, b, 100);
    EXPECT_EQ(eng.cardinality(ctx_, 0, a), 1u);
    EXPECT_EQ(eng.cardinality(ctx_, 0, b), 2u);
    eng.destroy(ctx_, 0, b);
    EXPECT_FALSE(eng.store().live(b));
}

TEST_P(EngineTest, CreateFullCoversUniverse)
{
    auto &eng = *engine_;
    const auto full = eng.createFull(ctx_, 0);
    EXPECT_EQ(eng.cardinality(ctx_, 0, full), 512u);
    EXPECT_TRUE(eng.member(ctx_, 0, full, 511));
}

TEST_P(EngineTest, ChargesCycles)
{
    auto &eng = *engine_;
    const auto a = eng.create(ctx_, 0, {1, 2, 3},
                              SetRepr::SparseArray);
    const auto b = eng.create(ctx_, 0, {2, 3, 4},
                              SetRepr::SparseArray);
    const auto before = ctx_.threadCycles(0);
    eng.intersect(ctx_, 0, a, b);
    EXPECT_GT(ctx_.threadCycles(0), before);
    // Work on thread 1 must not bill thread 0.
    const auto t0 = ctx_.threadCycles(0);
    eng.intersectCard(ctx_, 1, a, b);
    EXPECT_EQ(ctx_.threadCycles(0), t0);
    EXPECT_GT(ctx_.threadCycles(1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values("sisa", "set-based"));

TEST(EngineEquivalence, SameResultsDifferentCosts)
{
    // The two engines are functionally identical; only timing differs.
    auto sisa_eng = makeEngine("sisa", 256);
    auto cpu_eng = makeEngine("set-based", 256);
    sim::SimContext ctx_a(1), ctx_b(1);

    std::vector<Element> xs{1, 4, 9, 16, 25, 36, 49};
    std::vector<Element> ys{1, 2, 4, 8, 16, 32, 64, 128};
    const auto a1 = sisa_eng->create(ctx_a, 0, xs, SetRepr::SparseArray);
    const auto b1 = sisa_eng->create(ctx_a, 0, ys,
                                     SetRepr::DenseBitvector);
    const auto a2 = cpu_eng->create(ctx_b, 0, xs, SetRepr::SparseArray);
    const auto b2 = cpu_eng->create(ctx_b, 0, ys,
                                    SetRepr::DenseBitvector);

    EXPECT_EQ(sisa_eng->store().elementsOf(
                  sisa_eng->intersect(ctx_a, 0, a1, b1)),
              cpu_eng->store().elementsOf(
                  cpu_eng->intersect(ctx_b, 0, a2, b2)));
    EXPECT_EQ(sisa_eng->unionCard(ctx_a, 0, a1, b1),
              cpu_eng->unionCard(ctx_b, 0, a2, b2));
}

TEST(SetGraphTest, BuildsNeighborhoodSets)
{
    const graph::Graph g = graph::complete(8);
    SisaEngine eng(8, isa::ScuConfig{}, 1);
    core::SetGraph sg(g, eng);
    sim::SimContext ctx(1);
    for (graph::VertexId v = 0; v < 8; ++v) {
        EXPECT_EQ(eng.cardinality(ctx, 0, sg.neighborhood(v)), 7u);
        EXPECT_FALSE(eng.member(ctx, 0, sg.neighborhood(v), v));
    }
}

TEST(SetGraphTest, PolicyControlsRepresentations)
{
    // A star: the hub neighborhood is large, leaves are tiny.
    const graph::Graph g = graph::star(100);
    SisaEngine eng(100, isa::ScuConfig{}, 1);
    sets::ReprPolicy policy;
    policy.t = 0.01; // Top 1% of 100 vertices -> 1 DB (the hub).
    policy.storageBudget = -1.0;
    core::SetGraph sg(g, eng, policy);
    EXPECT_EQ(sg.representation(0), SetRepr::DenseBitvector);
    EXPECT_EQ(sg.representation(1), SetRepr::SparseArray);
    EXPECT_EQ(sg.assignment().denseCount, 1u);
}

TEST(SetGraphTest, ZeroBiasMatchesCsrStorage)
{
    const graph::Graph g = graph::erdosRenyi(64, 200, 3);
    SisaEngine eng(64, isa::ScuConfig{}, 1);
    sets::ReprPolicy policy;
    policy.t = 0.0;
    core::SetGraph sg(g, eng, policy);
    EXPECT_EQ(sg.assignment().chosenBits, sg.assignment().saOnlyBits);
}

/** Vertex by vertex: same id, representation, cardinality, location
 *  and elements in both set graphs' stores. */
void
expectSameSetGraph(core::SetGraph &a, core::SetGraph &b)
{
    ASSERT_EQ(a.numVertices(), b.numVertices());
    const isa::SetStore &sa = a.engine().store();
    const isa::SetStore &sb = b.engine().store();
    for (graph::VertexId v = 0; v < a.numVertices(); ++v) {
        SCOPED_TRACE(::testing::Message() << "vertex " << v);
        const isa::SetId id = a.neighborhood(v);
        ASSERT_EQ(id, b.neighborhood(v));
        EXPECT_EQ(a.representation(v), b.representation(v));
        EXPECT_EQ(sa.metadata(id).repr, sb.metadata(id).repr);
        EXPECT_EQ(sa.cardinality(id), sb.cardinality(id));
        EXPECT_EQ(sa.metadata(id).location, sb.metadata(id).location);
        EXPECT_EQ(sa.elementsOf(id), sb.elementsOf(id));
    }
    EXPECT_EQ(a.assignment().denseCount, b.assignment().denseCount);
    EXPECT_EQ(a.assignment().chosenBits, b.assignment().chosenBits);
}

/** A policy that gives the test graph some DB neighborhoods. */
sets::ReprPolicy
mixedPolicy()
{
    sets::ReprPolicy policy;
    policy.t = 0.1;
    policy.storageBudget = -1.0;
    return policy;
}

TEST(SetGraphTest, ViewOverSharedBaseEqualsPrivateBuild)
{
    const graph::Graph g = graph::erdosRenyi(120, 900, 5);
    SisaEngine builder(120, isa::ScuConfig{}, 1);
    const core::SetGraph built(g, builder, mixedPolicy());
    SisaEngine tenant(builder.sharedStore(), isa::ScuConfig{}, 1);
    core::SetGraph view(built, tenant);
    SisaEngine priv(120, isa::ScuConfig{}, 1);
    core::SetGraph fresh(g, priv, mixedPolicy());
    ASSERT_GT(fresh.assignment().denseCount, 0u);
    EXPECT_EQ(&view.engine(), &tenant);
    EXPECT_EQ(&view.graph(), &g);
    EXPECT_EQ(&view.assignment(), &built.assignment()); // Shared.
    expectSameSetGraph(view, fresh);
}

TEST(SetGraphTest, OrientedViewOverSharedBaseEqualsPrivateBuild)
{
    const graph::Graph g = graph::erdosRenyi(120, 900, 6);
    SisaEngine builder(120, isa::ScuConfig{}, 1);
    const algorithms::OrientedSetGraph built(g, builder, mixedPolicy());
    SisaEngine tenant(builder.sharedStore(), isa::ScuConfig{}, 1);
    algorithms::OrientedSetGraph view(built, tenant);
    SisaEngine priv(120, isa::ScuConfig{}, 1);
    algorithms::OrientedSetGraph fresh(g, priv, mixedPolicy());
    ASSERT_GT(fresh.sets->assignment().denseCount, 0u);
    EXPECT_EQ(view.original, &g);
    EXPECT_EQ(view.oriented, built.oriented); // Shared, not recomputed.
    EXPECT_EQ(view.degeneracy, built.degeneracy);
    EXPECT_EQ(&view.sets->engine(), &tenant);
    expectSameSetGraph(*view.sets, *fresh.sets);

    // Same count and the same modeled cycles as the private build.
    sim::SimContext view_ctx(1);
    sim::SimContext fresh_ctx(1);
    EXPECT_EQ(algorithms::triangleCount(view, view_ctx),
              algorithms::triangleCount(fresh, fresh_ctx));
    EXPECT_EQ(view_ctx.makespan(), fresh_ctx.makespan());
}

TEST(SetGraphDeathTest, ViewRejectsEngineWithoutTheBase)
{
    const graph::Graph g = graph::erdosRenyi(60, 300, 7);
    SisaEngine builder(60, isa::ScuConfig{}, 1);
    const core::SetGraph built(g, builder);
    const algorithms::OrientedSetGraph built_oriented(g, builder);
    // A private engine, and one over another store holding an
    // identical build: neither shares the base the sets live in.
    SisaEngine priv(60, isa::ScuConfig{}, 1);
    SisaEngine other_builder(60, isa::ScuConfig{}, 1);
    const core::SetGraph other_built(g, other_builder);
    SisaEngine other(other_builder.sharedStore(), isa::ScuConfig{}, 1);
    const char *msg = "does not share";
    EXPECT_DEATH(core::SetGraph(built, priv), msg);
    EXPECT_DEATH(core::SetGraph(built, other), msg);
    EXPECT_DEATH(algorithms::OrientedSetGraph(built_oriented, priv), msg);
    EXPECT_DEATH(algorithms::OrientedSetGraph(built_oriented, other), msg);
}

TEST(VertexSetTest, RaiiDestroysOwnedSets)
{
    SisaEngine eng(64, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    const auto live_before = eng.store().liveCount();
    {
        auto set = core::VertexSet::adopt(
            eng, ctx, 0,
            eng.create(ctx, 0, {1, 2, 3}, SetRepr::SparseArray));
        EXPECT_EQ(set.size(), 3u);
        auto inter = set.intersect(set);
        EXPECT_EQ(inter.size(), 3u);
    }
    EXPECT_EQ(eng.store().liveCount(), live_before);
}

TEST(VertexSetTest, BorrowDoesNotDestroy)
{
    SisaEngine eng(64, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    const auto id = eng.create(ctx, 0, {5}, SetRepr::SparseArray);
    {
        auto view = core::VertexSet::borrow(eng, ctx, 0, id);
        EXPECT_TRUE(view.contains(5));
    }
    EXPECT_TRUE(eng.store().live(id));
}

TEST(VertexSetTest, MoveTransfersOwnership)
{
    SisaEngine eng(64, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    auto a = core::VertexSet::adopt(
        eng, ctx, 0, eng.create(ctx, 0, {1}, SetRepr::SparseArray));
    const auto id = a.id();
    core::VertexSet b = std::move(a);
    EXPECT_FALSE(a.bound());
    EXPECT_EQ(b.id(), id);
    EXPECT_TRUE(eng.store().live(id));
}

TEST(VertexSetTest, SetAlgebraMethods)
{
    SisaEngine eng(64, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    auto a = core::VertexSet::adopt(
        eng, ctx, 0,
        eng.create(ctx, 0, {1, 2, 3}, SetRepr::SparseArray));
    auto b = core::VertexSet::adopt(
        eng, ctx, 0,
        eng.create(ctx, 0, {2, 3, 4}, SetRepr::SparseArray));
    EXPECT_EQ(a.intersectCount(b), 2u);
    EXPECT_EQ(a.unionCount(b), 4u);
    EXPECT_EQ(a.unite(b).size(), 4u);
    EXPECT_EQ(a.subtract(b).elements(), (std::vector<Element>{1}));
    a.add(10);
    EXPECT_TRUE(a.contains(10));
    a.discard(10);
    EXPECT_FALSE(a.contains(10));
    EXPECT_EQ(a.clone().size(), a.size());
}

} // namespace

// --- Batched vs serial engine dispatch ------------------------------------

#include <algorithm>

#include "algorithms/triangle_count.hpp"

namespace batch_engine_tests {

using namespace sisa;
using core::SetEngine;
using sets::Element;
using sets::SetRepr;

std::unique_ptr<SetEngine>
makeBatchEngine(const std::string &kind, Element universe)
{
    if (kind == "sisa") {
        return std::make_unique<core::SisaEngine>(
            universe, isa::ScuConfig{}, 1);
    }
    return std::make_unique<core::CpuSetEngine>(universe,
                                                sim::CpuParams{}, 1);
}

class BatchEngineTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BatchEngineTest, BatchedMatchesSerialOnRandomWorkloads)
{
    // Differential test over randomized workloads: executeBatch must
    // be bit-identical to the serial issue on BOTH engines -- same
    // per-op values, same result ids and elements, and identical
    // total setops.* counters (sisa engine).
    const Element universe = 2048;
    auto eng_b = makeBatchEngine(GetParam(), universe);
    auto eng_s = makeBatchEngine(GetParam(), universe);
    sim::SimContext ctx_b(1), ctx_s(1);

    std::uint64_t state = 2026;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    std::vector<core::SetId> pool_b, pool_s;
    for (int s = 0; s < 20; ++s) {
        std::vector<Element> elems;
        const std::uint64_t size = next() % 100;
        for (std::uint64_t e = 0; e < size; ++e)
            elems.push_back(static_cast<Element>(next() % universe));
        std::sort(elems.begin(), elems.end());
        elems.erase(std::unique(elems.begin(), elems.end()),
                    elems.end());
        const SetRepr repr = next() % 3 == 0 ? SetRepr::DenseBitvector
                                             : SetRepr::SparseArray;
        pool_b.push_back(eng_b->create(ctx_b, 0, elems, repr));
        pool_s.push_back(eng_s->create(ctx_s, 0, elems, repr));
    }

    core::BatchRequest req;
    for (int i = 0; i < 150; ++i) {
        const core::SetId a = pool_b[next() % pool_b.size()];
        const core::SetId b = pool_b[next() % pool_b.size()];
        switch (next() % 5) {
          case 0: req.intersect(a, b); break;
          case 1: req.setUnion(a, b); break;
          case 2: req.difference(a, b); break;
          case 3: req.intersectCard(a, b); break;
          default: req.unionCard(a, b); break;
        }
    }
    // The pools were built identically, so ids transfer verbatim.

    const core::BatchResult res = eng_b->executeBatch(ctx_b, 0, req);
    ASSERT_EQ(res.size(), req.size());

    for (std::size_t i = 0; i < req.size(); ++i) {
        const core::BatchOp &op = req.ops[i];
        const core::BatchEntry &entry = res.entries[i];
        switch (op.kind) {
          case core::BatchOpKind::Intersect: {
            const auto r = eng_s->intersect(ctx_s, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(eng_b->store().elementsOf(entry.set),
                      eng_s->store().elementsOf(r));
            break;
          }
          case core::BatchOpKind::Union: {
            const auto r = eng_s->setUnion(ctx_s, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(eng_b->store().elementsOf(entry.set),
                      eng_s->store().elementsOf(r));
            break;
          }
          case core::BatchOpKind::Difference: {
            const auto r = eng_s->difference(ctx_s, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(eng_b->store().elementsOf(entry.set),
                      eng_s->store().elementsOf(r));
            break;
          }
          case core::BatchOpKind::IntersectCard:
            EXPECT_EQ(entry.value,
                      eng_s->intersectCard(ctx_s, 0, op.a, op.b));
            break;
          case core::BatchOpKind::UnionCard:
            EXPECT_EQ(entry.value,
                      eng_s->unionCard(ctx_s, 0, op.a, op.b));
            break;
        }
    }

    for (const char *name :
         {"setops.streamed", "setops.probes", "setops.words",
          "setops.output"}) {
        EXPECT_EQ(ctx_b.counter(name), ctx_s.counter(name)) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, BatchEngineTest,
                         ::testing::Values("sisa", "set-based"));

TEST(BatchEngine, AlgorithmsAgreeWithAndWithoutCutoff)
{
    // The batched per-neighborhood loops preserve the exact pattern
    // accounting of the serial loops, including under cutoffs.
    const graph::Graph g = graph::erdosRenyi(120, 900, 11);
    for (const std::uint64_t cutoff : {0ull, 37ull}) {
        core::SisaEngine eng_a(g.numVertices(), isa::ScuConfig{}, 2);
        core::CpuSetEngine eng_b(g.numVertices(), sim::CpuParams{}, 2);
        sim::SimContext ctx_a(2), ctx_b(2);
        ctx_a.setPatternCutoff(cutoff);
        ctx_b.setPatternCutoff(cutoff);
        algorithms::OrientedSetGraph osg_a(g, eng_a);
        algorithms::OrientedSetGraph osg_b(g, eng_b);
        EXPECT_EQ(algorithms::triangleCount(osg_a, ctx_a),
                  algorithms::triangleCount(osg_b, ctx_b));
        EXPECT_EQ(ctx_a.totalPatterns(), ctx_b.totalPatterns());
    }
}

} // namespace batch_engine_tests
