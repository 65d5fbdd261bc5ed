/** @file Correctness tests for every set-centric algorithm. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/kclique_star.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/similarity.hpp"
#include "algorithms/subgraph_iso.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/clustering_baseline.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace {

using namespace sisa;
using namespace sisa::algorithms;
using sisa::tests::refCommonNeighbors;
using sisa::tests::refKCliqueCount;
using sisa::tests::refMaximalCliques;
using sisa::tests::refStarEmbeddings;
using sisa::tests::refTriangleCount;

std::unique_ptr<core::SetEngine>
makeEngine(const std::string &kind, sets::Element universe,
           std::uint32_t threads)
{
    if (kind == "sisa") {
        return std::make_unique<core::SisaEngine>(
            universe, isa::ScuConfig{}, threads);
    }
    return std::make_unique<core::CpuSetEngine>(
        universe, sim::CpuParams{}, threads);
}

/** Engine kind x thread count sweep for the correctness tests. */
class AlgoTest
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
  protected:
    const char *
    kind() const
    {
        return std::get<0>(GetParam());
    }

    std::uint32_t
    threads() const
    {
        return static_cast<std::uint32_t>(std::get<1>(GetParam()));
    }
};

INSTANTIATE_TEST_SUITE_P(
    EnginesAndThreads, AlgoTest,
    ::testing::Combine(::testing::Values("sisa", "set-based"),
                       ::testing::Values(1, 4)));

TEST_P(AlgoTest, TriangleCountMatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(60, 240, 5);
    auto eng = makeEngine(kind(), 60, threads());
    sim::SimContext ctx(threads());
    OrientedSetGraph osg(g, *eng);
    EXPECT_EQ(triangleCount(osg, ctx), refTriangleCount(g));
}

TEST_P(AlgoTest, TriangleCountNodeIteratorAgrees)
{
    const graph::Graph g = graph::erdosRenyi(40, 160, 9);
    auto eng = makeEngine(kind(), 40, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    EXPECT_EQ(triangleCountNodeIterator(sg, ctx), refTriangleCount(g));
}

TEST_P(AlgoTest, TriangleVariantsAgree)
{
    const graph::Graph g = graph::erdosRenyi(50, 220, 17);
    auto eng = makeEngine(kind(), 50, threads());
    sim::SimContext ctx(threads());
    OrientedSetGraph osg(g, *eng);
    const auto expected = refTriangleCount(g);
    EXPECT_EQ(triangleCount(osg, ctx, core::SisaOp::IntersectMerge),
              expected);
    EXPECT_EQ(triangleCount(osg, ctx, core::SisaOp::IntersectGallop),
              expected);
}

TEST_P(AlgoTest, MaximalCliques)
{
    const graph::Graph g = graph::erdosRenyi(30, 120, 7);
    auto eng = makeEngine(kind(), 30, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    const auto ref = refMaximalCliques(g);
    std::set<std::vector<graph::VertexId>> found;
    const auto result = maximalCliques(
        sg, ctx, [&](const std::vector<graph::VertexId> &clique) {
            std::vector<graph::VertexId> sorted(clique);
            std::sort(sorted.begin(), sorted.end());
            found.insert(sorted);
        });
    EXPECT_EQ(result.cliqueCount, ref.size());
    EXPECT_EQ(found.size(), ref.size());
    for (const auto &clique : ref)
        EXPECT_TRUE(found.contains(clique));
}

TEST_P(AlgoTest, MaximalCliquesOnCompleteGraph)
{
    auto eng = makeEngine(kind(), 9, threads());
    sim::SimContext ctx(threads());
    const graph::Graph g = graph::complete(9);
    core::SetGraph sg(g, *eng);
    const auto result = maximalCliques(sg, ctx);
    EXPECT_EQ(result.cliqueCount, 1u);
    EXPECT_EQ(result.maxCliqueSize, 9u);
}

graph::Graph
sharedPrepGraph()
{
    graph::RmatParams params;
    params.scale = 7;
    params.edgeFactor = 8;
    return graph::rmat(params, 42);
}

void
expectSameAccount(const sim::QueryAccount &a, const sim::QueryAccount &b)
{
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.stall, b.stall);
    EXPECT_EQ(a.counters, b.counters);
}

TEST_P(AlgoTest, SharedOrientationMatchesSelfComputed)
{
    // One precomputed orientation backing two engines must be
    // indistinguishable from each engine computing its own: same
    // order, oriented CSR, set ids and representations, and
    // bit-identical tc / kcc-4 values and tagged accounts.
    const graph::Graph g = sharedPrepGraph();
    const DegeneracyOrientation prep = orientByDegeneracy(g);
    for (const std::uint32_t k : {3u, 4u}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        auto self_eng = makeEngine(kind(), g.numVertices(), threads());
        auto shared_eng =
            makeEngine(kind(), g.numVertices(), threads());
        OrientedSetGraph self(g, *self_eng);
        OrientedSetGraph shared(g, prep, *shared_eng);
        EXPECT_EQ(shared.oriented.get(), prep.oriented.get());
        EXPECT_EQ(shared.degeneracy->order, self.degeneracy->order);
        EXPECT_EQ(shared.degeneracy->rank, self.degeneracy->rank);
        ASSERT_EQ(shared.oriented->numEdges(),
                  self.oriented->numEdges());
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            const auto a = self.oriented->neighbors(v);
            const auto b = shared.oriented->neighbors(v);
            ASSERT_TRUE(
                std::equal(a.begin(), a.end(), b.begin(), b.end()))
                << "vertex " << v;
            EXPECT_EQ(shared.sets->neighborhood(v),
                      self.sets->neighborhood(v));
            EXPECT_EQ(shared.sets->representation(v),
                      self.sets->representation(v));
        }

        sim::SimContext self_ctx(threads());
        sim::SimContext shared_ctx(threads());
        self_ctx.bindQuery(0);
        shared_ctx.bindQuery(0);
        const std::uint64_t self_value =
            k == 3 ? triangleCount(self, self_ctx)
                   : kCliqueCount(self, self_ctx, k);
        const std::uint64_t shared_value =
            k == 3 ? triangleCount(shared, shared_ctx)
                   : kCliqueCount(shared, shared_ctx, k);
        EXPECT_EQ(shared_value, self_value);
        EXPECT_EQ(self_value, refKCliqueCount(g, k));
        expectSameAccount(shared_ctx.queryAccount(0),
                          self_ctx.queryAccount(0));
    }
}

TEST_P(AlgoTest, MaximalCliquesGivenOrderMatchesDefault)
{
    const graph::Graph g = sharedPrepGraph();
    const graph::DegeneracyResult order = graph::exactDegeneracyOrder(g);
    auto default_eng = makeEngine(kind(), g.numVertices(), threads());
    auto given_eng = makeEngine(kind(), g.numVertices(), threads());
    core::SetGraph default_sg(g, *default_eng);
    core::SetGraph given_sg(g, *given_eng);
    sim::SimContext default_ctx(threads());
    sim::SimContext given_ctx(threads());
    default_ctx.bindQuery(0);
    given_ctx.bindQuery(0);
    const MaximalCliqueResult by_default =
        maximalCliques(default_sg, default_ctx);
    const MaximalCliqueResult given =
        maximalCliques(given_sg, order, given_ctx);
    EXPECT_EQ(given.cliqueCount, by_default.cliqueCount);
    EXPECT_EQ(given.maxCliqueSize, by_default.maxCliqueSize);
    EXPECT_EQ(by_default.cliqueCount, refMaximalCliques(g).size());
    expectSameAccount(given_ctx.queryAccount(0),
                      default_ctx.queryAccount(0));
}

TEST_P(AlgoTest, KCliqueCounts)
{
    const graph::Graph g = graph::erdosRenyi(35, 180, 3);
    auto eng = makeEngine(kind(), 35, threads());
    sim::SimContext ctx(threads());
    OrientedSetGraph osg(g, *eng);
    for (std::uint32_t k : {3u, 4u, 5u})
        EXPECT_EQ(kCliqueCount(osg, ctx, k), refKCliqueCount(g, k))
            << "k=" << k;
}

TEST_P(AlgoTest, KCliqueListEnumeratesDistinctCliques)
{
    const graph::Graph g = graph::complete(6);
    auto eng = makeEngine(kind(), 6, threads());
    sim::SimContext ctx(threads());
    OrientedSetGraph osg(g, *eng);
    std::set<std::vector<graph::VertexId>> cliques;
    kCliqueList(osg, ctx, 3,
                [&](sim::ThreadId, const std::vector<graph::VertexId> &c) {
                    std::vector<graph::VertexId> s(c);
                    std::sort(s.begin(), s.end());
                    cliques.insert(s);
                });
    EXPECT_EQ(cliques.size(), 20u); // C(6,3).
}

TEST_P(AlgoTest, KCliqueStarDeduplicatesStars)
{
    // K5 plus pendant: every 3-clique of K5 grows to all of K5, so
    // the ten 3-cliques of K5 yield exactly one distinct star.
    graph::GraphBuilder b(7);
    for (graph::VertexId u = 0; u < 5; ++u) {
        for (graph::VertexId v = u + 1; v < 5; ++v)
            b.addEdge(u, v);
    }
    b.addEdge(0, 5);
    b.addEdge(5, 6);
    const graph::Graph g = b.build();

    auto eng = makeEngine(kind(), 7, threads());
    sim::SimContext ctx(threads());
    OrientedSetGraph osg(g, *eng);
    const KcsResult jabbour = kCliqueStarsJabbour(osg, ctx, 3);
    EXPECT_EQ(jabbour.starCount, 1u);
    EXPECT_EQ(jabbour.memberTotal, 5u);
}

TEST_P(AlgoTest, SimilarityMeasures)
{
    // 0 and 1 share neighbors {2, 3}; degrees: |N(0)|=3, |N(1)|=3.
    graph::GraphBuilder b(6);
    b.addEdge(0, 2);
    b.addEdge(0, 3);
    b.addEdge(0, 4);
    b.addEdge(1, 2);
    b.addEdge(1, 3);
    b.addEdge(1, 5);
    const graph::Graph g = b.build();
    auto eng = makeEngine(kind(), 6, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);

    EXPECT_DOUBLE_EQ(vertexSimilarity(sg, ctx, 0, 0, 1,
                                      SimilarityMeasure::CommonNeighbors),
                     2.0);
    EXPECT_DOUBLE_EQ(vertexSimilarity(sg, ctx, 0, 0, 1,
                                      SimilarityMeasure::TotalNeighbors),
                     4.0);
    EXPECT_DOUBLE_EQ(vertexSimilarity(sg, ctx, 0, 0, 1,
                                      SimilarityMeasure::Jaccard),
                     0.5);
    EXPECT_DOUBLE_EQ(vertexSimilarity(sg, ctx, 0, 0, 1,
                                      SimilarityMeasure::Overlap),
                     2.0 / 3.0);
    EXPECT_DOUBLE_EQ(
        vertexSimilarity(sg, ctx, 0, 0, 1,
                         SimilarityMeasure::PreferentialAttachment),
        9.0);
    // Adamic-Adar: common nbrs 2 and 3 both have degree 2.
    EXPECT_NEAR(vertexSimilarity(sg, ctx, 0, 0, 1,
                                 SimilarityMeasure::AdamicAdar),
                2.0 / std::log(2.0), 1e-9);
    EXPECT_DOUBLE_EQ(
        vertexSimilarity(sg, ctx, 0, 0, 1,
                         SimilarityMeasure::ResourceAllocation),
        1.0);
}

TEST_P(AlgoTest, SimilarityAgreesWithReferenceOnRandomPairs)
{
    const graph::Graph g = graph::erdosRenyi(40, 200, 31);
    auto eng = makeEngine(kind(), 40, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    for (graph::VertexId u = 0; u < 10; ++u) {
        const graph::VertexId v = u + 10;
        EXPECT_DOUBLE_EQ(
            vertexSimilarity(sg, ctx, 0, u, v,
                             SimilarityMeasure::CommonNeighbors),
            static_cast<double>(refCommonNeighbors(g, u, v)));
    }
}

TEST_P(AlgoTest, JarvisPatrickThresholdZeroSelectsTriangleEdges)
{
    // With tau = 0 and Common Neighbors, an edge joins C iff its
    // endpoints share a neighbor, i.e., iff it lies in a triangle.
    const graph::Graph g = graph::erdosRenyi(40, 160, 23);
    auto eng = makeEngine(kind(), 40, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    const auto result = jarvisPatrick(
        sg, ctx, SimilarityMeasure::CommonNeighbors, 0.0);
    std::uint64_t expected = 0;
    for (graph::VertexId u = 0; u < 40; ++u) {
        for (graph::VertexId v : g.neighbors(u)) {
            if (u < v && refCommonNeighbors(g, u, v) > 0)
                ++expected;
        }
    }
    EXPECT_EQ(result.clusterEdges, expected);
}

TEST_P(AlgoTest, JarvisPatrickHighThresholdSelectsNothing)
{
    const graph::Graph g = graph::erdosRenyi(30, 90, 2);
    auto eng = makeEngine(kind(), 30, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    const auto result = jarvisPatrick(
        sg, ctx, SimilarityMeasure::CommonNeighbors, 1e9);
    EXPECT_EQ(result.clusterEdges, 0u);
    EXPECT_EQ(result.clusterCount, 0u);
}

TEST(JarvisPatrickDeathTest, RejectsAMeasureThatDoesNotBatch)
{
    const graph::Graph g = graph::erdosRenyi(20, 40, 3);
    auto eng = makeEngine("sisa", 20, 1);
    sim::SimContext ctx(1);
    core::SetGraph sg(g, *eng);
    EXPECT_EXIT(jarvisPatrick(sg, ctx, SimilarityMeasure::AdamicAdar, 0.5),
                ::testing::ExitedWithCode(1), "measure 'aa' does not batch");
}

TEST_P(AlgoTest, SubgraphIsoStarCounts)
{
    const graph::Graph g = graph::erdosRenyi(25, 60, 37);
    auto eng = makeEngine(kind(), 25, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    const auto result =
        subgraphIsomorphism(sg, ctx, starPattern(2));
    EXPECT_EQ(result.matches, refStarEmbeddings(g, 2));
}

TEST_P(AlgoTest, SubgraphIsoTrianglePattern)
{
    const graph::Graph g = graph::erdosRenyi(25, 100, 41);
    auto eng = makeEngine(kind(), 25, threads());
    sim::SimContext ctx(threads());
    core::SetGraph sg(g, *eng);
    const auto result =
        subgraphIsomorphism(sg, ctx, cliquePattern(3));
    // Each triangle has 3! = 6 embeddings.
    EXPECT_EQ(result.matches, 6 * refTriangleCount(g));
}

TEST_P(AlgoTest, LabeledSubgraphIsoRestrictsMatches)
{
    graph::Graph g = graph::erdosRenyi(30, 120, 43);
    g.setVertexLabels(graph::randomVertexLabels(30, 3, 7));

    auto eng1 = makeEngine(kind(), 30, threads());
    sim::SimContext ctx1(threads());
    core::SetGraph sg1(g, *eng1);
    const auto unlabeled =
        subgraphIsomorphism(sg1, ctx1, starPattern(2));

    auto eng2 = makeEngine(kind(), 30, threads());
    sim::SimContext ctx2(threads());
    core::SetGraph sg2(g, *eng2);
    const auto labeled =
        subgraphIsomorphism(sg2, ctx2, labeledStarPattern(2, 3));

    EXPECT_LT(labeled.matches, unlabeled.matches);
}

TEST_P(AlgoTest, LinkPredictionRecoversPlantedStructure)
{
    // Dense community graphs make removed links predictable.
    graph::PlantedCliqueParams pc;
    pc.count = 6;
    pc.minSize = 6;
    pc.maxSize = 8;
    const graph::Graph g =
        graph::plantCliques(graph::erdosRenyi(60, 60, 3), pc, 11);
    auto eng = makeEngine(kind(), 60, threads());
    sim::SimContext ctx(threads());
    const auto result = linkPredictionTest(
        *eng, g, ctx, SimilarityMeasure::CommonNeighbors, 0.1, 99);
    EXPECT_GT(result.removedEdges, 0u);
    EXPECT_EQ(result.predictedEdges, result.removedEdges);
    // Far better than chance: at least 20% of removed links found.
    EXPECT_GT(result.effectiveness(), 0.2);
}

TEST_P(AlgoTest, PatternCutoffBoundsWork)
{
    const graph::Graph g = graph::complete(30); // Many triangles.
    auto eng = makeEngine(kind(), 30, threads());
    sim::SimContext ctx(threads());
    ctx.setPatternCutoff(10);
    OrientedSetGraph osg(g, *eng);
    triangleCount(osg, ctx);
    // Every thread stops at (or just past) its cutoff.
    for (sim::ThreadId t = 0; t < threads(); ++t)
        EXPECT_LE(ctx.patterns(t), 10u + 30u); // One batch overshoot.
    EXPECT_LT(ctx.totalPatterns(), 3u * 10u * threads() + 100u);
}

/** FNV-1a over 64-bit words, for the Jarvis-Patrick edge-walk pin. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Graphs whose upper-edge rows are empty, uneven or one-sided. */
std::vector<std::pair<const char *, graph::Graph>>
edgeWalkGraphs()
{
    std::vector<std::pair<const char *, graph::Graph>> graphs;
    // Two triangles, 6 edges: at 7 threads one block is empty.
    // Vertices 0-2, 6-13, 16, 18 and 19 are isolated.
    graph::GraphBuilder isolated(20);
    const graph::VertexId triangles[][3] = {{3, 4, 5}, {14, 15, 17}};
    for (const auto &t : triangles) {
        isolated.addEdge(t[0], t[1]);
        isolated.addEdge(t[0], t[2]);
        isolated.addEdge(t[1], t[2]);
    }
    graphs.emplace_back("isolated", isolated.build());
    // Vertices 5 and 10-17 see only smaller ids: their rows hold no
    // edge u < v, in the middle and at the end of the walk.
    graph::GraphBuilder lower(18);
    for (graph::VertexId u = 0; u < 4; ++u)
        lower.addEdge(u, u + 1);
    lower.addEdge(5, 0);
    lower.addEdge(5, 2);
    lower.addEdge(5, 3);
    for (graph::VertexId v = 10; v < 18; ++v) {
        lower.addEdge(v, v % 7);
        lower.addEdge(v, (v * 3) % 9);
    }
    graphs.emplace_back("lower", lower.build());
    graphs.emplace_back("star", graph::star(30));
    graphs.emplace_back("er", graph::erdosRenyi(60, 300, 17));
    return graphs;
}

/** Edges u < v whose endpoints share at least one neighbor. */
std::uint64_t
triangleEdges(const graph::Graph &g)
{
    std::uint64_t edges = 0;
    for (graph::VertexId u = 0; u < g.numVertices(); ++u) {
        for (graph::VertexId v : g.neighbors(u)) {
            if (u < v && refCommonNeighbors(g, u, v) > 0)
                ++edges;
        }
    }
    return edges;
}

TEST(JarvisPatrickPin, EdgeWalkPinned)
{
    // Which thread scores which edge, in which order, and where a
    // cutoff stops it: every modeled thread's busy cycles, on both
    // engines and the non-set baseline, over graphs that give empty
    // and uneven thread blocks (2 to 300 edges over 1, 3 or 7
    // threads). A change to how Jarvis-Patrick enumerates its edges
    // must reproduce these exactly.
    struct Measure
    {
        SimilarityMeasure measure;
        baselines::ClusterCoefficient coefficient;
        double tau;
    };
    const Measure measures[] = {
        {SimilarityMeasure::Jaccard, baselines::ClusterCoefficient::Jaccard,
         0.0},
        {SimilarityMeasure::TotalNeighbors,
         baselines::ClusterCoefficient::TotalNeighbors, 4.0},
    };
    const char *const runners[] = {"sisa", "set-based", "non-set"};
    std::map<std::string, std::uint64_t> digests;
    for (const auto &[name, g] : edgeWalkGraphs()) {
        for (const char *runner : runners) {
            Digest digest;
            for (const std::uint32_t threads : {1u, 3u, 7u}) {
                for (const std::uint64_t cutoff : {0u, 5u}) {
                    for (const Measure &m : measures) {
                        sim::SimContext ctx(threads);
                        ctx.setPatternCutoff(cutoff);
                        ClusteringResult result;
                        if (std::string(runner) == "non-set") {
                            sim::CpuModel cpu(sim::CpuParams{}, threads);
                            baselines::CsrView view(g, cpu);
                            result.clusterEdges =
                                baselines::jarvisPatrickBaseline(
                                    view, ctx, m.coefficient, m.tau);
                        } else {
                            auto eng = makeEngine(runner, g.numVertices(),
                                                  threads);
                            core::SetGraph sg(g, *eng);
                            result = jarvisPatrick(sg, ctx, m.measure,
                                                   m.tau);
                        }
                        if (cutoff == 0 &&
                            m.measure == SimilarityMeasure::Jaccard) {
                            EXPECT_EQ(result.clusterEdges,
                                      triangleEdges(g))
                                << name << " " << runner << " T="
                                << threads;
                        }
                        digest.add(result.clusterEdges);
                        digest.add(result.clusterCount);
                        for (sim::ThreadId t = 0; t < threads; ++t)
                            digest.add(ctx.threadBusy(t));
                    }
                }
            }
            digests[std::string(name) + "/" + runner] = digest.value();
        }
    }
    const std::map<std::string, std::uint64_t> pinned = {
        {"er/non-set", 0x1c895b3873aeeb27ULL},
        {"er/set-based", 0x34cada63515c8747ULL},
        {"er/sisa", 0xa72d701325c98d72ULL},
        {"isolated/non-set", 0xa5b5362a4435ffc7ULL},
        {"isolated/set-based", 0x5bd60ba09f2646deULL},
        {"isolated/sisa", 0x5c5ef1ca583cf628ULL},
        {"lower/non-set", 0xe735a5a9e09fbdc8ULL},
        {"lower/set-based", 0x5736a2c53c644767ULL},
        {"lower/sisa", 0x72116aa7270abe95ULL},
        {"star/non-set", 0x1f719fcec8e0de1aULL},
        {"star/set-based", 0x3965a166c8623f57ULL},
        {"star/sisa", 0x61d9d08c1e24734fULL},
    };
    EXPECT_EQ(digests, pinned);
}

} // namespace
