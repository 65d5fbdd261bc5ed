/** @file Unit tests for the graph substrate. */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/dataset_registry.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace {

using namespace sisa::graph;

Graph
triangleWithTail()
{
    // 0-1-2 triangle plus a tail 2-3.
    GraphBuilder b(4);
    b.addEdge(0, 1);
    b.addEdge(1, 2);
    b.addEdge(0, 2);
    b.addEdge(2, 3);
    return b.build();
}

TEST(GraphBuilder, CountsAndMirrors)
{
    const Graph g = triangleWithTail();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(2), 3u);
    EXPECT_EQ(g.degree(3), 1u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0)); // Mirrored.
    EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops)
{
    GraphBuilder b(3);
    b.addEdge(0, 1);
    b.addEdge(1, 0); // Duplicate in the other direction.
    b.addEdge(0, 1); // Exact duplicate.
    b.addEdge(2, 2); // Self loop.
    const Graph g = b.build();
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphBuilder, NeighborsSorted)
{
    GraphBuilder b(5);
    b.addEdge(0, 4);
    b.addEdge(0, 2);
    b.addEdge(0, 3);
    b.addEdge(0, 1);
    const Graph g = b.build();
    const auto nbrs = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphBuilder, DirectedKeepsArcDirection)
{
    GraphBuilder b(3, /*directed=*/true);
    b.addEdge(0, 1);
    b.addEdge(1, 2);
    const Graph g = b.build();
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 0));
    EXPECT_EQ(g.numEdges(), 2u);
}

/**
 * Reference CSR from a std::set of arcs: the plain definition the
 * builder must match (self-loops dropped, duplicates collapsed, both
 * directions stored when undirected, rows sorted).
 */
void
expectMatchesReference(const Graph &g, VertexId n, bool directed,
                       const std::vector<std::pair<VertexId, VertexId>> &in)
{
    std::set<std::pair<VertexId, VertexId>> arcs;
    for (auto [u, v] : in) {
        if (u == v)
            continue;
        arcs.emplace(u, v);
        if (!directed)
            arcs.emplace(v, u);
    }
    std::vector<std::uint64_t> offsets(n + 1, 0);
    std::vector<VertexId> adj;
    for (auto [u, v] : arcs) {
        ++offsets[u + 1];
        adj.push_back(v);
    }
    for (VertexId v = 0; v < n; ++v)
        offsets[v + 1] += offsets[v];

    ASSERT_EQ(g.numVertices(), n);
    EXPECT_EQ(g.directed(), directed);
    EXPECT_EQ(g.numEdges(), directed ? arcs.size() : arcs.size() / 2);
    EXPECT_TRUE(std::equal(offsets.begin(), offsets.end(),
                           g.offsetsData()));
    EXPECT_TRUE(std::equal(adj.begin(), adj.end(), g.adjData()));
}

TEST(GraphBuilder, MatchesStdSetReference)
{
    sisa::support::Xoshiro256 rng(2024);
    for (std::uint32_t trial = 0; trial < 200; ++trial) {
        const bool directed = trial % 2 == 1;
        // n = 0 and n = 1 first, then up to 40 vertices with many
        // isolated ones at low arc counts.
        const auto n = static_cast<VertexId>(
            trial < 4 ? trial / 2 : 2 + rng.nextBounded(39));
        const std::uint64_t arcs =
            n == 0 ? 0 : rng.nextBounded(4 * std::uint64_t{n});
        std::vector<std::pair<VertexId, VertexId>> in;
        for (std::uint64_t i = 0; i < arcs; ++i) {
            const auto u = static_cast<VertexId>(rng.nextBounded(n));
            const auto v = static_cast<VertexId>(rng.nextBounded(n));
            in.emplace_back(u, v);
            if (rng.nextBounded(4) == 0)
                in.emplace_back(v, u); // Reversed duplicate.
            if (rng.nextBounded(8) == 0)
                in.emplace_back(u, u); // Self-loop.
        }
        GraphBuilder b(n, directed);
        for (auto [u, v] : in)
            b.addEdge(u, v);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatchesReference(b.build(), n, directed, in);
        // A second build() sees an empty builder.
        expectMatchesReference(b.build(), n, directed, {});
    }
}

/** Same shape, same CSR arrays, same vertex labels. */
void
expectSameGraph(const Graph &got, const Graph &want)
{
    ASSERT_EQ(got.numVertices(), want.numVertices());
    EXPECT_EQ(got.directed(), want.directed());
    ASSERT_EQ(got.numEdges(), want.numEdges());
    const VertexId n = want.numVertices();
    EXPECT_TRUE(std::equal(want.offsetsData(), want.offsetsData() + n + 1,
                           got.offsetsData()));
    EXPECT_TRUE(std::equal(want.adjData(),
                           want.adjData() + want.offsetsData()[n],
                           got.adjData()));
    ASSERT_EQ(got.hasVertexLabels(), want.hasVertexLabels());
    for (VertexId v = 0; want.hasVertexLabels() && v < n; ++v)
        EXPECT_EQ(got.vertexLabel(v), want.vertexLabel(v));
}

TEST(Graph, OrientByRankMatchesBuilder)
{
    // Filtering rows directly must equal orienting through a builder,
    // for permutation ranks and for ranks with ties (a tied edge
    // keeps neither direction), with and without vertex labels.
    sisa::support::Xoshiro256 rng(77);
    for (std::uint32_t trial = 0; trial < 240; ++trial) {
        const auto n = static_cast<VertexId>(2 + rng.nextBounded(39));
        const std::uint64_t m = rng.nextBounded(
            std::uint64_t{n} * (n - 1) / 2 + 1);
        Graph g = erdosRenyi(n, m, trial);
        if (trial % 4 == 0)
            g.setVertexLabels(randomVertexLabels(n, 3, trial));

        std::vector<std::uint32_t> rank(n);
        if (trial % 2 == 0) {
            std::iota(rank.begin(), rank.end(), 0);
            for (VertexId i = n; i > 1; --i)
                std::swap(rank[i - 1], rank[rng.nextBounded(i)]);
        } else {
            for (auto &r : rank)
                r = static_cast<std::uint32_t>(rng.nextBounded(n / 2 + 1));
        }

        GraphBuilder b(n, /*directed=*/true);
        for (VertexId u = 0; u < n; ++u) {
            for (VertexId v : g.neighbors(u)) {
                if (rank[u] < rank[v])
                    b.addEdge(u, v);
            }
        }
        Graph want = b.build();
        if (g.hasVertexLabels())
            want.setVertexLabels(randomVertexLabels(n, 3, trial));
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSameGraph(g.orientByRank(rank), want);
    }
}

TEST(Generators, PlantCliquesMatchesOneBuilder)
{
    // Merging the clique graph into the base row by row must equal
    // adding every base edge and every clique edge to one builder.
    // The clique edges are what plantCliques plants on an edgeless
    // graph: the member draws depend on n and the seed only. Small n
    // and many groups make cliques overlap base edges and each other.
    sisa::support::Xoshiro256 rng(91);
    for (std::uint32_t trial = 0; trial < 200; ++trial) {
        const auto n = static_cast<VertexId>(6 + rng.nextBounded(35));
        const std::uint64_t m = rng.nextBounded(
            std::uint64_t{n} * (n - 1) / 2 + 1);
        const Graph base = erdosRenyi(n, m, trial);
        PlantedCliqueParams p;
        p.count = static_cast<std::uint32_t>(rng.nextBounded(8));
        p.minSize = 2 + static_cast<std::uint32_t>(rng.nextBounded(4));
        p.maxSize = p.minSize + static_cast<std::uint32_t>(
                                    rng.nextBounded(n - p.minSize + 1));
        p.density = trial % 3 == 0 ? 0.6 : 1.0;

        const Graph cliques = plantCliques(GraphBuilder(n).build(), p, trial);
        GraphBuilder b(n);
        for (const Graph *g : {&base, &cliques}) {
            for (VertexId u = 0; u < n; ++u) {
                for (VertexId v : g->neighbors(u))
                    b.addEdge(u, v);
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSameGraph(plantCliques(base, p, trial), b.build());
    }
}

TEST(Graph, EdgeIndexFindsPosition)
{
    const Graph g = triangleWithTail();
    EXPECT_GE(g.edgeIndex(0, 1), 0);
    EXPECT_EQ(g.edgeIndex(0, 3), -1);
}

TEST(Graph, MaxDegree)
{
    const Graph g = star(5); // Center degree 4, leaves degree 1.
    EXPECT_EQ(g.maxDegree(), 4u);
}

TEST(Graph, OrientByRankHalvesArcs)
{
    const Graph g = complete(6);
    std::vector<std::uint32_t> rank(6);
    std::iota(rank.begin(), rank.end(), 0);
    const Graph d = g.orientByRank(rank);
    EXPECT_TRUE(d.directed());
    EXPECT_EQ(d.numEdges(), 15u); // C(6,2) arcs, one per edge.
    EXPECT_TRUE(d.hasEdge(0, 5));
    EXPECT_FALSE(d.hasEdge(5, 0));
    EXPECT_EQ(d.degree(5), 0u); // Last in rank: no out-arcs.
}

TEST(Graph, UpperEdgesWalkFromAnyIndex)
{
    // Isolated vertices, rows with no edge u < v in the middle and at
    // the end, an empty graph, and a directed graph.
    GraphBuilder sparse(12);
    for (const auto &[u, v] : std::vector<std::pair<VertexId, VertexId>>{
             {1, 4}, {4, 2}, {6, 0}, {6, 3}, {7, 8}, {11, 1}, {11, 8}})
        sparse.addEdge(u, v);
    GraphBuilder arcs(5, true);
    for (const auto &[u, v] : std::vector<std::pair<VertexId, VertexId>>{
             {0, 3}, {3, 0}, {2, 1}, {2, 4}, {4, 3}})
        arcs.addEdge(u, v);
    for (const Graph &g : {sparse.build(), arcs.build(), Graph(),
                           erdosRenyi(50, 300, 3), star(9)}) {
        std::vector<Edge> expected;
        for (VertexId u = 0; u < g.numVertices(); ++u) {
            for (VertexId v : g.neighbors(u)) {
                if (u < v)
                    expected.push_back({u, v});
            }
        }
        const UpperEdges edges(g);
        ASSERT_EQ(edges.size(), expected.size());
        if (!g.directed()) {
            EXPECT_EQ(edges.size(), g.numEdges());
        }
        for (std::uint64_t from = 0; from <= expected.size(); ++from) {
            UpperEdges::Walk walk = edges.walkFrom(from);
            for (std::uint64_t i = from; i < expected.size(); ++i)
                ASSERT_EQ(walk.next(), expected[i]) << from << " " << i;
        }
    }
}

TEST(Graph, InducedSubgraphRenumbers)
{
    const Graph g = triangleWithTail();
    const Graph sub = g.inducedSubgraph({0, 1, 2});
    EXPECT_EQ(sub.numVertices(), 3u);
    EXPECT_EQ(sub.numEdges(), 3u); // The triangle survives.
    const Graph sub2 = g.inducedSubgraph({0, 3});
    EXPECT_EQ(sub2.numEdges(), 0u); // 0 and 3 are not adjacent.
}

TEST(Graph, VertexLabels)
{
    Graph g = triangleWithTail();
    g.setVertexLabels({7, 8, 9, 7});
    EXPECT_TRUE(g.hasVertexLabels());
    EXPECT_EQ(g.vertexLabel(2), 9u);
    const Graph sub = g.inducedSubgraph({2, 3});
    EXPECT_EQ(sub.vertexLabel(0), 9u);
    EXPECT_EQ(sub.vertexLabel(1), 7u);
}

TEST(Graph, EdgeLabels)
{
    Graph g = triangleWithTail();
    g.setEdgeLabels([](VertexId u, VertexId v) { return u + v; });
    EXPECT_TRUE(g.hasEdgeLabels());
    EXPECT_EQ(g.edgeLabel(0, 1), 1u);
    EXPECT_EQ(g.edgeLabel(1, 0), 1u); // Symmetric function.
    EXPECT_EQ(g.edgeLabel(2, 3), 5u);
}

TEST(Degeneracy, StarIsOne)
{
    const auto result = exactDegeneracyOrder(star(10));
    EXPECT_EQ(result.degeneracy, 1u);
}

TEST(Degeneracy, CompleteIsNMinusOne)
{
    const auto result = exactDegeneracyOrder(complete(7));
    EXPECT_EQ(result.degeneracy, 6u);
}

TEST(Degeneracy, CycleIsTwo)
{
    const auto result = exactDegeneracyOrder(cycle(9));
    EXPECT_EQ(result.degeneracy, 2u);
}

TEST(Degeneracy, PathIsOne)
{
    const auto result = exactDegeneracyOrder(path(9));
    EXPECT_EQ(result.degeneracy, 1u);
}

TEST(Degeneracy, OrderIsAPermutation)
{
    const Graph g = erdosRenyi(100, 300, 1);
    const auto result = exactDegeneracyOrder(g);
    std::vector<bool> seen(100, false);
    for (VertexId v : result.order) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
    for (VertexId v = 0; v < 100; ++v) {
        EXPECT_TRUE(seen[v]);
        EXPECT_EQ(result.order[result.rank[v]], v);
    }
}

TEST(Degeneracy, OrientedOutDegreeBoundedByDegeneracy)
{
    // The defining property of the degeneracy orientation.
    const Graph g = erdosRenyi(200, 800, 3);
    const auto result = exactDegeneracyOrder(g);
    const Graph d = g.orientByRank(result.rank);
    for (VertexId v = 0; v < 200; ++v)
        EXPECT_LE(d.degree(v), result.degeneracy);
}

TEST(Generators, ErdosRenyiEdgeCount)
{
    const Graph g = erdosRenyi(50, 200, 11);
    EXPECT_EQ(g.numVertices(), 50u);
    EXPECT_EQ(g.numEdges(), 200u);
}

TEST(Generators, ErdosRenyiDeterministic)
{
    const Graph a = erdosRenyi(60, 150, 5);
    const Graph b = erdosRenyi(60, 150, 5);
    for (VertexId v = 0; v < 60; ++v)
        EXPECT_EQ(a.degree(v), b.degree(v));
}

TEST(Generators, CompleteStarPathCycle)
{
    EXPECT_EQ(complete(5).numEdges(), 10u);
    EXPECT_EQ(star(5).numEdges(), 4u);
    EXPECT_EQ(path(5).numEdges(), 4u);
    EXPECT_EQ(cycle(5).numEdges(), 5u);
}

TEST(Generators, RmatShape)
{
    RmatParams p;
    p.scale = 8;
    p.edgeFactor = 8;
    const Graph g = rmat(p, 42);
    EXPECT_EQ(g.numVertices(), 256u);
    EXPECT_GT(g.numEdges(), 500u); // Some dedup losses are expected.
    EXPECT_LE(g.numEdges(), 2048u);
}

TEST(Generators, ChungLuHubsCreateHeavyTail)
{
    ChungLuParams p;
    p.n = 2000;
    p.m = 20000;
    p.exponent = 1.9;
    p.hubs = 10;
    p.hubDegreeFraction = 0.3;
    const Graph g = chungLu(p, 9);
    // At least one vertex should reach a significant fraction of n.
    EXPECT_GT(g.maxDegree(), g.numVertices() / 6);
}

TEST(Generators, ChungLuDegreeCapLightensTail)
{
    ChungLuParams p;
    p.n = 2000;
    p.m = 20000;
    p.exponent = 2.9;
    p.maxDegreeFraction = 0.03;
    const Graph g = chungLu(p, 9);
    // The cap bounds the expected max degree at 60; allow sampling
    // noise above it but far below the uncapped ~500.
    EXPECT_LT(g.maxDegree(), 160u);
}

TEST(Generators, ChungLuHitsEdgeTarget)
{
    ChungLuParams p;
    p.n = 1700;
    p.m = 34000;
    p.exponent = 1.9;
    p.hubs = 8;
    p.hubDegreeFraction = 0.4;
    const Graph g = chungLu(p, 4);
    EXPECT_GE(g.numEdges(), p.m * 95 / 100);
}

TEST(Generators, PlantCliquesAddsCliques)
{
    const Graph base = erdosRenyi(100, 50, 3);
    PlantedCliqueParams p;
    p.count = 3;
    p.minSize = 5;
    p.maxSize = 5;
    const Graph g = plantCliques(base, p, 17);
    EXPECT_GE(g.numEdges(), base.numEdges());
    // A planted 5-clique forces degeneracy >= 4.
    EXPECT_GE(exactDegeneracyOrder(g).degeneracy, 4u);
}

/** A CSR graph's identity: n, m and an FNV-1a digest of every arc. */
struct GraphPin
{
    VertexId n;
    std::uint64_t m;
    std::uint64_t digest;

    friend bool operator==(const GraphPin &, const GraphPin &) = default;
};

std::ostream &
operator<<(std::ostream &os, const GraphPin &p)
{
    return os << "{" << p.n << ", " << p.m << ", 0x" << std::hex
              << p.digest << std::dec << "ULL}";
}

GraphPin
pinOf(const Graph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId w : g.neighbors(v)) {
            h ^= (static_cast<std::uint64_t>(v) << 32) | w;
            h *= 0x100000001b3ULL;
        }
    }
    return {g.numVertices(), g.numEdges(), h};
}

TEST(Generators, OutputDigestsPinned)
{
    // Every generator and builder path, pinned arc for arc: a change
    // to how graphs are built must reproduce these exactly, or every
    // modeled cycle count downstream silently moves.
    ChungLuParams heavy;
    heavy.n = 1500;
    heavy.m = 30000;
    heavy.exponent = 1.9;
    heavy.hubs = 8;
    heavy.hubDegreeFraction = 0.4;
    PlantedCliqueParams cliques;
    cliques.count = 20;
    cliques.minSize = 6;
    cliques.maxSize = 18;
    EXPECT_EQ(pinOf(plantCliques(chungLu(heavy, 31), cliques, 32)),
              (GraphPin{1500, 31237, 0x1faa783fb975a9a1ULL}));

    RmatParams rp;
    rp.scale = 10;
    EXPECT_EQ(pinOf(rmat(rp, 7)),
              (GraphPin{1024, 10579, 0xde094d9decb0ccf1ULL}));
    const Graph er = erdosRenyi(3000, 40000, 5);
    EXPECT_EQ(pinOf(er),
              (GraphPin{3000, 40000, 0xf49695a5233db50eULL}));
    // 1700 of the 1770 possible edges: the top-up loop does the work.
    EXPECT_EQ(pinOf(erdosRenyi(60, 1700, 9)),
              (GraphPin{60, 1700, 0x58c5084077739d66ULL}));
    // The other exit: the heavy tail spends most draws on pairs of
    // low ids already seen, and the 30m + 1000 budget runs out 103
    // edges short of m = 1760.
    ChungLuParams dense;
    dense.n = 60;
    dense.m = 1760;
    dense.exponent = 1.9;
    dense.hubs = 2;
    dense.hubDegreeFraction = 0.9;
    EXPECT_EQ(pinOf(chungLu(dense, 5)),
              (GraphPin{60, 1657, 0xb4fb4c9dde115ad8ULL}));
    // Here a few draws past the budget would still find new edges, so
    // a loop that overshoots the 73,450th draw moves the digest.
    dense.n = 70;
    dense.m = 2415;
    dense.exponent = 1.7;
    EXPECT_EQ(pinOf(chungLu(dense, 6)),
              (GraphPin{70, 1620, 0xe68464669ef196edULL}));

    EXPECT_EQ(pinOf(er.orientByRank(exactDegeneracyOrder(er).rank)),
              (GraphPin{3000, 40000, 0xf0fba5d8c626f4e3ULL}));
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < er.numVertices(); v += 3)
        keep.push_back(v);
    EXPECT_EQ(pinOf(er.inducedSubgraph(keep)),
              (GraphPin{1000, 4460, 0x86e7d3ec39399b0ULL}));

    sisa::support::Xoshiro256 rng(11);
    GraphBuilder directed(200, /*directed=*/true);
    for (int i = 0; i < 3000; ++i) {
        directed.addEdge(static_cast<VertexId>(rng.nextBounded(200)),
                         static_cast<VertexId>(rng.nextBounded(200)));
    }
    EXPECT_EQ(pinOf(directed.build()),
              (GraphPin{200, 2865, 0x3e54fc6c68b9d709ULL}));

    std::stringstream text("5 3\n3 5\n3 5\n7 7\n0 9\n9 0\n2 4\n# c\n"
                           "4 2\n1 1\n8 6\n");
    EXPECT_EQ(pinOf(readEdgeList(text)),
              (GraphPin{10, 4, 0x33eaaf1dae890e3aULL}));

    const std::pair<const char *, GraphPin> datasets[] = {
        {"bio-SC-GT", {1700, 35019, 0x8a12ce760c446665ULL}},
        {"bn-mouse", {1100, 91017, 0xa1771121b1ceb539ULL}},
        {"dimacs-c500-9", {501, 112000, 0x87be569bf877c47ULL}},
        {"int-HosWardProx", {1800, 1494, 0x56e3751b024539a3ULL}},
    };
    for (const auto &[name, pin] : datasets)
        EXPECT_EQ(pinOf(makeDataset(name)), pin) << name;
}

TEST(Generators, RejectImpossibleTargets)
{
    // More distinct edges than n(n-1)/2, or a clique larger than the
    // graph, can never be drawn: reject instead of returning fewer
    // edges or drawing members forever.
    ChungLuParams p;
    p.n = 10;
    p.m = 46; // n(n-1)/2 = 45.
    EXPECT_EXIT(chungLu(p, 1), ::testing::ExitedWithCode(1),
                "exceeds n\\(n-1\\)/2=45");
    PlantedCliqueParams cliques;
    cliques.count = 1;
    cliques.minSize = 4;
    cliques.maxSize = 11;
    EXPECT_EXIT(plantCliques(complete(10), cliques, 1),
                ::testing::ExitedWithCode(1), "maxSize=11 exceeds n=10");
}

TEST(Generators, RandomLabelsInRange)
{
    const auto labels = randomVertexLabels(500, 3, 77);
    EXPECT_EQ(labels.size(), 500u);
    for (Label l : labels)
        EXPECT_LT(l, 3u);
}

TEST(Io, RoundTrip)
{
    const Graph g = erdosRenyi(40, 100, 2);
    std::stringstream ss;
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.neighbors(u)) {
            if (u < v)
                ss << u << ' ' << v << '\n';
        }
    }
    const Graph h = readEdgeList(ss);
    ASSERT_EQ(h.numVertices(), g.numVertices());
    EXPECT_EQ(h.numEdges(), g.numEdges());
    for (VertexId v = 0; v < 40; ++v)
        EXPECT_EQ(h.degree(v), g.degree(v));
}

TEST(Io, SkipsComments)
{
    std::stringstream ss("# comment\n% other\n0 1\n1 2\n");
    const Graph g = readEdgeList(ss);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Io, TolerantOfBlankLinesAndIndentation)
{
    std::stringstream ss("\n  \t\n  0 1\n1\t2  \n");
    const Graph g = readEdgeList(ss);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Io, MalformedInputThrowsTypedError)
{
    // Each case must throw GraphIoError carrying the offending
    // 1-based line -- never crash, never return a partial graph.
    const std::pair<const char *, std::uint64_t> cases[] = {
        {"0 1\nx 2\n", 2},        // non-numeric id
        {"0 1\n-1 2\n", 2},       // negative id
        {"0 1\n2\n", 2},          // truncated pair
        {"0 1\n1 2 3\n", 2},      // trailing junk
        {"12junk 1\n", 1},        // junk glued to a number
        {"0 1\n1 4294967296\n", 2}, // VertexId overflow
        {"0 1\n4294967295 2\n", 2}, // invalid_vertex itself
        {"0 1\n1 1e3\n", 2},      // exponent notation
    };
    for (const auto &[text, line] : cases) {
        std::stringstream ss(text);
        try {
            readEdgeList(ss);
            FAIL() << "accepted malformed input: " << text;
        } catch (const GraphIoError &e) {
            EXPECT_EQ(e.line(), line) << text;
            EXPECT_NE(std::string(e.what()).find("line"),
                      std::string::npos);
        }
    }
}

TEST(Io, MissingFileThrowsTypedError)
{
    EXPECT_THROW(readEdgeListFile("/nonexistent/sisa_io_test.txt"),
                 GraphIoError);
}

TEST(Registry, AllDatasetsResolvable)
{
    for (const auto &spec : allDatasets()) {
        EXPECT_NO_FATAL_FAILURE(findDataset(spec.name));
        EXPECT_GT(spec.vertices, 0u);
        EXPECT_GT(spec.edges, 0u);
    }
}

TEST(Registry, SmallSuiteHasTwentyGraphs)
{
    EXPECT_EQ(fig6Suite().size(), 20u);
}

TEST(Registry, LargeSuiteScaled)
{
    for (const auto &spec : largeSuite()) {
        EXPECT_TRUE(spec.large);
        EXPECT_FALSE(spec.scaleNote.empty());
        EXPECT_LE(spec.edges, spec.paperEdges);
    }
}

TEST(Registry, HeavyTailGraphsAreHeavier)
{
    const Graph heavy = makeDataset("bio-SC-GT");
    const Graph light = makeDataset("soc-fbMsg");
    const double heavy_frac =
        static_cast<double>(heavy.maxDegree()) / heavy.numVertices();
    const double light_frac =
        static_cast<double>(light.maxDegree()) / light.numVertices();
    EXPECT_GT(heavy_frac, light_frac);
}

TEST(Registry, Deterministic)
{
    const Graph a = makeDataset("int-antCol3-d1");
    const Graph b = makeDataset("int-antCol3-d1");
    ASSERT_EQ(a.numVertices(), b.numVertices());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (VertexId v = 0; v < a.numVertices(); ++v)
        EXPECT_EQ(a.degree(v), b.degree(v));
}

class RegistrySweep
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RegistrySweep, SizesNearSpec)
{
    const DatasetSpec &spec = findDataset(GetParam());
    const Graph g = makeDataset(spec);
    EXPECT_EQ(g.numVertices(), spec.vertices);
    // Generators hit the edge target within 20% (dedup losses).
    const double ratio = static_cast<double>(g.numEdges()) /
                         static_cast<double>(spec.edges);
    EXPECT_GT(ratio, 0.7) << spec.name;
    EXPECT_LT(ratio, 1.3) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, RegistrySweep,
    ::testing::Values("bio-SC-GT", "bn-mouse", "int-antCol3-d1",
                      "econ-beacxc", "soc-fbMsg", "dimacs-c500-9",
                      "int-HosWardProx", "bio-HS-LC"));

} // namespace
