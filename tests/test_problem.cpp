/**
 * @file
 * The problem registry (algorithms/problem.hpp): every listed name
 * parses and prints back, unknown names are rejected at both entry
 * points, the default cutoffs and thresholds are the evaluation's,
 * and si-4s-L is labelled by construction.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "algorithms/problem.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "serve/scenario.hpp"

namespace {

using namespace sisa;
using algorithms::EntryPoint;
using algorithms::Problem;
using Kind = Problem::Kind;

constexpr EntryPoint kEntries[] = {EntryPoint::Solo, EntryPoint::Serve};

/** @p name parsed at @p entry; a rejected name fails the test. */
Problem
parsed(std::string_view name, EntryPoint entry)
{
    const std::optional<Problem> problem = Problem::parse(name, entry);
    EXPECT_TRUE(problem.has_value()) << name;
    return problem.value_or(Problem{});
}

TEST(ProblemRegistry, EveryListedNameParsesAndPrintsBack)
{
    for (const EntryPoint entry : kEntries) {
        for (const std::string &name : Problem::names(entry)) {
            SCOPED_TRACE(name);
            EXPECT_EQ(parsed(name, entry).name(), name);
        }
    }
    EXPECT_EQ(Problem::list(EntryPoint::Solo),
              "tc | kcc-3 | kcc-4 | kcc-5 | kcc-6 | ksc-3 | ksc-4 | ksc-5 | "
              "ksc-6 | mc | si-4s | si-4s-L | cl-jac | cl-ovr | cl-tot");
    EXPECT_EQ(Problem::list(EntryPoint::Serve),
              "tc | kcc-3 | kcc-4 | kcc-5 | kcc-6 | mc | cl-jac | cl-ovr | "
              "cl-tot | lp");
    EXPECT_EQ(Problem::names(EntryPoint::Solo).size(), 15u);
    EXPECT_EQ(Problem::names(EntryPoint::Serve).size(), 10u);
}

TEST(ProblemRegistry, RejectsUnknownNames)
{
    for (const char *name : {"", "kcc-", "kcc-2", "kcc-7", "ksc-10",
                             "cl-foo", "si-4s-X", "pagerank"}) {
        SCOPED_TRACE(name);
        EXPECT_FALSE(Problem::parse(name, EntryPoint::Solo));
        EXPECT_FALSE(Problem::parse(name, EntryPoint::Serve));
    }
}

TEST(ProblemRegistry, EntryPointsSplitOneTable)
{
    // The serving verdicts the scenario's own parser used to give.
    EXPECT_FALSE(Problem::parse("pagerank", EntryPoint::Serve));
    EXPECT_FALSE(Problem::parse("kcc-7", EntryPoint::Serve));
    EXPECT_FALSE(Problem::parse("kcc-", EntryPoint::Serve));
    EXPECT_TRUE(Problem::parse("kcc-3", EntryPoint::Serve));
    EXPECT_TRUE(Problem::parse("tc", EntryPoint::Serve));
    EXPECT_TRUE(Problem::parse("cl-ovr", EntryPoint::Serve));
    EXPECT_TRUE(Problem::parse("lp", EntryPoint::Serve));
    // Solo runs take everything but lp; serving has no ksc-* or si-*.
    EXPECT_FALSE(Problem::parse("lp", EntryPoint::Solo));
    for (const char *name : {"ksc-3", "ksc-6", "si-4s", "si-4s-L"}) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(Problem::parse(name, EntryPoint::Solo));
        EXPECT_FALSE(Problem::parse(name, EntryPoint::Serve));
    }
}

TEST(ProblemRegistry, ParsesIntoTypedFields)
{
    const Problem kcc = parsed("kcc-4", EntryPoint::Solo);
    EXPECT_EQ(kcc.kind, Kind::KClique);
    EXPECT_EQ(kcc.k, 4u);
    EXPECT_TRUE(kcc.oriented());
    const Problem ksc = parsed("ksc-6", EntryPoint::Solo);
    EXPECT_EQ(ksc.kind, Kind::KCliqueStar);
    EXPECT_EQ(ksc.k, 6u);
    EXPECT_TRUE(ksc.oriented());
    EXPECT_TRUE(parsed("tc", EntryPoint::Solo).oriented());
    EXPECT_FALSE(parsed("mc", EntryPoint::Solo).oriented());

    using Measure = algorithms::SimilarityMeasure;
    const std::map<std::string, std::pair<Measure, double>> clustering{
        {"cl-jac", {Measure::Jaccard, 0.05}},
        {"cl-ovr", {Measure::Overlap, 0.05}},
        {"cl-tot", {Measure::TotalNeighbors, 2.0}}};
    for (const auto &[name, expected] : clustering) {
        SCOPED_TRACE(name);
        const Problem cl = parsed(name, EntryPoint::Serve);
        EXPECT_EQ(cl.kind, Kind::Clustering);
        EXPECT_EQ(cl.measure, expected.first);
        EXPECT_EQ(cl.threshold(), expected.second);
        EXPECT_FALSE(cl.oriented());
    }
}

TEST(ProblemRegistry, DefaultCutoffsMatchTheEvaluationTables)
{
    const std::map<std::string, std::uint64_t> expected{
        {"tc", 2000},    {"kcc-3", 300},   {"kcc-4", 300},
        {"kcc-5", 300},  {"kcc-6", 300},   {"ksc-3", 60},
        {"ksc-4", 60},   {"ksc-5", 60},    {"ksc-6", 60},
        {"mc", 60},      {"si-4s", 150},   {"si-4s-L", 150},
        {"cl-jac", 1500}, {"cl-ovr", 1500}, {"cl-tot", 1500},
        {"lp", 0}};
    std::set<std::string> listed;
    for (const EntryPoint entry : kEntries) {
        for (const std::string &name : Problem::names(entry)) {
            SCOPED_TRACE(name);
            listed.insert(name);
            ASSERT_TRUE(expected.contains(name));
            EXPECT_EQ(parsed(name, entry).defaultCutoff(),
                      expected.at(name));
            if (entry == EntryPoint::Serve) {
                EXPECT_EQ(serve::serveDefaultCutoff(name),
                          expected.at(name));
            }
        }
    }
    EXPECT_EQ(listed.size(), expected.size());
    EXPECT_EQ(serve::serveDefaultCutoff("ksc-4"), 0u);
    EXPECT_EQ(serve::serveDefaultCutoff("pagerank"), 0u);
}

TEST(ProblemRegistry, Si4sLIsLabelledByConstruction)
{
    const Problem labelled = parsed("si-4s-L", EntryPoint::Solo);
    const Problem plain = parsed("si-4s", EntryPoint::Solo);
    EXPECT_EQ(labelled.kind, Kind::Si);
    EXPECT_EQ(plain.kind, Kind::Si);
    EXPECT_TRUE(labelled.labelled);
    EXPECT_FALSE(plain.labelled);
    EXPECT_TRUE(labelled.pattern().hasVertexLabels());
    EXPECT_FALSE(plain.pattern().hasVertexLabels());
    // Section 9.1's three random labels, always drawn with seed 7.
    EXPECT_EQ(labelled.vertexLabels(500),
              graph::randomVertexLabels(500, 3, 7));

    // On the graph labelled by the problem, the labelled pattern
    // matches a strict subset of the unlabelled star embeddings.
    graph::Graph g = graph::erdosRenyi(60, 300, 11);
    g.setVertexLabels(labelled.vertexLabels(g.numVertices()));
    const auto count = [&g](const Problem &problem) {
        core::SisaEngine engine(g.numVertices(), isa::ScuConfig{}, 2);
        core::SetGraph sg(g, engine);
        sim::SimContext ctx(2);
        return algorithms::runOnSets(problem, {.undirected = &sg}, ctx);
    };
    const std::uint64_t labelled_matches = count(labelled);
    EXPECT_GT(labelled_matches, 0u);
    EXPECT_LT(labelled_matches, count(plain));
}

} // namespace
