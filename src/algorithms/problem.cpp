#include "algorithms/problem.hpp"

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/kclique_star.hpp"
#include "algorithms/subgraph_iso.hpp"
#include "algorithms/triangle_count.hpp"
#include "graph/generators.hpp"

namespace sisa::algorithms {

namespace {

using Kind = Problem::Kind;
using Measure = SimilarityMeasure;

/** One registry row: a problem and its columns. */
struct Row
{
    std::string_view name;
    Problem problem;
    std::uint64_t cutoff; ///< Default per-thread pattern cutoff.
    double tau;           ///< Jarvis-Patrick threshold (cl-* only).
    bool solo;            ///< Accepted by solo runs.
    bool serve;           ///< Accepted by serving.
};

constexpr Row kRows[] = {
    {"tc", {Kind::Tc}, 2000, 0.0, true, true},
    {"kcc-3", {Kind::KClique, 3}, 300, 0.0, true, true},
    {"kcc-4", {Kind::KClique, 4}, 300, 0.0, true, true},
    {"kcc-5", {Kind::KClique, 5}, 300, 0.0, true, true},
    {"kcc-6", {Kind::KClique, 6}, 300, 0.0, true, true},
    {"ksc-3", {Kind::KCliqueStar, 3}, 60, 0.0, true, false},
    {"ksc-4", {Kind::KCliqueStar, 4}, 60, 0.0, true, false},
    {"ksc-5", {Kind::KCliqueStar, 5}, 60, 0.0, true, false},
    {"ksc-6", {Kind::KCliqueStar, 6}, 60, 0.0, true, false},
    {"mc", {Kind::Mc}, 60, 0.0, true, true},
    {"si-4s", {Kind::Si}, 150, 0.0, true, false},
    {"si-4s-L", {Kind::Si, 0, {}, true}, 150, 0.0, true, false},
    {"cl-jac", {Kind::Clustering, 0, Measure::Jaccard}, 1500, 0.05, true,
     true},
    {"cl-ovr", {Kind::Clustering, 0, Measure::Overlap}, 1500, 0.05, true,
     true},
    {"cl-tot", {Kind::Clustering, 0, Measure::TotalNeighbors}, 1500, 2.0,
     true, true},
    {"lp", {Kind::Lp}, 0, 0.0, false, true},
};

const Row &
rowOf(const Problem &problem)
{
    for (const Row &row : kRows) {
        if (row.problem == problem)
            return row;
    }
    sisa_panic("Problem: not in the registry");
}

} // namespace

std::optional<Problem>
Problem::parse(std::string_view name, EntryPoint entry)
{
    for (const Row &row : kRows) {
        if (row.name == name &&
            (entry == EntryPoint::Solo ? row.solo : row.serve))
            return row.problem;
    }
    return std::nullopt;
}

std::vector<std::string>
Problem::names(EntryPoint entry)
{
    std::vector<std::string> names;
    for (const Row &row : kRows) {
        if (entry == EntryPoint::Solo ? row.solo : row.serve)
            names.emplace_back(row.name);
    }
    return names;
}

std::string
Problem::list(EntryPoint entry)
{
    std::string list;
    for (const std::string &name : names(entry)) {
        if (!list.empty())
            list += " | ";
        list += name;
    }
    return list;
}

std::string
Problem::name() const
{
    return std::string(rowOf(*this).name);
}

std::uint64_t
Problem::defaultCutoff() const
{
    return rowOf(*this).cutoff;
}

double
Problem::threshold() const
{
    return rowOf(*this).tau;
}

Graph
Problem::pattern() const
{
    return labelled ? labeledStarPattern(3, num_labels) : starPattern(3);
}

std::vector<graph::Label>
Problem::vertexLabels(VertexId n) const
{
    return graph::randomVertexLabels(n, num_labels, label_seed);
}

std::uint64_t
runOnSets(const Problem &problem, const ProblemSets &sets,
          sim::SimContext &ctx)
{
    sisa_assert(problem.kind == Kind::Lp ||
                    (problem.oriented() ? sets.oriented != nullptr
                                        : sets.undirected != nullptr),
                "runOnSets: ", problem.name(), " without its set graph");
    switch (problem.kind) {
      case Kind::Tc:
        return triangleCount(*sets.oriented, ctx);
      case Kind::KClique:
        return kCliqueCount(*sets.oriented, ctx, problem.k);
      case Kind::KCliqueStar:
        return kCliqueStarsJabbour(*sets.oriented, ctx, problem.k)
            .starCount;
      case Kind::Mc:
        return (sets.degeneracy
                    ? maximalCliques(*sets.undirected, *sets.degeneracy,
                                     ctx)
                    : maximalCliques(*sets.undirected, ctx))
            .cliqueCount;
      case Kind::Si:
        return subgraphIsomorphism(*sets.undirected, ctx,
                                   problem.pattern())
            .matches;
      case Kind::Clustering:
        return jarvisPatrick(*sets.undirected, ctx, problem.measure,
                             problem.threshold())
            .clusterEdges;
      case Kind::Lp:
        break;
    }
    sisa_fatal("runOnSets: lp builds its own sets; it is not run here");
}

} // namespace sisa::algorithms
