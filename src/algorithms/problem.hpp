/**
 * @file
 * The problem registry: every mining problem of the evaluation as one
 * typed value parsed through one table, and one set-centric dispatch
 * that runs it (Sections 4-5). The table's columns are the name, the
 * problem, its default pattern cutoff, its Jarvis-Patrick threshold,
 * and the entry points that accept it: solo runs (bench::runProblem,
 * sisa_run, the figure binaries) take every problem but lp; serving
 * (serve::serveMixedWorkload) takes tc, kcc-*, mc, cl-* and lp.
 */

#ifndef SISA_ALGORITHMS_PROBLEM_HPP
#define SISA_ALGORITHMS_PROBLEM_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/common.hpp"
#include "algorithms/similarity.hpp"

namespace sisa::algorithms {

/** The entry points that take a problem by name. */
enum class EntryPoint : std::uint8_t { Solo, Serve };

/** One registered problem, e.g. kcc-4 = {KClique, k = 4}. */
struct Problem
{
    /** One per formulation; problem.cpp's table names each problem. */
    enum class Kind : std::uint8_t {
        Tc, KClique, KCliqueStar, Mc, Si, Clustering, Lp
    };

    /** si-4s-L's random vertex labels: count and seed (Section 9.1). */
    static constexpr std::uint32_t num_labels = 3;
    static constexpr std::uint64_t label_seed = 7;

    Kind kind = Kind::Tc;
    std::uint32_t k = 0;         ///< Clique size (kcc-*, ksc-*).
    SimilarityMeasure measure{}; ///< Clustering measure (cl-*).
    bool labelled = false;       ///< Labelled vertices (si-4s-L).

    /** The problem named @p name, if @p entry accepts it. */
    static std::optional<Problem> parse(std::string_view name,
                                        EntryPoint entry);
    /** Every name @p entry accepts, in table order. */
    static std::vector<std::string> names(EntryPoint entry);
    /** The same names for messages: "tc | kcc-3 | ...". */
    static std::string list(EntryPoint entry);

    std::string name() const;
    /** Per-thread pattern cutoff that keeps a simulation tractable. */
    std::uint64_t defaultCutoff() const;
    /** Similarity threshold tau of a clustering problem. */
    double threshold() const;
    /** The pattern of si-*: a 3-leaf star, labelled for si-4s-L. */
    Graph pattern() const;
    /** si-4s-L's vertex labels for an @p n-vertex graph. */
    std::vector<graph::Label> vertexLabels(VertexId n) const;

    /** Runs on the degeneracy-oriented graph (tc, kcc-*, ksc-*). */
    bool
    oriented() const
    {
        return kind == Kind::Tc || kind == Kind::KClique ||
               kind == Kind::KCliqueStar;
    }

    bool operator==(const Problem &) const = default;
};

/** The neighborhood sets a problem's formulation runs on. */
struct ProblemSets
{
    OrientedSetGraph *oriented = nullptr; ///< When problem.oriented().
    SetGraph *undirected = nullptr;       ///< Otherwise.
    /** mc's outer order of the graph; computed when null. */
    const graph::DegeneracyResult *degeneracy = nullptr;
};

/**
 * Run @p problem's set-centric formulation on @p sets, charging
 * @p ctx, and return its count. lp builds its own sets and is not
 * run here.
 */
std::uint64_t runOnSets(const Problem &problem, const ProblemSets &sets,
                        sim::SimContext &ctx);

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_PROBLEM_HPP
