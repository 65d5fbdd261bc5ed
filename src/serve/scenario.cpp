#include "serve/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/query_session.hpp"
#include "core/sisa_engine.hpp"
#include "sisa/placement.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace sisa::serve {

namespace {

/** A QuerySpec::problem, parsed once per serveMixedWorkload call. */
struct Problem
{
    enum class Kind : std::uint8_t { Tc, KClique, Mc, Clustering, Lp };

    Kind kind = Kind::Lp;
    std::uint32_t k = 0; ///< Clique size (KClique only).
    algorithms::SimilarityMeasure measure{}; ///< Clustering only.

    /** Runs on the degeneracy-oriented graph (tc, kcc-*). */
    bool oriented() const { return kind == Kind::Tc || kind == Kind::KClique; }
};

std::optional<Problem>
parseProblem(const std::string &name)
{
    using Kind = Problem::Kind;
    using algorithms::SimilarityMeasure;
    if (name == "tc")
        return Problem{Kind::Tc};
    if (name == "mc")
        return Problem{Kind::Mc};
    if (name == "lp")
        return Problem{Kind::Lp};
    if (name == "cl-jac")
        return Problem{Kind::Clustering, 0, SimilarityMeasure::Jaccard};
    if (name == "cl-ovr")
        return Problem{Kind::Clustering, 0, SimilarityMeasure::Overlap};
    if (name == "cl-tot")
        return Problem{Kind::Clustering, 0,
                       SimilarityMeasure::TotalNeighbors};
    if (name.size() == 5 && name.rfind("kcc-", 0) == 0 &&
        name[4] >= '3' && name[4] <= '6')
        return Problem{Kind::KClique,
                       static_cast<std::uint32_t>(name[4] - '0')};
    return std::nullopt;
}

/**
 * Everything one tenant owns: its engine (SCU, store, vault state),
 * its session, and the neighborhood sets it built in that store. The
 * input graph, its degeneracy order and the oriented graph are the
 * call's, read-only and shared by every tenant that needs them.
 */
struct Tenant
{
    std::unique_ptr<core::SisaEngine> engine;
    std::unique_ptr<core::QuerySession> session;
    std::unique_ptr<algorithms::OrientedSetGraph> osg;
    std::unique_ptr<core::SetGraph> sg;
    std::uint64_t value = 0;
    std::exception_ptr error;
};

/** Install the named placement policy over @p sg's traffic arcs. */
void
installPlacement(core::SisaEngine &engine, const std::string &name,
                 std::uint32_t vaults, const core::SetGraph &sg)
{
    const std::optional<isa::PlacementKind> kind =
        isa::parsePlacement(name);
    if (!kind) {
        sisa_fatal("unknown placement policy '", name, "' (",
                   isa::placementNames(), ")");
    }
    if (*kind == isa::PlacementKind::Hash)
        return; // Hash is the SCU's default placement.
    engine.scu().setPlacement(isa::makePlacement(
        *kind, vaults, [&] { return core::placementArcs(sg); }));
}

std::uint64_t
runQuery(Tenant &tenant, const Problem &problem,
         const algorithms::DegeneracyOrientation &prep,
         const graph::Graph &graph)
{
    core::QuerySession &session = *tenant.session;
    switch (problem.kind) {
    case Problem::Kind::Tc:
        return algorithms::triangleCount(*tenant.osg, session);
    case Problem::Kind::KClique:
        return algorithms::kCliqueCount(*tenant.osg, session, problem.k);
    case Problem::Kind::Mc:
        return algorithms::maximalCliques(*tenant.sg, *prep.degeneracy,
                                          session)
            .cliqueCount;
    case Problem::Kind::Clustering:
        return algorithms::jarvisPatrick(
                   *tenant.sg, session, problem.measure,
                   problem.measure ==
                           algorithms::SimilarityMeasure::TotalNeighbors
                       ? 2.0
                       : 0.05)
            .clusterEdges;
    case Problem::Kind::Lp:
        break;
    }
    // lp: the query owns all its sets; only the graph is shared.
    return algorithms::linkPredictionTest(
               session, graph,
               algorithms::SimilarityMeasure::CommonNeighbors, 0.1,
               /*seed=*/7)
        .correct;
}

} // namespace

bool
validServeProblem(const std::string &problem)
{
    return parseProblem(problem).has_value();
}

std::uint64_t
serveDefaultCutoff(const std::string &problem)
{
    const std::optional<Problem> parsed = parseProblem(problem);
    if (!parsed)
        return 0;
    switch (parsed->kind) {
    case Problem::Kind::Tc:
        return 2000;
    case Problem::Kind::KClique:
        return 300;
    case Problem::Kind::Mc:
        return 60;
    case Problem::Kind::Clustering:
        return 1500;
    case Problem::Kind::Lp:
        break;
    }
    return 0; // lp has no pattern cutoff.
}

std::vector<mem::Cycles>
poissonArrivals(std::uint64_t seed, double mean, std::size_t n)
{
    sisa_assert(mean > 0.0, "poissonArrivals: mean must be positive");
    support::SplitMix64 rng(seed);
    std::vector<mem::Cycles> arrivals;
    arrivals.reserve(n);
    double clock = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // 53-bit mantissa uniform in (0, 1]: never feeds log() zero.
        const double u =
            1.0 - static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        clock += -mean * std::log(u);
        arrivals.push_back(static_cast<mem::Cycles>(clock));
    }
    return arrivals;
}

ScenarioReport
serveMixedWorkload(const graph::Graph &graph,
                   const ScenarioConfig &config)
{
    sisa_assert(!config.queries.empty(),
                "serveMixedWorkload: no queries");
    std::vector<Problem> problems;
    problems.reserve(config.queries.size());
    for (const QuerySpec &spec : config.queries) {
        const std::optional<Problem> problem = parseProblem(spec.problem);
        sisa_assert(problem.has_value(),
                    "serveMixedWorkload: unknown problem");
        problems.push_back(*problem);
    }

    // Graph-only preparation, computed at most once per call and only
    // if some tenant needs it: the exact degeneracy order (mc, tc,
    // kcc-*) and the graph oriented by it (tc, kcc-*). Every tenant
    // reads the one copy; each still builds its own sets over it.
    const auto any = [&](auto pred) {
        return std::any_of(problems.begin(), problems.end(), pred);
    };
    algorithms::DegeneracyOrientation prep;
    if (any([](const Problem &p) { return p.oriented(); })) {
        prep = algorithms::orientByDegeneracy(graph);
    } else if (any([](const Problem &p) {
                   return p.kind == Problem::Kind::Mc;
               })) {
        prep.degeneracy = std::make_shared<const graph::DegeneracyResult>(
            graph::exactDegeneracyOrder(graph));
    }

    isa::QueryScheduler sched(config.policy, config.quantum);
    sched.setOverload(config.shed, config.admitCapacity,
                      config.scu.pim.vaults);
    std::vector<Tenant> tenants(config.queries.size());

    // Phase 1 (serial, this thread): per-tenant engines, sessions,
    // and graph state. Setup dispatches are not admission-gated, so
    // this must not overlap the concurrent phase. Enrollment order ==
    // spec order, which is what FCFS arrival rank and Credit
    // round-robin order mean.
    for (std::size_t i = 0; i < config.queries.size(); ++i) {
        const QuerySpec &spec = config.queries[i];
        Tenant &t = tenants[i];
        t.engine = std::make_unique<core::SisaEngine>(
            graph.numVertices(), config.scu, config.threads);
        isa::AdmissionSpec admission;
        admission.priority = spec.priority;
        admission.arrival = spec.arrival;
        admission.deadline = spec.deadline;
        admission.faultBudget = spec.faultBudget;
        t.session = std::make_unique<core::QuerySession>(
            spec.problem, sched, config.threads, admission);
        t.session->ctx().setPatternCutoff(
            spec.cutoff != 0 ? spec.cutoff
                             : serveDefaultCutoff(spec.problem));
        if (problems[i].oriented()) {
            t.osg = std::make_unique<algorithms::OrientedSetGraph>(
                graph, prep, *t.engine);
            installPlacement(*t.engine, config.placement,
                             config.scu.pim.vaults, *t.osg->sets);
        } else if (problems[i].kind != Problem::Kind::Lp) {
            t.sg = std::make_unique<core::SetGraph>(graph, *t.engine);
            installPlacement(*t.engine, config.placement,
                             config.scu.pim.vaults, *t.sg);
        }
        // lp builds its own sets during the query; placement stays
        // at the default (no neighborhood arcs to seed from yet).
    }

    // Phase 2: attach everything, then run. Attach comes after ALL
    // setup so no gated dispatch can start while another tenant is
    // still doing ungated setup work.
    for (Tenant &t : tenants)
        t.session->attach(*t.engine);

    std::vector<std::thread> threads;
    threads.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        threads.emplace_back([&, i] {
            Tenant &t = tenants[i];
            try {
                t.value = runQuery(t, problems[i], prep, graph);
            } catch (const isa::QueryCancelledError &) {
                // A lifecycle verdict (TimedOut / Shed / Aborted),
                // not an error: the report carries the state and the
                // query's value stays 0.
            } catch (...) {
                t.error = std::current_exception();
            }
            // Retire even on error: a query that never leaves would
            // park every co-tenant forever (lockstep grants).
            try {
                t.session->finish();
            } catch (...) {
                if (!t.error)
                    t.error = std::current_exception();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (Tenant &t : tenants) {
        if (t.error)
            std::rethrow_exception(t.error);
    }

    ScenarioReport report;
    report.queries.reserve(tenants.size());
    report.admissionLog = sched.model().admissionLog();
    report.lifecycleLog = sched.model().lifecycleLog();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Tenant &t = tenants[i];
        QueryReport qr;
        qr.problem = config.queries[i].problem;
        qr.id = t.session->id();
        qr.value = t.value;
        qr.ownCycles = sched.model().ownCycles(qr.id);
        qr.completion = sched.model().completion(qr.id);
        qr.state = sched.model().state(qr.id);
        qr.arrival = sched.model().arrival(qr.id);
        qr.deadline = sched.model().deadline(qr.id);
        qr.deadlineMet = sched.model().deadlineMet(qr.id);
        qr.faults = t.session->faults();
        qr.account = t.session->ctx().queryAccount(qr.id);
        report.makespan = std::max(report.makespan, qr.completion);
        report.queries.push_back(std::move(qr));
    }
    return report;
}

} // namespace sisa::serve
