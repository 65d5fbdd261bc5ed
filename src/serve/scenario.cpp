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

bool
needsOrientation(const std::string &problem)
{
    return problem == "tc" || problem.rfind("kcc-", 0) == 0;
}

std::uint32_t
cliqueK(const std::string &problem)
{
    // validServeProblem vetted the suffix: a single digit 3..6.
    return static_cast<std::uint32_t>(problem[4] - '0');
}

algorithms::SimilarityMeasure
clusteringMeasure(const std::string &problem)
{
    if (problem == "cl-jac")
        return algorithms::SimilarityMeasure::Jaccard;
    if (problem == "cl-ovr")
        return algorithms::SimilarityMeasure::Overlap;
    return algorithms::SimilarityMeasure::TotalNeighbors;
}

/** Everything one tenant owns (engine, graph views, session). */
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
runQuery(Tenant &tenant, const QuerySpec &spec,
         const graph::Graph &graph)
{
    core::QuerySession &session = *tenant.session;
    if (spec.problem == "tc")
        return algorithms::triangleCount(*tenant.osg, session);
    if (spec.problem.rfind("kcc-", 0) == 0)
        return algorithms::kCliqueCount(*tenant.osg, session,
                                        cliqueK(spec.problem));
    if (spec.problem == "mc")
        return algorithms::maximalCliques(*tenant.sg, session)
            .cliqueCount;
    if (spec.problem.rfind("cl-", 0) == 0)
        return algorithms::jarvisPatrick(
                   *tenant.sg, session,
                   clusteringMeasure(spec.problem),
                   spec.problem == "cl-tot" ? 2.0 : 0.05)
            .clusterEdges;
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
    if (problem == "tc" || problem == "mc" || problem == "lp" ||
        problem == "cl-jac" || problem == "cl-ovr" ||
        problem == "cl-tot")
        return true;
    return problem.size() == 5 && problem.rfind("kcc-", 0) == 0 &&
           problem[4] >= '3' && problem[4] <= '6';
}

std::uint64_t
serveDefaultCutoff(const std::string &problem)
{
    if (problem == "tc")
        return 2000;
    if (problem.rfind("kcc-", 0) == 0)
        return 300;
    if (problem == "mc")
        return 60;
    if (problem.rfind("cl-", 0) == 0)
        return 1500;
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
    for (const QuerySpec &spec : config.queries) {
        sisa_assert(validServeProblem(spec.problem),
                    "serveMixedWorkload: unknown problem");
    }

    isa::QueryScheduler sched(config.policy, config.quantum);
    sched.setOverload(config.shed, config.admitCapacity,
                      config.scu.pim.vaults);
    std::vector<Tenant> tenants(config.queries.size());

    // Phase 1 (serial, this thread): per-tenant engines, sessions,
    // and graph state. Setup dispatches are not admission-gated and
    // the shared pool is single-dispatch, so this must not overlap
    // the concurrent phase. Enrollment order == spec order, which is
    // what FCFS arrival rank and Credit round-robin order mean.
    std::shared_ptr<isa::VaultWorkerPool> pool;
    for (std::size_t i = 0; i < config.queries.size(); ++i) {
        const QuerySpec &spec = config.queries[i];
        Tenant &t = tenants[i];
        t.engine = std::make_unique<core::SisaEngine>(
            graph.numVertices(), config.scu, config.threads);
        if (!pool)
            pool = t.engine->scu().sharedPool();
        else
            t.engine->scu().adoptPool(pool);
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
        if (needsOrientation(spec.problem)) {
            t.osg = std::make_unique<algorithms::OrientedSetGraph>(
                graph, *t.engine);
            installPlacement(*t.engine, config.placement,
                             config.scu.pim.vaults, *t.osg->sets);
        } else if (spec.problem != "lp") {
            t.sg = std::make_unique<core::SetGraph>(graph, *t.engine);
            installPlacement(*t.engine, config.placement,
                             config.scu.pim.vaults, *t.sg);
        }
        // lp builds its own sets during the query; placement stays
        // at the default (no neighborhood arcs to seed from yet).
    }

    // Phase 2: attach everything, then run. Attach comes after ALL
    // setup so no gated dispatch can start while another tenant is
    // still doing ungated setup work on the shared pool.
    for (Tenant &t : tenants)
        t.session->attach(*t.engine);

    std::vector<std::thread> threads;
    threads.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        threads.emplace_back([&, i] {
            Tenant &t = tenants[i];
            try {
                t.value = runQuery(t, config.queries[i], graph);
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
