#include "serve/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "algorithms/link_prediction.hpp"
#include "algorithms/problem.hpp"
#include "core/query_session.hpp"
#include "core/sisa_engine.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace sisa::serve {

namespace {

using algorithms::EntryPoint;
using algorithms::Problem;

/**
 * One set graph of a call -- the oriented one (tc, kcc-*) or the
 * undirected one (mc, cl-*) -- built once in the builder's store,
 * which every tenant that needs it reads in place as its shared
 * read-only base (payloads and Set Metadata alike, nothing copied),
 * plus the placement policy over its arcs.
 */
struct SharedSets
{
    std::unique_ptr<core::SisaEngine> builder; ///< Owns the base store.
    std::unique_ptr<algorithms::OrientedSetGraph> osg; ///< Oriented.
    std::unique_ptr<core::SetGraph> sg;                ///< Undirected.
    /** nullptr under hash placement, the SCU's default. */
    std::shared_ptr<const isa::PlacementPolicy> placement;
};

/**
 * Everything one tenant owns: its engine (SCU, vault state, and a
 * store holding the sets the query creates and their SM entries),
 * its session, and its view of the call's shared neighborhood sets.
 * The input graph, its degeneracy order, the oriented graph, the
 * neighborhood sets with their SM entries, the view's id and
 * representation tables and the placement policy are the call's,
 * read-only and shared by every tenant that needs them, so a
 * tenant's host memory is what its query creates.
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

std::uint64_t
runQuery(Tenant &tenant, const Problem &problem,
         const algorithms::DegeneracyOrientation &prep,
         const graph::Graph &graph)
{
    core::QuerySession &session = *tenant.session;
    if (problem.kind == Problem::Kind::Lp) {
        // lp: the query owns all its sets; only the graph is shared.
        return algorithms::linkPredictionTest(
                   session.engine(), graph, session.ctx(),
                   algorithms::SimilarityMeasure::CommonNeighbors, 0.1,
                   /*seed=*/7)
            .correct;
    }
    core::SetGraph &sets = tenant.osg ? *tenant.osg->sets : *tenant.sg;
    sisa_assert(&sets.engine() == &session.engine(),
                "runQuery: session is bound to a different engine "
                "than the graph's");
    return algorithms::runOnSets(
        problem,
        {tenant.osg.get(), tenant.sg.get(), prep.degeneracy.get()},
        session.ctx());
}

} // namespace

std::uint64_t
serveDefaultCutoff(const std::string &problem)
{
    const std::optional<Problem> parsed =
        Problem::parse(problem, EntryPoint::Serve);
    return parsed ? parsed->defaultCutoff() : 0;
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
        const std::optional<Problem> problem =
            Problem::parse(spec.problem, EntryPoint::Serve);
        sisa_assert(problem.has_value(),
                    "serveMixedWorkload: unknown problem");
        problems.push_back(*problem);
    }

    // Preparation computed at most once per call and only if some
    // tenant needs it: the exact degeneracy order (mc, tc, kcc-*),
    // the graph oriented by it (tc, kcc-*), and the neighborhood sets
    // of the oriented graph (tc, kcc-*) and of the undirected one
    // (mc, cl-*), each with its placement policy. Every tenant reads
    // the one copy: its store sits on the shared sets and hands out
    // the same ids and locations a private build would, so every
    // modeled number equals that of a tenant with private sets.
    const auto any = [&](auto pred) {
        return std::any_of(problems.begin(), problems.end(), pred);
    };
    const auto undirected = [](const Problem &p) {
        return !p.oriented() && p.kind != Problem::Kind::Lp;
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
    const auto newBuilder = [&] {
        return std::make_unique<core::SisaEngine>(
            graph.numVertices(), isa::ScuConfig{}, 1);
    };
    SharedSets orientedSets;
    SharedSets undirectedSets;
    if (prep.oriented) {
        orientedSets.builder = newBuilder();
        orientedSets.osg = std::make_unique<algorithms::OrientedSetGraph>(
            graph, prep, *orientedSets.builder);
        orientedSets.placement =
            core::makePlacement(config.placement, config.scu.pim.vaults,
                                *orientedSets.osg->sets);
    }
    if (any(undirected)) {
        undirectedSets.builder = newBuilder();
        undirectedSets.sg =
            std::make_unique<core::SetGraph>(graph, *undirectedSets.builder);
        undirectedSets.placement = core::makePlacement(
            config.placement, config.scu.pim.vaults, *undirectedSets.sg);
    }

    isa::QueryScheduler sched(config.policy, config.quantum);
    sched.setOverload(config.shed, config.admitCapacity,
                      config.scu.pim.vaults);
    std::vector<Tenant> tenants(config.queries.size());

    // Phase 1 (serial, this thread): per-tenant engines over the
    // shared sets, views of them, and sessions. Setup dispatches are
    // not admission-gated, so this must not overlap the concurrent
    // phase. Enrollment order == spec order, which is what FCFS
    // arrival rank and Credit round-robin order mean.
    for (std::size_t i = 0; i < config.queries.size(); ++i) {
        const QuerySpec &spec = config.queries[i];
        Tenant &t = tenants[i];
        const SharedSets *shared =
            problems[i].oriented()    ? &orientedSets
            : undirected(problems[i]) ? &undirectedSets
                                      : nullptr;
        if (shared) {
            t.engine = std::make_unique<core::SisaEngine>(
                shared->builder->sharedStore(), config.scu,
                config.threads);
            if (shared->osg) {
                t.osg = std::make_unique<algorithms::OrientedSetGraph>(
                    *shared->osg, *t.engine);
            } else {
                t.sg = std::make_unique<core::SetGraph>(*shared->sg,
                                                        *t.engine);
            }
            if (shared->placement)
                t.engine->scu().setPlacement(shared->placement);
        } else {
            // lp builds its own sets during the query; placement
            // stays at the default (no neighborhood arcs to seed
            // from yet).
            t.engine = std::make_unique<core::SisaEngine>(
                graph.numVertices(), config.scu, config.threads);
        }
        isa::AdmissionSpec admission;
        admission.arrival = spec.arrival;
        admission.deadline = spec.deadline;
        t.session = std::make_unique<core::QuerySession>(
            spec.problem, sched, config.threads, admission);
        t.session->ctx().setPatternCutoff(
            spec.cutoff != 0 ? spec.cutoff : problems[i].defaultCutoff());
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
                // A lifecycle verdict (TimedOut / Shed),
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
        qr.account = t.session->ctx().queryAccount(qr.id);
        report.makespan = std::max(report.makespan, qr.completion);
        report.queries.push_back(std::move(qr));
    }
    return report;
}

} // namespace sisa::serve
