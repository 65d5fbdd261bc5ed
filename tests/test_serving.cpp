/**
 * @file
 * Multi-tenant serving tests: exact-cycle pins on the ServingModel
 * policy core (FCFS order, Credit deficit round-robin, the
 * virtual-time vault-queueing rule), lockstep
 * determinism of the QueryScheduler, and the headline isolation
 * differential -- every query's functional result and per-query
 * cycle/counter account is bit-identical solo vs. co-tenant, across
 * routing x placement x async, under every scheduling policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/query_session.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "serve/scenario.hpp"
#include "sim/context.hpp"
#include "sisa/serving.hpp"

namespace {

using namespace sisa;

// --- ServingModel pins -----------------------------------------------------

TEST(ServingModel, FcfsGrantsByArrival)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    ASSERT_EQ(model.enroll(), 0u);
    ASSERT_EQ(model.enroll(), 1u);
    ASSERT_EQ(model.enroll(), 2u);

    EXPECT_EQ(model.pick({0, 1, 2}), 0u);
    EXPECT_EQ(model.pick({0, 1, 2}), 0u); // Still waiting: still first.
    EXPECT_EQ(model.pick({1, 2}), 1u);
    EXPECT_EQ(model.pick({2}), 2u);
    EXPECT_EQ(model.admissionLog(),
              (std::vector<sim::QueryId>{0, 0, 1, 2}));
}

TEST(ServingModel, CreditExhaustionPassesTheTurn)
{
    isa::ServingModel model(isa::SchedPolicy::Credit, /*quantum=*/100);
    model.enroll();
    model.enroll();
    EXPECT_EQ(model.credit(0), 100);
    EXPECT_EQ(model.credit(1), 100);

    // q0 wins the first turn and overdraws its quantum.
    EXPECT_EQ(model.pick({0, 1}), 0u);
    model.charge(0, {.own = 150, .lanes = {}});
    EXPECT_EQ(model.credit(0), -50);

    // Exhausted q0 passes the turn to q1, which keeps the cursor
    // while it retains credit.
    EXPECT_EQ(model.pick({0, 1}), 1u);
    model.charge(1, {.own = 30, .lanes = {}});
    EXPECT_EQ(model.pick({0, 1}), 1u);
    model.charge(1, {.own = 80, .lanes = {}});
    EXPECT_EQ(model.credit(1), -10);

    // Both exhausted: one refill revives both, and the turn passes
    // round-robin PAST the cursor (q1) back to q0 -- the query whose
    // exhaustion forced the refill doesn't get to keep the slot.
    EXPECT_EQ(model.pick({0, 1}), 0u);
    EXPECT_EQ(model.credit(0), 50);
    EXPECT_EQ(model.credit(1), 90);
    model.charge(0, {.own = 60, .lanes = {}});

    // q0 exhausted again; q1 still has credit from the refill.
    EXPECT_EQ(model.pick({0, 1}), 1u);
    EXPECT_EQ(model.admissionLog(),
              (std::vector<sim::QueryId>{0, 1, 1, 0, 1}));
}

TEST(ServingModel, CreditDeepDeficitRefillsRepeatedly)
{
    isa::ServingModel model(isa::SchedPolicy::Credit, /*quantum=*/10);
    model.enroll();
    EXPECT_EQ(model.pick({0}), 0u);
    model.charge(0, {.own = 35, .lanes = {}});
    EXPECT_EQ(model.credit(0), -25);
    // A 35-cycle dispatch against a 10-cycle quantum dug a deep
    // deficit: the next pick refills three times (-25 -> +5).
    EXPECT_EQ(model.pick({0}), 0u);
    EXPECT_EQ(model.credit(0), 5);
}

TEST(ServingModel, VaultClocksQueueCoTenantLanes)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    model.enroll();
    model.enroll();

    // q0: 10 own cycles, 100 busy cycles on vault 0.
    isa::DispatchDemand d0;
    d0.own = 10;
    d0.addLane(0, 100);
    model.charge(0, d0);

    // q1 starts at its own issue point 0, but vault 0 is busy until
    // 100: its 50-cycle lane queues behind and ends at 150.
    isa::DispatchDemand d1;
    d1.own = 5;
    d1.addLane(0, 50);
    model.charge(1, d1);

    model.finish(0);
    model.finish(1);
    EXPECT_EQ(model.completion(0), 100u);
    EXPECT_EQ(model.completion(1), 150u);
    EXPECT_EQ(model.vaultClock(0), 150u);
    EXPECT_EQ(model.vaultClock(1), 0u);
}

TEST(ServingModel, SoloCompletionEqualsOwnWhenLanesFit)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    model.enroll();
    // Barriered dispatches fold the lane makespan into own, so no
    // lane clock can outrun the issue point: completion == own.
    isa::DispatchDemand d;
    d.own = 100;
    d.addLane(0, 40);
    d.addLane(1, 60);
    model.charge(0, d);
    model.finish(0);
    EXPECT_EQ(model.ownCycles(0), 100u);
    EXPECT_EQ(model.completion(0), 100u);
}

// --- QueryScheduler lockstep -----------------------------------------------

/** Run @p dispatches admit/report rounds per query on K threads. */
std::vector<sim::QueryId>
runLockstep(isa::SchedPolicy policy, mem::Cycles quantum,
            std::uint32_t queries, std::uint32_t dispatches,
            mem::Cycles own_per_dispatch)
{
    isa::QueryScheduler sched(policy, quantum);
    std::vector<sim::QueryId> ids;
    for (std::uint32_t q = 0; q < queries; ++q)
        ids.push_back(sched.enroll());
    std::vector<std::thread> threads;
    for (std::uint32_t q = 0; q < queries; ++q) {
        threads.emplace_back([&, q] {
            for (std::uint32_t d = 0; d < dispatches; ++d) {
                sched.admit(ids[q]);
                sched.report(ids[q],
                             {.own = own_per_dispatch, .lanes = {}});
            }
            sched.leave(ids[q], {});
        });
    }
    for (std::thread &t : threads)
        t.join();
    return sched.model().admissionLog();
}

TEST(QueryScheduler, FcfsLockstepDrainsQueriesInArrivalOrder)
{
    // FCFS always grants the lowest live id: q0 runs to completion,
    // then q1, then q2 -- regardless of host thread timing.
    const std::vector<sim::QueryId> expect{0, 0, 0, 1, 1, 1, 2, 2, 2};
    for (int run = 0; run < 3; ++run)
        EXPECT_EQ(runLockstep(isa::SchedPolicy::Fcfs, 100, 3, 3, 10),
                  expect);
}

TEST(QueryScheduler, CreditLockstepRoundRobinsOnQuantumBoundaries)
{
    // own == quantum: every dispatch exhausts the turn, so grants
    // round-robin perfectly.
    const std::vector<sim::QueryId> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
    for (int run = 0; run < 3; ++run)
        EXPECT_EQ(runLockstep(isa::SchedPolicy::Credit, 10, 3, 3, 10),
                  expect);
}

// --- Serving scenario differentials ----------------------------------------

graph::Graph
testGraph()
{
    graph::RmatParams params;
    params.scale = 7;
    params.edgeFactor = 8;
    return graph::rmat(params, 42);
}

serve::ScenarioConfig
baseConfig()
{
    serve::ScenarioConfig config;
    config.policy = isa::SchedPolicy::Fcfs;
    config.queries = {{.problem = "tc", .cutoff = 500},
                      {.problem = "mc", .cutoff = 40},
                      {.problem = "kcc-4", .cutoff = 150}};
    return config;
}

mem::Cycles
soloMakespanFloor(const serve::ScenarioReport &report)
{
    mem::Cycles floor = 0;
    for (const serve::QueryReport &qr : report.queries)
        floor = std::max(floor, qr.ownCycles);
    return floor;
}

/**
 * The headline invariant: run the mixed workload co-tenant, then each
 * query solo (K=1, same config), and require every query's value,
 * tagged busy/stall cycles, and full counter account (setops.* and
 * scu.* alike) to be bit-identical -- scheduling moves modeled time
 * only. Also checks per-query conservation: the model's own-cycle
 * account equals the session's tagged cycle total, and the virtual
 * completion can only add queueing delay on top of it.
 */
void
expectSoloCoTenantIdentical(const graph::Graph &graph,
                            const serve::ScenarioConfig &config)
{
    const serve::ScenarioReport co =
        serve::serveMixedWorkload(graph, config);
    ASSERT_EQ(co.queries.size(), config.queries.size());
    for (std::size_t i = 0; i < config.queries.size(); ++i) {
        serve::ScenarioConfig solo_config = config;
        solo_config.queries = {config.queries[i]};
        const serve::ScenarioReport solo =
            serve::serveMixedWorkload(graph, solo_config);
        ASSERT_EQ(solo.queries.size(), 1u);
        const serve::QueryReport &s = solo.queries[0];
        const serve::QueryReport &c = co.queries[i];
        SCOPED_TRACE("problem=" + c.problem);
        EXPECT_EQ(s.value, c.value);
        EXPECT_EQ(s.account.busy, c.account.busy);
        EXPECT_EQ(s.account.stall, c.account.stall);
        EXPECT_EQ(s.account.counters, c.account.counters);
        EXPECT_EQ(s.ownCycles, c.ownCycles);
        // Conservation: no lost or double-charged cycles -- the
        // model's own account IS the session's tagged cycle total.
        EXPECT_EQ(c.ownCycles, c.account.cycles());
        EXPECT_GE(c.completion, c.ownCycles);
        // Solo, nothing ever queues ahead: completion == own.
        EXPECT_EQ(s.completion, s.ownCycles);
    }
    EXPECT_GE(co.makespan, soloMakespanFloor(co));
}

TEST(ServingScenario, IsolationAcrossRouting)
{
    const graph::Graph graph = testGraph();
    for (isa::Routing routing :
         {isa::Routing::Primary, isa::Routing::Balanced}) {
        serve::ScenarioConfig config = baseConfig();
        config.scu.routing = routing;
        SCOPED_TRACE("routing=" +
                     std::to_string(static_cast<int>(routing)));
        expectSoloCoTenantIdentical(graph, config);
    }
}

TEST(ServingScenario, IsolationUnderAsyncWindow)
{
    serve::ScenarioConfig config = baseConfig();
    config.scu.routing = isa::Routing::Balanced;
    config.scu.asyncDepth = 8;
    expectSoloCoTenantIdentical(testGraph(), config);
}

TEST(ServingScenario, IsolationUnderAsyncWithClJac)
{
    // The TSan serving smoke's configuration: co-tenant sessions
    // with a cl-jac tenant under the async window.
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config = baseConfig();
    config.queries.push_back({.problem = "cl-jac", .cutoff = 300});
    config.scu.routing = isa::Routing::Balanced;
    config.scu.asyncDepth = 8;
    expectSoloCoTenantIdentical(graph, config);
}

TEST(ServingScenario, IsolationAcrossPlacements)
{
    // Hash placement is the baseConfig default, covered above.
    serve::ScenarioConfig config = baseConfig();
    config.placement = "locality";
    expectSoloCoTenantIdentical(testGraph(), config);
}

TEST(ServingScenario, PolicyChangesTimingNotResults)
{
    // Functional results and work accounts are policy-invariant; only
    // virtual completions may move.
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config = baseConfig();
    const serve::ScenarioReport fcfs =
        serve::serveMixedWorkload(graph, config);
    config.policy = isa::SchedPolicy::Credit;
    const serve::ScenarioReport credit =
        serve::serveMixedWorkload(graph, config);
    ASSERT_EQ(credit.queries.size(), fcfs.queries.size());
    for (std::size_t i = 0; i < fcfs.queries.size(); ++i) {
        SCOPED_TRACE(fcfs.queries[i].problem);
        EXPECT_EQ(credit.queries[i].value, fcfs.queries[i].value);
        EXPECT_EQ(credit.queries[i].account.counters,
                  fcfs.queries[i].account.counters);
        EXPECT_EQ(credit.queries[i].ownCycles, fcfs.queries[i].ownCycles);
    }
}

TEST(ServingScenario, AdmissionLogIsDeterministic)
{
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config = baseConfig();
    config.policy = isa::SchedPolicy::Credit;
    const serve::ScenarioReport a =
        serve::serveMixedWorkload(graph, config);
    const serve::ScenarioReport b =
        serve::serveMixedWorkload(graph, config);
    EXPECT_EQ(a.admissionLog, b.admissionLog);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].completion, b.queries[i].completion);
        EXPECT_EQ(a.queries[i].ownCycles, b.queries[i].ownCycles);
    }
}

TEST(ServingScenario, MatchesPlainEngineRun)
{
    // The serving stack must not perturb the modeled work at all: a
    // K=1 scenario reproduces a plain (schedulerless) engine run's
    // value and tagged account bit-for-bit.
    const graph::Graph graph = testGraph();

    core::SisaEngine engine(graph.numVertices(), isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    ctx.bindQuery(0);
    ctx.setPatternCutoff(500);
    algorithms::OrientedSetGraph osg(graph, engine);
    const std::uint64_t plain_value = algorithms::triangleCount(osg, ctx);
    engine.drainBatches(ctx, 0);
    const sim::QueryAccount &plain = ctx.queryAccount(0);

    serve::ScenarioConfig config;
    config.queries = {{.problem = "tc", .cutoff = 500}};
    const serve::ScenarioReport report =
        serve::serveMixedWorkload(graph, config);
    EXPECT_EQ(report.queries[0].value, plain_value);
    EXPECT_EQ(report.queries[0].account.busy, plain.busy);
    EXPECT_EQ(report.queries[0].account.stall, plain.stall);
    EXPECT_EQ(report.queries[0].account.counters, plain.counters);
}

TEST(ServingScenario, PerQueryAccountsConserveTaggedCharges)
{
    // sim/context.hpp's invariant: the sum of per-query accounts
    // equals the sum of tagged charges, for cycles and for every
    // counter. A session's ctx tags every charge with its query from
    // construction, so its thread totals and counters ARE the tagged
    // charges -- after a co-tenant run with the async window on.
    const graph::Graph graph = testGraph();
    isa::ScuConfig scu;
    scu.asyncDepth = 4;
    isa::QueryScheduler sched(isa::SchedPolicy::Credit, 20000);
    struct Tenant
    {
        std::unique_ptr<core::SisaEngine> engine;
        std::unique_ptr<core::QuerySession> session;
        std::unique_ptr<algorithms::OrientedSetGraph> osg;
        std::unique_ptr<core::SetGraph> sg;
    };
    const std::vector<std::pair<std::string, std::uint64_t>> queries{
        {"tc", 500}, {"mc", 40}, {"kcc-4", 150}};
    std::vector<Tenant> tenants(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        Tenant &t = tenants[i];
        t.engine = std::make_unique<core::SisaEngine>(
            graph.numVertices(), scu, /*num_threads=*/2);
        t.session = std::make_unique<core::QuerySession>(
            queries[i].first, sched, /*threads=*/2);
        t.session->ctx().setPatternCutoff(queries[i].second);
        if (queries[i].first == "mc")
            t.sg = std::make_unique<core::SetGraph>(graph, *t.engine);
        else
            t.osg = std::make_unique<algorithms::OrientedSetGraph>(
                graph, *t.engine);
    }
    for (Tenant &t : tenants)
        t.session->attach(*t.engine);
    std::vector<std::thread> threads;
    for (Tenant &t : tenants) {
        threads.emplace_back([&t] {
            core::QuerySession &session = *t.session;
            if (session.label() == "tc")
                algorithms::triangleCount(*t.osg, session.ctx());
            else if (session.label() == "mc")
                algorithms::maximalCliques(*t.sg, session.ctx());
            else
                algorithms::kCliqueCount(*t.osg, session.ctx(), 4);
            session.finish();
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    mem::Cycles busy = 0;
    mem::Cycles stall = 0;
    std::map<std::string, std::uint64_t> counters;
    sim::SimContext aggregate(1);
    for (const Tenant &t : tenants) {
        const sim::SimContext &ctx = t.session->ctx();
        SCOPED_TRACE("problem=" + t.session->label());
        mem::Cycles ctx_busy = 0;
        mem::Cycles ctx_stall = 0;
        for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
            ctx_busy += ctx.threadBusy(tid);
            ctx_stall += ctx.threadStall(tid);
        }
        ASSERT_EQ(ctx.queryAccounts().size(), 1u);
        const sim::QueryAccount &account =
            ctx.queryAccount(t.session->id());
        EXPECT_GT(account.cycles(), 0u);
        EXPECT_EQ(account.busy, ctx_busy);
        EXPECT_EQ(account.stall, ctx_stall);
        EXPECT_EQ(account.counters, ctx.counters());
        EXPECT_GT(account.counters.at("scu.batch_dispatches"), 0u);
        busy += ctx_busy;
        stall += ctx_stall;
        for (const auto &[name, value] : ctx.counters())
            counters[name] += value;
        aggregate.absorbQueryAccounting(ctx);
    }

    // The serving aggregate's accounts partition the same totals.
    mem::Cycles agg_busy = 0;
    mem::Cycles agg_stall = 0;
    std::map<std::string, std::uint64_t> agg_counters;
    ASSERT_EQ(aggregate.queryAccounts().size(), tenants.size());
    for (const auto &[query, account] : aggregate.queryAccounts()) {
        agg_busy += account.busy;
        agg_stall += account.stall;
        for (const auto &[name, value] : account.counters)
            agg_counters[name] += value;
    }
    EXPECT_EQ(agg_busy, busy);
    EXPECT_EQ(agg_stall, stall);
    EXPECT_EQ(agg_counters, counters);
}

/** FNV-1a over a sequence of small integers. */
template <typename Seq, typename Fn>
std::uint64_t
fnvDigest(const Seq &seq, Fn &&word)
{
    std::uint64_t fnv = 1469598103934665603ull;
    for (const auto &item : seq) {
        fnv ^= static_cast<std::uint64_t>(word(item));
        fnv *= 1099511628211ull;
    }
    return fnv;
}

/**
 * K = 32 open-loop co-tenants (tc / kcc-4 / mc / cl-jac in rotation)
 * under Credit + EDF with a four-slot admission queue and a deadline
 * tight enough that ten of them time out. Pins the admission and
 * lifecycle logs and every query's (value, own cycles, completion,
 * state): together they guard the scheduler's wake protocol and the
 * graph preparation behind every tenant.
 */
TEST(ServingScenario, MixedK32CreditEdfPinned)
{
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config;
    config.policy = isa::SchedPolicy::Credit;
    config.shed = isa::ShedPolicy::Edf;
    config.admitCapacity = 4;
    config.scu.asyncDepth = 8;
    const char *const problems[] = {"tc", "kcc-4", "mc", "cl-jac"};
    const std::vector<mem::Cycles> arrivals =
        serve::poissonArrivals(11, 3000.0, 32);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        config.queries.push_back({.problem = problems[i % 4],
                                  .arrival = arrivals[i],
                                  .deadline = arrivals[i] + 150000});
    }
    const serve::ScenarioReport report =
        serve::serveMixedWorkload(graph, config);

    struct Pin
    {
        std::uint64_t value;
        mem::Cycles own;
        mem::Cycles completion;
        isa::QueryState state;
    };
    constexpr auto C = isa::QueryState::Completed;
    constexpr auto T = isa::QueryState::TimedOut;
    const std::vector<Pin> pins = {
        {1427, 18926, 20066, C},
        {300, 29588, 31641, C},
        {60, 102132, 107234, C},
        {507, 50967, 124798, C},
        {1427, 18926, 122800, C},
        {300, 29588, 124492, C},
        {60, 102132, 127402, C},
        {507, 50967, 150094, C},
        {1427, 18926, 143585, C},
        {300, 29588, 145277, C},
        {60, 102132, 152698, C},
        {507, 50967, 175390, C},
        {1427, 18926, 170404, C},
        {300, 29588, 175612, C},
        {60, 102132, 177994, C},
        {507, 50967, 200686, C},
        {1427, 18926, 201698, C},
        {300, 29588, 206906, C},
        {60, 102132, 208642, C},
        {0, 31717, 225982, T},
        {0, 16041, 224164, T},
        {0, 29311, 229372, T},
        {60, 102132, 231108, C},
        {0, 31717, 251278, T},
        {0, 5525, 238715, T},
        {300, 29588, 243923, C},
        {0, 63748, 252580, T},
        {0, 31717, 275272, T},
        {0, 14299, 258143, T},
        {300, 29588, 263351, C},
        {0, 25759, 275706, T},
        {0, 31717, 298398, T}};
    ASSERT_EQ(report.queries.size(), pins.size());
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < pins.size(); ++i) {
        const serve::QueryReport &qr = report.queries[i];
        SCOPED_TRACE("query=" + std::to_string(i) + " " + qr.problem);
        EXPECT_EQ(qr.value, pins[i].value);
        EXPECT_EQ(qr.ownCycles, pins[i].own);
        EXPECT_EQ(qr.completion, pins[i].completion);
        EXPECT_EQ(qr.state, pins[i].state);
        cancelled += qr.state != C;
    }
    EXPECT_GT(cancelled, 0u);
    ASSERT_EQ(report.admissionLog.size(), 1868u);
    EXPECT_EQ(fnvDigest(report.admissionLog,
                        [](sim::QueryId q) { return q; }),
              7772529653049729597ull);
    ASSERT_EQ(report.lifecycleLog.size(), 96u);
    EXPECT_EQ(fnvDigest(report.lifecycleLog,
                        [](const isa::ServingModel::LifecycleEvent &e) {
                            return (std::uint64_t{e.query} << 8) |
                                   static_cast<std::uint64_t>(e.state);
                        }),
              15356044410013272873ull);
}

// --- Lifecycle model pins --------------------------------------------------

using Event = isa::ServingModel::LifecycleEvent;

TEST(LifecycleModel, ArrivalsGatePendingQueries)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    isa::AdmissionSpec late;
    late.arrival = 1000;
    model.enroll(isa::AdmissionSpec{});
    model.enroll(late);

    // q1 has not arrived: q0 owns every grant even though FCFS would
    // otherwise consider both waiters.
    isa::ServingModel::Decision d = model.decide({0, 1});
    EXPECT_EQ(d.query, 0u);
    EXPECT_EQ(d.verdict, isa::QueryState::Running);
    model.charge(0, {.own = 500, .lanes = {}});
    d = model.decide({0, 1});
    EXPECT_EQ(d.query, 0u); // Clock at 500 < 1000: q1 still pending.
    EXPECT_EQ(model.state(1), isa::QueryState::Pending);
    model.finish(0);

    // Alone in the waiting set, q1 warps the admission clock forward
    // to its arrival instead of deadlocking the sweep.
    d = model.decide({1});
    EXPECT_EQ(d.query, 1u);
    EXPECT_EQ(d.verdict, isa::QueryState::Running);
    EXPECT_EQ(model.virtualNow(), 1000u);
    model.charge(1, {.own = 100, .lanes = {}});
    model.finish(1);
    EXPECT_EQ(model.completion(0), 500u);
    EXPECT_EQ(model.completion(1), 1100u); // Arrival offsets the end.
}

TEST(LifecycleModel, DeadlinePassageCancelsAtTheBoundary)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    isa::AdmissionSpec spec;
    spec.deadline = 100;
    model.enroll(spec);

    EXPECT_EQ(model.decide({0}).verdict, isa::QueryState::Running);
    model.charge(0, {.own = 150, .lanes = {}});

    // The next boundary finds the issue point past the deadline: no
    // later dispatch can complete the query in time.
    const isa::ServingModel::Decision d = model.decide({0});
    EXPECT_EQ(d.query, 0u);
    EXPECT_EQ(d.verdict, isa::QueryState::TimedOut);
    EXPECT_EQ(model.grantVerdict(0), isa::QueryState::TimedOut);
    model.finish(0);
    EXPECT_EQ(model.state(0), isa::QueryState::TimedOut);
    EXPECT_FALSE(model.deadlineMet(0));
    EXPECT_EQ(model.completion(0), 150u);
    EXPECT_EQ(model.lifecycleLog(),
              (std::vector<Event>{{0, isa::QueryState::Admitted},
                                  {0, isa::QueryState::Running},
                                  {0, isa::QueryState::TimedOut}}));
}

TEST(LifecycleModel, DeadlineBoundaryIsInclusive)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    isa::AdmissionSpec spec;
    spec.deadline = 100;
    model.enroll(spec);

    EXPECT_EQ(model.decide({0}).verdict, isa::QueryState::Running);
    model.charge(0, {.own = 100, .lanes = {}});
    // Landing exactly ON the deadline is a hit (<=, not <).
    EXPECT_EQ(model.decide({0}).verdict, isa::QueryState::Running);
    model.finish(0);
    EXPECT_EQ(model.state(0), isa::QueryState::Completed);
    EXPECT_TRUE(model.deadlineMet(0));
}

TEST(LifecycleModel, EdfShedsTheLatestDeadlineOnOverflow)
{
    // Two queries arrive at 300 into a one-slot queue: EDF sheds the
    // later deadline, whether that is the incumbent or the newcomer.
    struct Case
    {
        mem::Cycles incumbentDeadline;
        mem::Cycles newcomerDeadline;
        sim::QueryId victim;
        std::vector<Event> log;
    };
    const Case cases[] = {
        // An urgent newcomer evicts the laxer incumbent.
        {5000,
         1000,
         0,
         {{0, isa::QueryState::Admitted},
          {1, isa::QueryState::Admitted},
          {0, isa::QueryState::Shed},
          {1, isa::QueryState::Running},
          {1, isa::QueryState::Completed}}},
        // A lax newcomer is the victim itself: shed at its arrival
        // instant, never Admitted.
        {1000,
         5000,
         1,
         {{0, isa::QueryState::Admitted},
          {1, isa::QueryState::Shed},
          {0, isa::QueryState::Running},
          {0, isa::QueryState::Completed}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.victim);
        isa::ServingModel model(isa::SchedPolicy::Fcfs);
        model.setOverload(isa::ShedPolicy::Edf, /*capacity=*/1);
        isa::AdmissionSpec spec;
        spec.arrival = 300;
        spec.deadline = c.incumbentDeadline;
        model.enroll(spec);
        spec.deadline = c.newcomerDeadline;
        model.enroll(spec);

        const isa::ServingModel::Decision d = model.decide({0, 1});
        EXPECT_EQ(d.query, c.victim);
        EXPECT_EQ(d.verdict, isa::QueryState::Shed);
        model.finish(c.victim); // The woken victim retires.
        EXPECT_EQ(model.state(c.victim), isa::QueryState::Shed);
        EXPECT_EQ(model.completion(c.victim), 300u); // Its arrival.

        // The survivor is unaffected and completes normally.
        const sim::QueryId survivor = 1 - c.victim;
        EXPECT_EQ(model.decide({survivor}).verdict,
                  isa::QueryState::Running);
        model.charge(survivor, {.own = 40, .lanes = {}});
        model.finish(survivor);
        EXPECT_EQ(model.completion(survivor), 340u);
        EXPECT_EQ(model.lifecycleLog(), c.log);
    }
}

TEST(LifecycleModel, EdfShedsUnreachableDeadlines)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    model.setOverload(isa::ShedPolicy::Edf, /*capacity=*/0,
                      /*vaultWidth=*/1);
    isa::AdmissionSpec first;
    first.deadline = 10000;
    isa::AdmissionSpec doomed;
    doomed.arrival = 500;
    doomed.deadline = 600;
    model.enroll(first);
    model.enroll(doomed);

    EXPECT_EQ(model.decide({0, 1}).query, 0u);
    isa::DispatchDemand d0;
    d0.own = 700;
    d0.addLane(0, 700);
    model.charge(0, d0);

    // q1 arrives at 500 but the single vault lane is busy until 700,
    // past its deadline of 600: even an immediate grant cannot make
    // it, so EDF sheds it instead of burning shared lane time.
    const isa::ServingModel::Decision d = model.decide({0, 1});
    EXPECT_EQ(d.query, 1u);
    EXPECT_EQ(d.verdict, isa::QueryState::Shed);
}

TEST(LifecycleModel, EdfGrantsEarliestDeadlineFirst)
{
    isa::ServingModel model(isa::SchedPolicy::Fcfs);
    model.setOverload(isa::ShedPolicy::Edf);
    isa::AdmissionSpec lax;
    lax.deadline = 5000;
    isa::AdmissionSpec urgent;
    urgent.deadline = 1000;
    model.enroll(lax);
    model.enroll(urgent);

    // Base FCFS would grant q0; EDF admission overrides to the
    // tighter deadline so shed decisions and grant order agree.
    const isa::ServingModel::Decision d = model.decide({0, 1});
    EXPECT_EQ(d.query, 1u);
    EXPECT_EQ(d.verdict, isa::QueryState::Running);
}

TEST(LifecycleModel, PoissonArrivalsAreDeterministic)
{
    const std::vector<mem::Cycles> a =
        serve::poissonArrivals(7, 1500.0, 8);
    const std::vector<mem::Cycles> b =
        serve::poissonArrivals(7, 1500.0, 8);
    ASSERT_EQ(a.size(), 8u);
    EXPECT_EQ(a, b); // Pure function of (seed, mean, n).
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i], a[i - 1]); // A non-decreasing arrival clock.
    EXPECT_NE(serve::poissonArrivals(8, 1500.0, 8), a);
}

// --- Lifecycle scenario differentials --------------------------------------

/**
 * The lifecycle headline: a co-tenant cancelled mid-run (async window
 * in flight) must leave every surviving query's result and account
 * bit-identical to its solo run, and the cancellation charge itself
 * must be explicit in the victim's counters.
 */
TEST(ServingLifecycle, CancelMidWindowLeavesSurvivorsBitIdentical)
{
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config = baseConfig();
    config.scu.routing = isa::Routing::Balanced;
    config.scu.asyncDepth = 8;
    // A doomed tenant: generous enough to start dispatching, far too
    // tight to finish -- it is cancelled between dispatches with its
    // async window still open.
    config.queries.push_back({.problem = "tc",
                              .cutoff = 500,
                              .arrival = 0,
                              .deadline = 2000});

    const serve::ScenarioReport co =
        serve::serveMixedWorkload(graph, config);
    ASSERT_EQ(co.queries.size(), 4u);
    const serve::QueryReport &doomed = co.queries[3];
    EXPECT_EQ(doomed.state, isa::QueryState::TimedOut);
    EXPECT_FALSE(doomed.deadlineMet);
    // The cancellation drained the victim's async window exactly once
    // and charged the drain to the victim, not to a co-tenant.
    ASSERT_EQ(doomed.account.counters.count("scu.cancel_drains"), 1u);
    EXPECT_EQ(doomed.account.counters.at("scu.cancel_drains"), 1u);
    // The drain's stall lands in the victim's own tagged account.
    EXPECT_EQ(doomed.ownCycles, doomed.account.cycles());

    for (std::size_t i = 0; i < 3; ++i) {
        serve::ScenarioConfig solo_config = config;
        solo_config.queries = {config.queries[i]};
        const serve::ScenarioReport solo =
            serve::serveMixedWorkload(graph, solo_config);
        const serve::QueryReport &s = solo.queries[0];
        const serve::QueryReport &c = co.queries[i];
        SCOPED_TRACE("problem=" + c.problem);
        EXPECT_EQ(c.state, isa::QueryState::Completed);
        EXPECT_EQ(s.value, c.value);
        EXPECT_EQ(s.account.busy, c.account.busy);
        EXPECT_EQ(s.account.stall, c.account.stall);
        EXPECT_EQ(s.account.counters, c.account.counters);
        EXPECT_EQ(s.ownCycles, c.ownCycles);
    }
}

/**
 * Verdicts, the lifecycle log, and the cancellation charges are
 * modeled state: they must be bit-identical across repeated runs,
 * whatever the host timing of the query threads.
 */
TEST(ServingLifecycle, VerdictsAndShedLogRerunDeterministic)
{
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config;
    config.policy = isa::SchedPolicy::Fcfs;
    config.scu.routing = isa::Routing::Balanced;
    config.scu.asyncDepth = 8;
    config.shed = isa::ShedPolicy::Edf;
    config.admitCapacity = 2;
    config.queries = {
        {.problem = "tc", .cutoff = 300, .arrival = 0,
         .deadline = 100000},
        {.problem = "tc", .cutoff = 300, .arrival = 10,
         .deadline = 50000},
        {.problem = "tc", .cutoff = 300, .arrival = 20,
         .deadline = 40000},
        {.problem = "tc", .cutoff = 300, .arrival = 30,
         .deadline = 30000},
    };

    bool have_baseline = false;
    serve::ScenarioReport baseline;
    for (int run = 0; run < 4; ++run) {
        const serve::ScenarioReport r =
            serve::serveMixedWorkload(graph, config);
        SCOPED_TRACE("run=" + std::to_string(run));
        if (!have_baseline) {
            baseline = r;
            have_baseline = true;
            // Four arrivals into a two-slot queue, none of which can
            // complete before the last arrival: exactly two sheds.
            std::size_t sheds = 0;
            for (const serve::QueryReport &qr : r.queries)
                sheds += qr.state == isa::QueryState::Shed;
            EXPECT_EQ(sheds, 2u);
            continue;
        }
        EXPECT_EQ(r.lifecycleLog, baseline.lifecycleLog);
        EXPECT_EQ(r.admissionLog, baseline.admissionLog);
        ASSERT_EQ(r.queries.size(), baseline.queries.size());
        for (std::size_t i = 0; i < r.queries.size(); ++i) {
            SCOPED_TRACE("query=" + std::to_string(i));
            EXPECT_EQ(r.queries[i].state, baseline.queries[i].state);
            EXPECT_EQ(r.queries[i].completion,
                      baseline.queries[i].completion);
            EXPECT_EQ(r.queries[i].deadlineMet,
                      baseline.queries[i].deadlineMet);
            // Exact-cycle pin on the cancellation charges: the drain
            // stall and cancelled-cycle counters are modeled, so they
            // cannot move with host thread timing.
            EXPECT_EQ(r.queries[i].account.counters,
                      baseline.queries[i].account.counters);
            EXPECT_EQ(r.queries[i].ownCycles,
                      baseline.queries[i].ownCycles);
        }
    }
}

TEST(ServingLifecycle, DefaultSpecsReproducePreLifecycleBehaviour)
{
    // No deadlines, no arrivals, shed=none: the lifecycle machinery
    // must be invisible -- every query Completed, every deadline met,
    // and the lifecycle log is exactly the Admitted/Running/Completed
    // frame around the pinned admission order.
    const graph::Graph graph = testGraph();
    serve::ScenarioConfig config = baseConfig();
    const serve::ScenarioReport report =
        serve::serveMixedWorkload(graph, config);
    for (const serve::QueryReport &qr : report.queries) {
        SCOPED_TRACE(qr.problem);
        EXPECT_EQ(qr.state, isa::QueryState::Completed);
        EXPECT_TRUE(qr.deadlineMet);
        EXPECT_EQ(qr.arrival, 0u);
        EXPECT_EQ(qr.deadline, isa::no_deadline);
    }
    std::size_t completions = 0;
    for (const Event &event : report.lifecycleLog)
        completions += event.state == isa::QueryState::Completed;
    EXPECT_EQ(completions, report.queries.size());
}

} // namespace
