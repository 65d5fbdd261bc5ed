/**
 * @file
 * Mixed-workload serving scenarios: K queries, each a full graph
 * algorithm in its own QuerySession with its own engine and store,
 * run concurrently against ONE shared graph and one QueryScheduler
 * deciding whose dispatch goes next.
 * This is the layer the `sisa_run serve=` CLI mode and the
 * bench/serving tail-latency harness sit on.
 *
 * Shared vs. owned: per call, everything that depends on the graph
 * alone is built once, and only if some query needs it, then read by
 * every tenant that does: the exact degeneracy order (mc, tc,
 * kcc-*), the graph oriented by it (tc, kcc-*), the neighborhood sets
 * of the oriented graph (tc, kcc-*) and of the undirected one (mc,
 * cl-*), and the placement policy over each set graph's arcs. The
 * sets live in a read-only base store; each tenant's store reads
 * them in place (isa::SetStore's shared-base constructor) and
 * continues the base's ids and addresses exactly as a private build
 * would. Everything modeled stays per tenant: each owns its engine
 * (SCU, vault state, and the store of the sets its query creates)
 * and its session, so isolation is exactly as if it ran alone.
 *
 * Determinism: setup (the shared preparation, then each tenant's
 * engine and session) runs serially on the caller's thread -- setup
 * dispatches are not admission-gated -- and the algorithm phase runs
 * on K host threads under the scheduler's lockstep grants, so the
 * admission log and every per-query cycle count are a pure function
 * of (graph, config), independent of host thread timing.
 */

#ifndef SISA_SERVE_SCENARIO_HPP
#define SISA_SERVE_SCENARIO_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/context.hpp"
#include "sisa/scu.hpp"
#include "sisa/serving.hpp"

namespace sisa::serve {

/** One tenant's workload. */
struct QuerySpec
{
    /**
     * Problem name: one that algorithms::Problem::parse accepts for
     * EntryPoint::Serve (tc, kcc-3..6, mc, cl-* or lp). Callers check
     * a string there before it reaches the scenario, which asserts.
     */
    std::string problem;
    /** Pattern cutoff; 0 picks the problem's serving default. */
    std::uint64_t cutoff = 0;
    /** Virtual arrival offset (cycles); queries park until then. */
    mem::Cycles arrival = 0;
    /** Absolute virtual deadline; no_deadline disables enforcement. */
    mem::Cycles deadline = isa::no_deadline;
};

/** Whole-scenario configuration. */
struct ScenarioConfig
{
    isa::SchedPolicy policy = isa::SchedPolicy::Fcfs;
    mem::Cycles quantum = isa::ServingModel::default_quantum;
    /**
     * Per-session SCU configuration (vaults, routing, asyncDepth).
     * Every session gets its own SCU with this config; they
     * share the modeled vault timeline through the scheduler.
     */
    isa::ScuConfig scu{};
    /** Vault placement: "" / "hash" | "locality". */
    std::string placement{};
    /** Modeled threads per session (1 = one core per query). */
    std::uint32_t threads = 1;
    /** Overload policy for the bounded admission queue. */
    isa::ShedPolicy shed = isa::ShedPolicy::None;
    /** Admission queue bound (0 = unbounded) under shed != none. */
    std::uint32_t admitCapacity = 0;
    std::vector<QuerySpec> queries;
};

/** Per-query outcome of a serving run. */
struct QueryReport
{
    std::string problem;
    sim::QueryId id = 0;
    std::uint64_t value = 0;      ///< The algorithm's scalar result.
    mem::Cycles ownCycles = 0;    ///< Query-issued cycles (model).
    mem::Cycles completion = 0;   ///< Virtual end-to-end makespan.
    isa::QueryState state = isa::QueryState::Pending; ///< Verdict.
    mem::Cycles arrival = 0;      ///< Virtual arrival offset.
    mem::Cycles deadline = isa::no_deadline; ///< Contract deadline.
    bool deadlineMet = true;      ///< Completed within deadline?
    sim::QueryAccount account;    ///< Tagged busy/stall/counters.
};

/** Outcome of serveMixedWorkload. */
struct ScenarioReport
{
    std::vector<QueryReport> queries; ///< In enrollment order.
    std::vector<sim::QueryId> admissionLog;
    /** Every lifecycle transition, in virtual decision order. */
    std::vector<isa::ServingModel::LifecycleEvent> lifecycleLog;
    mem::Cycles makespan = 0; ///< Max completion over all queries.
};

/**
 * The registry's default cutoff of @p problem (0 if serving rejects
 * it). Kept for perfbench/main.cpp until the next benchmark change.
 */
std::uint64_t serveDefaultCutoff(const std::string &problem);

/**
 * Deterministic open-loop arrival generator: @p n arrival offsets
 * whose inter-arrival gaps are exponentially distributed with mean
 * @p mean cycles, drawn from a splitmix64 stream seeded with @p seed.
 * Pure function of (seed, mean, n) -- no wall clock anywhere.
 */
std::vector<mem::Cycles> poissonArrivals(std::uint64_t seed,
                                         double mean, std::size_t n);

/**
 * Run every query of @p config concurrently against @p graph and
 * report per-query results, virtual completions and tagged
 * accounts. Throws on invalid specs; exceptions thrown
 * by a query's algorithm or engine set-up are captured per query,
 * the scenario still drains cleanly, and the first one is rethrown
 * after all sessions retired.
 */
ScenarioReport serveMixedWorkload(const graph::Graph &graph,
                                  const ScenarioConfig &config);

} // namespace sisa::serve

#endif // SISA_SERVE_SCENARIO_HPP
