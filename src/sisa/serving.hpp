/**
 * @file
 * Multi-tenant admission layer over the SCU: K concurrent queries
 * (serve/scenario.hpp sessions) share the modeled vault time, with a
 * QueryScheduler deciding whose batch dispatches next. FCFS grants
 * strictly by arrival; Credit is deficit round-robin over a cycle
 * quantum.
 *
 * Two layers, split for testability:
 *
 *  - ServingModel: the deterministic single-threaded core -- policy
 *    pick rule, per-query virtual timelines, shared per-vault busy
 *    clocks, the admission log, and the query LIFECYCLE machine
 *    (arrivals, deadlines, overload shedding). Exact-cycle pins
 *    drive it directly.
 *  - QueryScheduler: the thread-safe blocking wrapper the sessions'
 *    host threads park on. Admission is LOCKSTEP: a grant is issued
 *    only when every unfinished query is parked at its admit() point
 *    and at most one grant is outstanding, so the interleaving is a
 *    pure function of the policy and the queries' demands --
 *    deterministic regardless of host thread timing.
 *
 * Query lifecycle (PR 10). Every query walks the state machine
 *
 *   Pending -> Admitted -> Running -> { Completed, TimedOut, Shed }
 *
 * entirely in VIRTUAL time: a query becomes eligible when the
 * admission clock reaches its arrival offset, enters the bounded
 * admission queue (Admitted), turns Running at its first grant, and
 * ends Completed -- or is cancelled at an admission boundary:
 * TimedOut when its own virtual timeline passes its deadline, Shed
 * when the overload policy drops it (queue overflow, or an EDF-
 * provably-unreachable deadline). Cancellation is COOPERATIVE: the
 * model never yanks a dispatch mid-flight; it wakes the parked query
 * with a verdict and the SCU drains that query's async window,
 * pricing the abandoned work (scu.cancel_drains /
 * setops.cancelled_cycles) before the session retires. Because every
 * decision reads only model state, lifecycle verdicts and shed logs
 * are deterministic and host-timing independent.
 *
 * Isolation contract: scheduling moves MODELED time only. A query's
 * functional results, result ids, and setops.* work totals are
 * bit-identical solo vs. co-tenant under every policy (each session
 * owns its engine/store; only vault-time contention is shared), and
 * the sum of per-query own-cycle accounts equals the sum of the
 * sessions' context cycles -- no lost or double-charged cycles. The
 * lifecycle layer extends the contract to every COMPLETED query:
 * deadlines, shedding, and co-tenant cancellations never change what
 * a surviving query computes, only when it completes.
 */

#ifndef SISA_SISA_SERVING_HPP
#define SISA_SISA_SERVING_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/pim.hpp"
#include "sim/context.hpp"

namespace sisa::isa {

/** Admission policy: arrival order, or deficit round-robin. */
enum class SchedPolicy : std::uint8_t { Fcfs, Credit };

const char *schedPolicyName(SchedPolicy policy);

/** Parse "fcfs" / "credit" (nullopt on anything else). */
std::optional<SchedPolicy> parseSchedPolicy(std::string_view name);

/**
 * Lifecycle states of a served query. Running doubles as the
 * "granted, keep going" admit() verdict; the last three are terminal.
 */
enum class QueryState : std::uint8_t
{
    Pending,   ///< Enrolled; arrival not yet reached / not admitted.
    Admitted,  ///< In the admission queue, no dispatch granted yet.
    Running,   ///< At least one dispatch granted.
    Completed, ///< Ran to completion (possibly past its deadline).
    TimedOut,  ///< Cancelled: virtual deadline passed mid-run.
    Shed,      ///< Dropped by the overload policy before running.
};

const char *queryStateName(QueryState state);

/**
 * Overload shedding policy of the bounded admission queue:
 *
 *  - none: unbounded queue, nothing is ever shed;
 *  - edf:  grants go earliest-deadline-first, a full queue sheds the
 *          LATEST-deadline not-yet-running query (the newcomer
 *          included), and a query whose deadline is provably
 *          unreachable -- even if every vault lane were free at its
 *          earliest start -- is shed at the admission boundary
 *          instead of wasting capacity.
 */
enum class ShedPolicy : std::uint8_t { None, Edf };

const char *shedPolicyName(ShedPolicy policy);

/** Parse "none" / "edf". */
std::optional<ShedPolicy> parseShedPolicy(std::string_view name);

/** QuerySpec sentinel: no deadline. */
inline constexpr mem::Cycles no_deadline = ~mem::Cycles{0};

/**
 * Per-query admission parameters. The default spec reproduces the
 * pre-lifecycle behaviour exactly: arrive at 0, never time out,
 * never shed.
 */
struct AdmissionSpec
{
    /** Virtual-time arrival offset (open-loop; no wall clock). */
    mem::Cycles arrival = 0;
    /** Virtual-time completion deadline, or no_deadline. */
    mem::Cycles deadline = no_deadline;
};

/**
 * What one granted dispatch consumed, reported back at the next
 * admission boundary:
 *
 *  - `own`: the query's issuing-thread cycle delta (front-end
 *    charges, makespan/stall charges, serial ops since the last
 *    report) -- advances only that query's virtual timeline;
 *  - `lanes`: per-vault busy cycles the dispatch put on the shared
 *    vaults -- advance the shared vault clocks that co-tenant
 *    dispatches queue behind.
 */
struct DispatchDemand
{
    mem::Cycles own = 0;
    std::vector<std::pair<std::uint32_t, mem::Cycles>> lanes;

    void
    addLane(std::uint32_t vault, mem::Cycles cycles)
    {
        lanes.emplace_back(vault, cycles);
    }
};

/**
 * Thrown out of a gated dispatch when the scheduler cancelled the
 * query at the admission boundary (deadline, shed).
 * NOT an error of the run: the serving layer catches it, retires the
 * session cleanly, and records the verdict in the query's report.
 */
class QueryCancelledError : public std::runtime_error
{
  public:
    QueryCancelledError(sim::QueryId query, QueryState verdict)
        : std::runtime_error("query " + std::to_string(query) +
                             " cancelled: " + queryStateName(verdict)),
          query_(query), verdict_(verdict)
    {
    }

    sim::QueryId query() const { return query_; }
    QueryState verdict() const { return verdict_; }

  private:
    sim::QueryId query_;
    QueryState verdict_;
};

/**
 * Deterministic serving core: policy state, per-query virtual
 * timelines, shared vault clocks, lifecycle machine. Single-threaded
 * -- QueryScheduler serializes access; tests drive it directly for
 * exact-cycle pins.
 *
 * Virtual-time rule (charge): a dispatch granted to query q starts at
 * q's issue point t0 (its arrival offset plus the sum of its own
 * cycles so far). Its own cycles advance the issue point to t0 + own;
 * each lane (v, c) occupies vault v from max(clock[v], t0) for c
 * cycles. The query's completion is the max of its final issue point
 * and every vault clock it ever advanced -- so a solo query arriving
 * at 0 completes exactly at its context cycle total (own already
 * contains each dispatch's makespan), and a co-tenant query
 * additionally waits out the vault time queued ahead of it.
 *
 * Admission clock (decide): grants only go to queries that have
 * ARRIVED. The clock nowV never ticks a host clock; at every
 * admission boundary it warps forward to the earliest ready point
 * (max of arrival and issue) over the parked queries, so at least
 * one query is always eligible and the sweep's outcome is a pure
 * function of model state.
 */
class ServingModel
{
  public:
    explicit ServingModel(SchedPolicy policy,
                          mem::Cycles quantum = default_quantum);

    /** Default Credit refill quantum (cycles of own-time per turn). */
    static constexpr mem::Cycles default_quantum = 50000;

    SchedPolicy policy() const { return policy_; }
    mem::Cycles quantum() const { return quantum_; }

    /**
     * Bound admission queue + shedding policy. @p capacity limits
     * the live admitted population (Admitted + Running); 0 means
     * unbounded. @p vaultWidth (the configured vault count) feeds
     * EDF's reachability bound; 0 disables the vault-floor term.
     * Configure before the first decide().
     */
    void setOverload(ShedPolicy shed, std::size_t capacity = 0,
                     std::uint32_t vaultWidth = 0);

    ShedPolicy shedPolicy() const { return shed_; }

    /**
     * Register a query; ids are dense and double as enrollment order
     * (FCFS rank, Credit round-robin order).
     */
    sim::QueryId enroll(const AdmissionSpec &spec = {});

    std::size_t enrolled() const { return queries_.size(); }

    /**
     * One admission-boundary decision over the parked set @p waiting
     * (non-empty, ascending): either a grant (verdict == Running) or
     * a cancellation wake (verdict == TimedOut / Shed). The sweep,
     * in order: warp the admission clock, process arrivals through
     * the bounded queue, time out deadline violators, shed
     * EDF-unreachable queries, then pick a grantee among the
     * eligible. At most one cancellation per call -- the wake
     * occupies the grant slot.
     */
    struct Decision
    {
        sim::QueryId query = 0;
        QueryState verdict = QueryState::Running;
    };

    Decision decide(const std::vector<sim::QueryId> &waiting);

    /**
     * Choose which of @p waiting (non-empty, ascending) dispatches
     * next, and log the grant. Credit deducts on charge(), refilling
     * every live query by the quantum when no waiting query has
     * credit left. Under ShedPolicy::Edf the pick is earliest-
     * deadline-first instead of the base policy's rule. decide()
     * calls this with the eligible subset; exact-cycle pins call it
     * directly (every query eligible, lifecycle bypassed).
     */
    sim::QueryId pick(const std::vector<sim::QueryId> &waiting);

    /** Apply one granted dispatch's demand to the virtual clocks. */
    void charge(sim::QueryId query, const DispatchDemand &demand);

    /**
     * The query is done; freeze its completion time and terminal
     * state (the pending cancellation verdict if one was issued,
     * Completed otherwise).
     */
    void finish(sim::QueryId query);

    bool finished(sim::QueryId query) const;

    /** Lifecycle state (terminal only after finish()). */
    QueryState state(sim::QueryId query) const;

    /**
     * The cancellation verdict decide() woke @p query with, or
     * Running when it was granted normally. admit() returns this.
     */
    QueryState grantVerdict(sim::QueryId query) const;

    /** Virtual end-to-end makespan of a finished query. */
    mem::Cycles completion(sim::QueryId query) const;

    /** Total own (issuing-thread) cycles charged by the query. */
    mem::Cycles ownCycles(sim::QueryId query) const;

    /** The query's arrival offset / deadline (spec echo). */
    mem::Cycles arrival(sim::QueryId query) const;
    mem::Cycles deadline(sim::QueryId query) const;

    /** Completed at or before its deadline (no deadline = met). */
    bool deadlineMet(sim::QueryId query) const;

    /** Remaining Credit balance (meaningful under Credit only). */
    std::int64_t credit(sim::QueryId query) const;

    /** Busy-until clock of @p vault (0 if never touched). */
    mem::Cycles vaultClock(std::uint32_t vault) const;

    /** The admission clock (diagnostics; advanced by decide()). */
    mem::Cycles virtualNow() const { return nowV_; }

    /** Every grant in order -- the pinned admission interleaving. */
    const std::vector<sim::QueryId> &admissionLog() const
    {
        return admitted_;
    }

    /** One lifecycle transition (in decision order). */
    struct LifecycleEvent
    {
        sim::QueryId query = 0;
        QueryState state = QueryState::Pending;

        bool
        operator==(const LifecycleEvent &other) const
        {
            return query == other.query && state == other.state;
        }
    };

    /**
     * Every lifecycle transition in decision order -- the shed /
     * cancellation log the overload tests pin. Deterministic and
     * host-timing independent (decisions read only model state).
     */
    const std::vector<LifecycleEvent> &lifecycleLog() const
    {
        return lifecycle_;
    }

  private:
    struct Query
    {
        AdmissionSpec spec;
        QueryState state = QueryState::Pending;
        /** Cancellation verdict to deliver at the wake (or Running). */
        QueryState wake = QueryState::Running;
        mem::Cycles issue = 0; ///< Own-cycle timeline position.
        mem::Cycles tail = 0;  ///< Latest vault time it occupied.
        mem::Cycles own = 0;
        mem::Cycles completionAt = 0;
        std::int64_t credit = 0;
        bool done = false;
    };

    bool creditEligible(const std::vector<sim::QueryId> &waiting) const;

    /** max(arrival, issue): when q's next dispatch could start. */
    mem::Cycles readyPoint(const Query &q) const;

    /** Earliest free vault lane under the configured width. */
    mem::Cycles vaultFloor() const;

    /** Queries in Admitted/Running (the bounded-queue population). */
    std::size_t liveAdmitted() const;

    void transition(sim::QueryId query, QueryState state);

    /** Admit @p query or pick a shed victim (capacity policy). */
    std::optional<Decision> admitArrival(sim::QueryId query);

    SchedPolicy policy_;
    mem::Cycles quantum_;
    ShedPolicy shed_ = ShedPolicy::None;
    std::size_t capacity_ = 0; ///< 0 = unbounded.
    std::uint32_t vaultWidth_ = 0;
    mem::Cycles nowV_ = 0; ///< Admission clock (virtual, warped).
    std::vector<Query> queries_;
    std::vector<mem::Cycles> vaultClock_;
    std::vector<sim::QueryId> admitted_;
    std::vector<LifecycleEvent> lifecycle_;
    std::vector<sim::QueryId> eligibleScratch_;
    sim::QueryId cursor_ = 0; ///< Credit round-robin position.
};

/**
 * Thread-safe lockstep admission gate over a ServingModel. Protocol,
 * per session host thread:
 *
 *   id = enroll(spec);                // before any thread starts
 *   ... per dispatch:
 *   verdict = admit(id);              // blocks until granted/cancelled
 *   <dispatch through the bound Scu>  // (on a cancel verdict the Scu
 *   report(id, demand);               //  throws QueryCancelledError
 *   ... when the query completes:     //  instead of dispatching)
 *   leave(id, final_demand);          // trailing own cycles + done
 *
 * The Scu drives admit/report itself once bindQuery() attaches it to
 * a scheduler; leave() is the session teardown's job. A grant is
 * issued only when all unfinished queries are parked in admit(), so
 * every run of the same queries yields the same admission log. Each
 * enrolled query parks on its own condition variable and a decision
 * wakes only its grantee: the other parked threads stay asleep, so a
 * grant costs one hand-off however many queries are enrolled.
 *
 * Cancellation rides the grant slot: a cancelled query wakes from
 * admit() with its verdict, does NOT report, and holds the slot
 * until its leave() -- so cancelled-session teardown (window drain,
 * set release) never overlaps a co-tenant's dispatch.
 */
class QueryScheduler
{
  public:
    explicit QueryScheduler(
        SchedPolicy policy,
        mem::Cycles quantum = ServingModel::default_quantum);

    /** Configure overload protection BEFORE any thread starts. */
    void setOverload(ShedPolicy shed, std::size_t capacity = 0,
                     std::uint32_t vaultWidth = 0);

    /** Register a query BEFORE its session thread starts. */
    sim::QueryId enroll(const AdmissionSpec &spec = {});

    /**
     * Block until the policy grants this query a dispatch slot.
     * Returns QueryState::Running on a grant; a cancellation verdict
     * (TimedOut / Shed) means the dispatch must NOT run --
     * the caller drains its in-flight state and unwinds to leave().
     */
    QueryState admit(sim::QueryId query);

    /** End the grant, feeding the dispatch's demand to the model. */
    void report(sim::QueryId query, DispatchDemand demand);

    /** Final demand (trailing own cycles) + mark the query done. */
    void leave(sim::QueryId query, DispatchDemand demand);

    /**
     * Own cycles the model has charged @p query so far, read under
     * the scheduler lock -- safe while co-tenants are still running
     * (session teardown settles its leave() tail against this).
     */
    mem::Cycles ownCycles(sim::QueryId query) const;

    /**
     * The model, for post-run inspection (completions, admission
     * log, lifecycle log). Only safe once every enrolled query has
     * left.
     */
    const ServingModel &model() const { return model_; }

  private:
    enum class State : std::uint8_t { Running, Waiting, Granted };

    /** Grant when all unfinished queries are parked (lock held). */
    void maybeGrantLocked();

    mutable std::mutex mu_;
    /** One wake-up per enrolled query (a deque never relocates). */
    std::deque<std::condition_variable> wake_;
    ServingModel model_;
    std::vector<State> states_;
    std::size_t unfinished_ = 0;
    std::size_t waiting_ = 0;
    bool grantOutstanding_ = false;
    std::vector<sim::QueryId> waitingScratch_;
};

} // namespace sisa::isa

#endif // SISA_SISA_SERVING_HPP
