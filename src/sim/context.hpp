/**
 * @file
 * Deterministic cycle-accounting simulation context. This replaces the
 * paper's Sniper+Pin toolchain (see DESIGN.md, Substitution 1): the
 * algorithms execute functionally on the host while charging modeled
 * cycles to logical simulated threads. Per-thread busy and stall
 * cycles support the load-balancing study (Figure 9a), set-size
 * traces support Figure 9b, and per-thread pattern cutoffs implement
 * the paper's technique for taming long simulations of NP-hard
 * mining problems (Section 9.1, "Tackling Long Simulation Runtimes").
 */

#ifndef SISA_SIM_CONTEXT_HPP
#define SISA_SIM_CONTEXT_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/pim.hpp"
#include "support/stats.hpp"

namespace sisa::sim {

using mem::Cycles;

/** Identifier of a simulated (logical) thread. */
using ThreadId = std::uint32_t;

/**
 * Identifier of a serving-layer query (serve/scenario.hpp). Contexts
 * created outside the serving layer carry no_query and pay nothing
 * for the tag: charges only fold into a per-query account once
 * bindQuery() installs a real id.
 */
using QueryId = std::uint32_t;

/** Sentinel: charges are not attributed to any query. */
inline constexpr QueryId no_query = ~QueryId{0};

// --- Counter registry ------------------------------------------------------

/** Dense id of an interned counter name (see internCounter). */
using CounterId = std::uint32_t;

/**
 * Process-wide registry from counter name to dense CounterId,
 * registering @p name on first use. Thread-safe. Hot call sites
 * intern once (e.g. through a function-local static) and bump by id;
 * names are resolved only when a context reports its counters.
 */
CounterId internCounter(std::string_view name);

/** The id of @p name if it was ever interned (never registers it). */
std::optional<CounterId> findCounter(std::string_view name);

/** The name interned as @p id (a stable reference). */
const std::string &counterName(CounterId id);

/**
 * Flat counter storage indexed by CounterId: a value and a touched
 * flag per id, so a name reports iff it was bumped -- even by 0.
 */
class CounterSet
{
  public:
    void
    add(CounterId id, std::uint64_t delta)
    {
        if (id >= slots_.size())
            grow(id);
        slots_[id].value += delta;
        slots_[id].touched = true;
    }

    std::uint64_t
    get(CounterId id) const
    {
        return id < slots_.size() ? slots_[id].value : 0;
    }

    /** Add every touched counter of @p other (touching it here). */
    void absorb(const CounterSet &other);

    /** Zero and untouch every counter, keeping the storage. */
    void clear();

    /** Write every touched counter into @p out under its name. */
    void materialize(std::map<std::string, std::uint64_t> &out) const;

  private:
    struct Slot
    {
        std::uint64_t value = 0;
        bool touched = false;
    };

    void grow(CounterId id);

    std::vector<Slot> slots_;
};

/** Half-open iteration range assigned to one simulated thread. */
struct Range
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t size() const { return end - begin; }
    bool empty() const { return begin >= end; }
};

/** Contiguous block partition of [0, total) over @p num_threads. */
Range blockRange(std::uint64_t total, std::uint32_t num_threads,
                 ThreadId tid);

/**
 * Per-query slice of a SimContext: the busy/stall cycles and named
 * counters charged while the context was bound to one QueryId. The
 * serving layer prices each tenant's SLO from these, and the
 * co-tenancy differentials compare them bit for bit solo vs. shared.
 * This is the reporting view; the context stores flat slices and
 * builds it when read.
 */
struct QueryAccount
{
    Cycles busy = 0;
    Cycles stall = 0;
    std::map<std::string, std::uint64_t> counters;

    Cycles cycles() const { return busy + stall; }
};

/** Cycle and work accounting for one simulated execution. */
class SimContext
{
  public:
    explicit SimContext(std::uint32_t num_threads);

    std::uint32_t numThreads() const { return numThreads_; }

    // --- Per-query scoping (multi-tenant serving) -------------------------

    /**
     * Tag subsequent charges with @p query (no_query detaches). Every
     * chargeBusy/chargeStall/bumpCounter while bound ALSO accumulates
     * into the query's account; thread totals are unchanged, so the
     * invariant "sum of per-query accounts == sum of tagged charges"
     * holds by construction.
     */
    void
    bindQuery(QueryId query)
    {
        activeQuery_ = query;
        activeSlot_ = no_slot; // Resolved by the first tagged charge.
    }

    QueryId activeQuery() const { return activeQuery_; }

    /**
     * Account of @p query (zeroes if it never charged here). Built
     * from the flat slice when read: the reference stays valid, but
     * its values are a snapshot until the next read.
     */
    const QueryAccount &queryAccount(QueryId query) const;

    /** Every query that charged here, built when read (as above). */
    const std::map<QueryId, QueryAccount> &queryAccounts() const;

    /**
     * Merge @p other's per-query accounts (cycles AND counters) into
     * this context's accounts. Unlike absorbCounters this moves
     * cycles too -- it is the serving aggregate's view of what each
     * query consumed, not a thread-timeline merge; thread busy/stall
     * vectors are untouched.
     */
    void absorbQueryAccounting(const SimContext &other);

    /** Charge compute (non-stalled) cycles to thread @p tid. */
    void
    chargeBusy(ThreadId tid, Cycles cycles)
    {
        busy_[tid] += cycles;
        if (activeQuery_ != no_query)
            activeSlice().busy += cycles;
    }

    /** Charge memory-stall cycles to thread @p tid. */
    void
    chargeStall(ThreadId tid, Cycles cycles)
    {
        stall_[tid] += cycles;
        if (activeQuery_ != no_query)
            activeSlice().stall += cycles;
    }

    /** Total cycles consumed by @p tid (busy + stall). */
    Cycles threadCycles(ThreadId tid) const;

    Cycles threadBusy(ThreadId tid) const { return busy_[tid]; }
    Cycles threadStall(ThreadId tid) const { return stall_[tid]; }

    /** Simulated run time: the slowest thread (barrier semantics). */
    Cycles makespan() const;

    /**
     * Sum of threadCycles over ALL threads -- the serving layer's
     * own-cycle base, monotone no matter which tid a dispatch issues
     * on (a multi-thread session serializes its modeled threads into
     * one served timeline).
     */
    Cycles totalCycles() const;

    /**
     * Fraction of the run during which @p tid was not doing useful
     * work: memory stalls plus end-of-run idling (load imbalance).
     */
    double stalledFraction(ThreadId tid) const;

    // --- Set-size tracing (Figure 9b) -----------------------------------

    /** Start recording processed-set sizes with @p bin_width bins. */
    void enableSetSizeTrace(std::uint64_t bin_width = 5);

    bool setSizeTraceEnabled() const { return traceEnabled_; }

    /** Record that @p tid processed a set of @p size elements. */
    void recordSetSize(ThreadId tid, std::uint64_t size);

    /** Per-thread histogram of processed set sizes. */
    const support::Histogram &setSizeTrace(ThreadId tid) const;

    // --- Pattern cutoffs (Section 9.1) -----------------------------------

    /**
     * Stop each thread after it reports @p per_thread patterns
     * (0 disables the cutoff and simulates the full execution).
     */
    void setPatternCutoff(std::uint64_t per_thread);

    /**
     * Report one found pattern (clique, match, ...) on @p tid.
     * @return true while the thread is within its cutoff.
     */
    bool countPattern(ThreadId tid);

    /**
     * Report @p k found patterns on @p tid at once, leaving exactly
     * the count k countPattern calls would, stopping at the first
     * false: +min(k, cutoff - patterns) below the cutoff, +1 at or
     * past it (k > 0), +k without a cutoff.
     * @return true while the thread is within its cutoff.
     */
    bool countPatterns(ThreadId tid, std::uint64_t k);

    /** Whether @p tid exhausted its pattern budget. */
    bool cutoffReached(ThreadId tid) const;

    std::uint64_t patterns(ThreadId tid) const { return patterns_[tid]; }
    std::uint64_t totalPatterns() const;

    /**
     * Return to the freshly constructed state with @p num_threads
     * threads, keeping allocations (the SCU's per-dispatch scratch
     * contexts). Invalidates references from counters() and
     * queryAccount(s)().
     */
    void reset(std::uint32_t num_threads);

    // --- Named counters ---------------------------------------------------

    /** Accumulate an interned statistic (e.g. "scu.pum_ops"). */
    void
    bumpCounter(CounterId id, std::uint64_t delta = 1)
    {
        counters_.add(id, delta);
        if (activeQuery_ != no_query)
            activeSlice().counters.add(id, delta);
    }

    /**
     * Merge every named counter of @p other into this context -- the
     * step of batched dispatch where the lane-accounting context
     * folds its tallies into the issuing thread's context.
     * Cycles never merge (the caller charges the makespan instead).
     * Per-query COUNTER slices merge the same way; per-query cycles
     * do NOT (mirroring the thread rule -- the dispatch path charges
     * each query its share of the makespan directly).
     */
    void absorbCounters(const SimContext &other);

    /** Value of @p name (0, without registering it, if never bumped). */
    std::uint64_t counter(std::string_view name) const;

    /**
     * Every bumped counter by name, built when read. The map only
     * grows between reads, so earlier references and iterators stay
     * valid. Not safe to call concurrently on one context.
     */
    const std::map<std::string, std::uint64_t> &counters() const;

  private:
    /** One query's flat account (see QueryAccount for the view). */
    struct QuerySlice
    {
        QueryId query = no_query;
        Cycles busy = 0;
        Cycles stall = 0;
        CounterSet counters;
    };

    static constexpr std::size_t no_slot = ~std::size_t{0};

    /** The bound query's slice, found once per bindQuery. */
    QuerySlice &
    activeSlice()
    {
        if (activeSlot_ == no_slot)
            activeSlot_ = sliceIndex(activeQuery_);
        return slices_[activeSlot_];
    }

    /** Index of @p query's slice, or no_slot if it never charged. */
    std::size_t findSlot(QueryId query) const;

    /** Index of @p query's slice, creating it on first use. */
    std::size_t sliceIndex(QueryId query);

    std::uint32_t numThreads_;
    std::vector<Cycles> busy_;
    std::vector<Cycles> stall_;
    std::vector<std::uint64_t> patterns_;
    std::uint64_t patternCutoff_ = 0;
    bool traceEnabled_ = false;
    std::vector<support::Histogram> traces_;
    CounterSet counters_;
    QueryId activeQuery_ = no_query;
    /** Index into slices_ (an index, so copies and moves stay valid). */
    std::size_t activeSlot_ = no_slot;
    /** Slices [0, liveSlices_) are live; the rest await reuse. */
    std::vector<QuerySlice> slices_;
    std::size_t liveSlices_ = 0;
    // Reporting views, rebuilt in place when read.
    mutable std::map<std::string, std::uint64_t> countersView_;
    mutable std::map<QueryId, QueryAccount> accountsView_;
};

} // namespace sisa::sim

#endif // SISA_SIM_CONTEXT_HPP
