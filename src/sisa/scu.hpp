/**
 * @file
 * The SISA Controller Unit (Sections 3c, 8.2, 8.4). The SCU receives
 * SISA instructions from the host core, consults the Set Metadata
 * (through the SMB cache), and schedules each instruction on the most
 * beneficial accelerator:
 *
 *  - two dense bitvectors -> SISA-PUM (Ambit-style in-situ bulk
 *    bitwise AND/OR/NOT over DRAM rows);
 *  - anything else        -> SISA-PNM (logic-layer cores), where the
 *    Section 8.3 performance models decide between the merge
 *    (streaming) and galloping (random access) set algorithms.
 *
 * Every instruction is executed functionally against the SetStore and
 * charged modeled cycles into the SimContext. Counters record the
 * dispatch decisions and the OpWork totals used by the Table 6
 * complexity validation.
 */

#ifndef SISA_SISA_SCU_HPP
#define SISA_SISA_SCU_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "mem/cache.hpp"
#include "mem/pim.hpp"
#include "sets/operations.hpp"
#include "sim/context.hpp"
#include "sisa/batch.hpp"
#include "sisa/dependency_window.hpp"
#include "sisa/isa.hpp"
#include "sisa/placement.hpp"
#include "sisa/serving.hpp"
#include "sisa/set_store.hpp"
#include "sisa/trace.hpp"

namespace sisa::isa {

/**
 * Execution-vault routing rule for batched operations.
 *
 *  - Primary:  run every op in the vault of operand `a` (the
 *              historical behavior): a remote `b` crosses the
 *              interconnect regardless of how large it is.
 *  - Balanced: makespan-driven batch scheduling. dispatchBatch first
 *              executes every operation functionally (caching the
 *              exact cycle charges), then runs an LPT list scheduler
 *              over them: operations are taken in descending cost
 *              order and each is assigned to whichever of its two
 *              operand vaults completes it earlier --
 *              lane_depth + exec + interconnect(co-operand left
 *              remote), with the once-per-(vault, operand) transfer
 *              dedup priced in. Ties keep `a`'s vault, so a single
 *              op degenerates to the bigger-operand rule: run where
 *              the larger operand (by footprint) lives and move only
 *              the smaller co-operand. Because the scheduler
 *              consumes the very charges that are later billed,
 *              estimate and charge can never diverge.
 */
enum class Routing : std::uint8_t { Primary, Balanced };

/**
 * The routing name table: "primary" (also "") and "balanced".
 * std::nullopt for any other name -- report it with routingNames().
 */
std::optional<Routing> parseRouting(std::string_view name);

/** The valid routing names, "primary | balanced". */
std::string_view routingNames();

/** SCU configuration (Sections 8.2, 8.4, 9.1). */
struct ScuConfig
{
    mem::PimParams pim{};
    /** SMB (SCU metadata cache) enabled; 32KB by default (9.1). */
    bool smbEnabled = true;
    /** One SMB shared by all threads vs. a private SMB per thread. */
    bool smbShared = false;
    /** Extra access latency of a shared SMB (Section 9.2). */
    mem::Cycles smbSharedExtraLatency = 2;
    std::uint64_t smbBytes = 32 * 1024;
    /**
     * Galloping selection rule: 0 uses the Section 8.3 performance
     * models; a value g > 0 uses the ratio heuristic instead (gallop
     * iff max >= g * min), the knob swept in Figure 7b.
     */
    double gallopThreshold = 0.0;
    /**
     * Compatibility shim: host dispatch always runs a batch's ops
     * inline on the dispatching thread, so the only accepted value is
     * 1 (the Scu constructor rejects any other). The field will be
     * deleted together with the next benchmark change.
     */
    std::uint32_t batchWorkers = 1;
    /** Execution-vault routing rule for batched dispatch. */
    Routing routing = Routing::Primary;
    /**
     * In-flight dispatch window of Scu::dispatchAsync: up to
     * asyncDepth batches may be pending retirement at once, so a
     * batch whose operands have no RAW/WAR/WAW edge to a pending
     * result starts on idle vault lanes instead of waiting for the
     * previous batch's barrier. 0 (the default) disables the window
     * -- dispatchAsync retires every batch as a barrier and hands
     * back an immediately-retired ticket. Overlap moves cycle charges
     * only:
     * results, ids, traces, and functional counters stay
     * bit-identical to the barriered path (the batch.hpp CROSS-BATCH
     * HAZARDS contract).
     */
    std::uint32_t asyncDepth = 0;
};

/** Which backend executed an instruction (for counters/tests). */
enum class Backend : std::uint8_t { Pum, PnmStream, PnmRandom, None };

/** The controller; all SISA instructions funnel through execute(). */
class Scu
{
  public:
    Scu(SetStore &store, const ScuConfig &config,
        std::uint32_t num_threads);

    SetStore &store() { return store_; }
    const ScuConfig &config() const { return config_; }

    // --- Typed instruction issue (the C-style wrapper targets) ----------

    /** A cap B -> new set. @p variant may force merge or galloping. */
    SetId intersect(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                    SetId b, SisaOp variant = SisaOp::IntersectAuto);

    /** A cup B -> new set. */
    SetId setUnion(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   SetId b, SisaOp variant = SisaOp::UnionAuto);

    /** A setminus B -> new set. */
    SetId difference(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                     SetId b, SisaOp variant = SisaOp::DifferenceAuto);

    /** |A cap B| without materializing the intersection. */
    std::uint64_t intersectCard(sim::SimContext &ctx, sim::ThreadId tid,
                                SetId a, SetId b,
                                SisaOp variant = SisaOp::IntersectAuto);

    /** |A cup B| without materializing the union. */
    std::uint64_t unionCard(sim::SimContext &ctx, sim::ThreadId tid,
                            SetId a, SetId b);

    /**
     * Execute every operation of @p batch as ONE dispatch: a single
     * decode, one metadata round per operand, then concurrent execution
     * across the vaults. Each operation is routed to an execution vault
     * by the configured Routing rule (the primary operand's vault, or
     * the vault the LPT batch scheduler picks under Balanced -- see the
     * Routing enum); operations on the same vault serialize, vaults run
     * in parallel, and the calling simulated thread is charged the
     * makespan of the slowest vault plus the cross-vault result
     * reduction tree. On the host, the batch's operations execute
     * functionally up front, in request order on the dispatching
     * thread; the lanes are then laid out in modeled time, so the
     * vault parallelism is modeled, never host-threaded.
     *
     * Cross-vault traffic model: when an operation's co-operand
     * resolves to a DIFFERENT vault than its execution vault, the
     * co-operand's bytes first cross the interconnect at b_L
     * (mem::interconnectCycles), charged into that vault's lane --
     * once per (vault, remote operand) pair per dispatch, since the
     * vault buffers the operand for the batch's duration. Results of
     * a multi-vault batch reduce back to the SCU as a binary tree
     * over b_L whose per-level cost is the slowest sender. Counters:
     * scu.xvault_transfers, setops.xvault_bytes,
     * setops.xvault_reduce_bytes. Metadata-only short circuits
     * (empty results, zero cardinalities) never touch the
     * interconnect; a degenerate copy still moves the operand it
     * reads, so {} cup B with a remote B pays B's transfer (under
     * Balanced a one-op batch instead executes in B's vault for
     * free) and its result reduces.
     *
     * Functional results and total setops.{streamed,probes,words,
     * output} counters are identical to issuing the same operations
     * serially, under every placement policy and routing rule; so is
     * lastBackend() (both paths track the last operation that
     * actually charged a backend).
     */
    BatchResult dispatchBatch(sim::SimContext &ctx, sim::ThreadId tid,
                              const BatchRequest &batch);

    /**
     * dispatchBatch without the barrier (config().asyncDepth > 0):
     * the same dispatch pipeline, retired through an in-flight
     * window instead of at once. The batch executes functionally IN
     * ORDER at dispatch -- same
     * results, result ids, traces, and functional counters as
     * dispatchBatch, bit for bit -- but its modeled completion joins
     * an in-flight window instead of stalling the issuing thread.
     * Per-vault virtual lane clocks carry load across the window's
     * batches; the scoreboard (DependencyWindow) joins the
     * new batch's operands against the unretired defs, so an op
     * reading a pending result starts at that result's modeled
     * completion while independent ops start on idle lanes
     * immediately. The issuing thread is charged only when it truly
     * has to wait: the ROB-style in-order retire when more than
     * asyncDepth batches are pending, a serial-op dependency
     * (syncRead), or drainWindow -- and then as STALL cycles, so
     * makespan can only shrink relative to the barriered path.
     *
     * The window is bound to the dispatching (ctx, tid): a dispatch
     * or serial op from a different context/thread drains it first
     * (charging the bound thread). With asyncDepth 0 every dispatch
     * retires as a barrier.
     *
     * The returned handle's BatchResult is complete immediately;
     * collectBatch forwards it without charging (the SCU's result
     * registers, not the vaults, satisfy the read).
     */
    BatchHandle dispatchAsync(sim::SimContext &ctx, sim::ThreadId tid,
                              const BatchRequest &batch);

    /**
     * Redeem @p handle for its BatchResult (single use). Charges
     * nothing: the in-order front end completed the batch
     * functionally at dispatch, so this is ROB value forwarding, not
     * a synchronization point. Asserts on an unknown or
     * already-collected ticket.
     */
    BatchResult collectBatch(sim::SimContext &ctx, sim::ThreadId tid,
                             BatchHandle handle);

    /**
     * Retire every in-flight async dispatch: the bound thread is
     * charged the stall up to the latest pending modeled completion,
     * and the scoreboard and lane clocks reset. A no-op when no
     * window is active. Collected
     * and uncollected results survive (collectBatch still works).
     */
    void drainWindow(sim::SimContext &ctx, sim::ThreadId tid);

    /**
     * RAW edge from a serial read of @p id into the async window: if
     * a pending dispatch materializes @p id, stall (ctx, tid) to its
     * modeled completion. Engines call this before reading a set's
     * payload outside the batch path (e.g. element enumeration).
     * A no-op when no window is active or @p id is not pending.
     */
    void syncRead(sim::SimContext &ctx, sim::ThreadId tid, SetId id);

    /** In-flight async dispatches not yet retired (introspection). */
    std::size_t
    asyncInFlight() const
    {
        return pendingCompletions_.size();
    }

    /** Is an async window currently bound to a context? */
    bool asyncWindowActive() const { return windowCtx_ != nullptr; }

    /**
     * Simulated vault holding @p id: the result overlay first, then
     * the installed placement policy.
     */
    std::uint32_t vaultOf(SetId id) const;

    /**
     * Execution vault for one batched operation under the configured
     * routing rule: vaultOf(a) for Routing::Primary. Routing::Balanced
     * schedules whole batches against per-vault load, which a
     * single-op query cannot see; with empty lanes its greedy choice
     * IS the bigger-operand rule (the vault of the larger-footprint
     * operand, ties keep a's vault), so that is what this (and
     * serial issue) report for it.
     */
    std::uint32_t routeVault(const BatchOp &op) const;

    /** The active placement policy (never null). */
    const PlacementPolicy &placement() const { return *placement_; }

    /**
     * Install @p policy for subsequent dispatches (nullptr resets to
     * HashPlacement). A policy built for a different vault count
     * than config().pim.vaults is rejected with a warning and
     * replaced by a correct-width HashPlacement (never folded by
     * modulo). Clears the result overlay. Placement affects cycle
     * charges and xvault counters only, never functional results.
     */
    void setPlacement(std::shared_ptr<const PlacementPolicy> policy);

    /** |A| (O(1): a metadata lookup). */
    std::uint64_t cardinality(sim::SimContext &ctx, sim::ThreadId tid,
                              SetId a);

    /** x in A. */
    bool member(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x);

    /** A cup {x} in place (Table 5 op 0x5). */
    void insert(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x);

    /** A setminus {x} in place (Table 5 op 0x6). */
    void remove(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x);

    /** Create a set from sorted elements. */
    SetId create(sim::SimContext &ctx, sim::ThreadId tid,
                 std::vector<Element> elems, SetRepr repr);

    /** Create an empty set / the full universe set. */
    SetId createEmpty(sim::SimContext &ctx, sim::ThreadId tid,
                      SetRepr repr);
    SetId createFull(sim::SimContext &ctx, sim::ThreadId tid);

    /** Clone (RowClone for DBs, stream copy for SAs). */
    SetId clone(sim::SimContext &ctx, sim::ThreadId tid, SetId a);

    /** Destroy a set. */
    void destroy(sim::SimContext &ctx, sim::ThreadId tid, SetId a);

    /**
     * Last dispatch decision (introspection for tests/benches): the
     * backend of the most recent operation that actually charged a
     * backend. Metadata-only short circuits leave it untouched, and
     * batched dispatch scans back to the last charging op of the
     * batch, so serial and batched issue of the same operation
     * sequence always agree.
     */
    Backend lastBackend() const { return lastBackend_; }

    /**
     * Capacity of the per-op dispatch scratch (test introspection
     * for the shrink-to-high-watermark policy: after a one-off burst
     * batch, a window of small dispatches releases the burst's
     * allocation instead of holding it forever).
     */
    std::size_t scratchCapacity() const { return outcomes_.capacity(); }

    /**
     * Attach an instruction trace: every subsequently issued set
     * operation is recorded in encoded form. Pass nullptr to detach.
     */
    void setTrace(InstructionTrace *trace) { trace_ = trace; }

    /** Would the SCU pick galloping for sizes (|A|, |B|)? */
    bool wouldGallop(std::uint64_t size_a, std::uint64_t size_b) const;

    // --- Multi-tenant serving (sisa/serving.hpp) ----------------------

    /**
     * Attach this SCU to an admission scheduler as @p query. Every
     * subsequent non-empty dispatch first blocks in sched->admit()
     * and afterwards reports its DispatchDemand: the own-cycle delta
     * of @p ctx since the previous report -- summed over all of the
     * session's modeled threads, so any tid may issue -- (front-end
     * charges, makespan, retire stalls, interleaved serial ops) plus
     * the per-vault busy cycles the dispatch queued on the shared
     * lanes. The first delta's baseline is @p ctx's CURRENT cycle
     * total, so session setup stays outside the served timeline.
     * Scheduling gates modeled time only -- results, ids, and
     * setops.* totals are untouched. unbindQuery() detaches.
     */
    void bindQuery(QueryScheduler &sched, sim::QueryId query,
                   const sim::SimContext &ctx);

    /**
     * Detach from the scheduler and return the unreported tail of
     * the demand (own cycles since the last dispatch's report) for
     * the session's QueryScheduler::leave() call.
     */
    DispatchDemand unbindQuery(const sim::SimContext &ctx);

    /** The scheduler query this SCU dispatches as (or no_query). */
    sim::QueryId boundQuery() const { return query_; }

  private:
    /**
     * One planned-and-executed binary set operation, produced by
     * executeBinary() without touching any SimContext or the store's
     * id space. Serial dispatch applies it to the calling thread;
     * batched dispatch applies it to a vault lane. Keeping a single
     * execution path is what guarantees batched and serial dispatch
     * pick identical plans and produce identical results.
     */
    struct OpCharge
    {
        Backend backend = Backend::None;
        mem::Cycles cycles = 0;
    };

    struct OpOutcome
    {
        std::variant<std::monostate, SortedArraySet, DenseBitset>
            payload; ///< Result set for materializing ops.
        std::uint64_t scalar = 0;  ///< Cardinality for *Card ops.
        sets::OpWork work;         ///< setops.* accounting.
        std::array<OpCharge, 3> charges{};
        std::uint32_t numCharges = 0;
        bool shortCircuited = false; ///< Zero-cardinality fast path.
        /**
         * Whether executing the op pulls the given operand's payload
         * into the execution vault (so that operand, when remote,
         * pays the b_L transfer). Metadata-only short circuits read
         * neither; a degenerate copy reads only the operand it
         * copies ({} cup B streams B's bytes but never touches A).
         * Which flag matters per op depends on the routing decision:
         * the co-operand left remote may be A or B.
         */
        bool readsA = true;
        bool readsB = true;

        void
        addCharge(Backend backend, mem::Cycles cycles)
        {
            charges[numCharges++] = {backend, cycles};
        }
    };

    /**
     * Serial issue of one binary op: RAW edges into the async
     * window, decode, the operands' metadata rounds and set sizes,
     * then execute and charge the outcome on (@p ctx, @p tid).
     */
    OpOutcome issueSerial(sim::SimContext &ctx, sim::ThreadId tid,
                          BatchOpKind kind, SetId a, SetId b,
                          SisaOp variant);

    /** issueSerial + adoption, result placement and trace. */
    SetId issueSetOp(sim::SimContext &ctx, sim::ThreadId tid,
                     BatchOpKind kind, SetId a, SetId b, SisaOp variant);

    /**
     * Plan and execute one binary set operation (Section 8.2/8.3
     * dispatch rules; zero-cardinality operands short-circuit to a
     * metadata-only charge). Reads the store but never mutates it.
     */
    OpOutcome executeBinary(BatchOpKind kind, SetId a, SetId b,
                            SisaOp variant) const;

    /** Charge @p outcome's cycles and counters to (@p ctx, @p tid). */
    void chargeOutcome(sim::SimContext &ctx, sim::ThreadId tid,
                       const OpOutcome &outcome);

    /** chargeOutcome + lastBackend_ update (serial issue only). */
    void applyOutcome(sim::SimContext &ctx, sim::ThreadId tid,
                      const OpOutcome &outcome);

    /**
     * THE lastBackend_ rule, shared by serial issue (applyOutcome)
     * and the batched backward scan: an outcome that charged a
     * backend updates lastBackend_ to its final charge's backend; a
     * metadata-only outcome retains the previous value. One rule in
     * one place is what keeps serial and batched issue of the same
     * operation sequence in exact agreement.
     */
    void retainOrUpdateLastBackend(const OpOutcome &outcome);

    /** Adopt the payload (if any) into the store. */
    SetId adoptOutcome(OpOutcome &&outcome);

    /**
     * adoptOutcome + result pinning for serial binary ops: under a
     * result-placing policy the result pins to the vault
     * resolveRoute(a, b) picks (routing is not worth resolving
     * otherwise -- the overlay is provably empty).
     */
    SetId adoptPlacedOutcome(OpOutcome &&outcome, SetId a, SetId b);

    /**
     * One routing decision: the execution vault plus the co-operand
     * (if any) that stayed remote and would have to cross the
     * interconnect before the vault can execute.
     */
    struct OpRoute
    {
        std::uint32_t vault = 0;
        SetId remote = invalid_set; ///< Remote co-operand or invalid.
        std::uint64_t bytes = 0;    ///< Its footprint (0 = co-located).
        bool remoteIsB = true;      ///< Which read flag gates the transfer.
    };

    /** Routing under config().routing; pure, metadata-only. */
    OpRoute resolveRoute(SetId a, SetId b) const;

    /**
     * The one batched-dispatch pipeline behind dispatchBatch and
     * dispatchAsync: admit -> execute functionally -> route -> lay
     * lanes out in modeled time -> reduce -> retire. The two differ
     * only in the retire rule: a barrier (@p windowed false) drains
     * any open window, lays its lanes from fresh clocks and charges
     * the issuing thread busy(completion - issue) at once; a windowed
     * dispatch joins the scoreboard and the ROB.
     */
    BatchResult dispatch(sim::SimContext &ctx, sim::ThreadId tid,
                         const BatchRequest &batch, bool windowed);

    /**
     * Execute every batch operation functionally into outcomes_, in
     * request order, WITHOUT charging anything -- lane layout and the
     * Balanced scheduler need each op's exact cycle charges first.
     */
    void preExecuteOutcomes(const BatchRequest &batch);

    /**
     * LPT list scheduling over the cached outcomes: schedOrder_ is
     * filled with every op index in descending cost (stably), and
     * each op goes to whichever of its two operand vaults minimizes
     * lane_depth + exec + interconnect(co-operand left remote) on
     * fresh loads, with the once-per-(vault, operand) transfer dedup
     * the charge path applies priced in. Ties keep a's vault. Writes
     * routes_ and returns the scheduled makespan: Balanced routing's
     * pass 1.
     */
    mem::Cycles routeLpt(const BatchRequest &batch);

    /**
     * Balanced routing: routeLpt establishes the makespan M*, then a
     * byte-harvesting pass rewrites every route (see Routing), so
     * the scheduled lane depths equal the cycles later charged.
     */
    void scheduleBalanced(const BatchRequest &batch);

    /** Total cycles @p outcome will charge (the scheduler's cost). */
    static mem::Cycles outcomeCycles(const OpOutcome &outcome);

    /**
     * Register an adopted result set at the vault that produced it
     * (policies with placesResults()), or scrub a stale overlay
     * entry for the recycled slot otherwise.
     */
    void placeResult(SetId id, std::uint32_t vault);

    /** Drop overlay state for a recycled or destroyed id. */
    void forgetPlacement(SetId id);

    /**
     * Shrink-to-high-watermark policy for the dispatch scratch:
     * every scratch_window dispatches, capacities far above the
     * window's peak batch size are released so a one-off burst does
     * not pin its allocation for the process lifetime. Empty
     * dispatches count as size-0 uses of the scratch (they advance
     * the window), so a burst followed by a quiet stream of them
     * still releases the burst's allocation.
     */
    void maybeShrinkScratch(std::size_t n);

    /**
     * First-touch lane build: group ops [0, @p n) into lanes by
     * routes_[i].vault, one lane per vault in order of first
     * appearance (deterministic).
     */
    void appendLanes(std::uint32_t n);

    /**
     * Lay every lane out in modeled time from @p issue, billing every
     * op through chargeLaneOp; returns the latest lane end. With
     * @p ready (a window's scoreboard times) each op also waits for
     * its operands and for the vault's persistent lane clock, and its
     * payload reads are noted for WAR hazards.
     */
    mem::Cycles layLanes(const BatchRequest &batch, mem::Cycles issue,
                         const std::vector<std::uint64_t> *ready);

    /**
     * Lay the cross-vault result reduction tree out after
     * @p batch_end (and, in a window, after the previous tree) and
     * return the batch's completion; bumps xvault_reduce_bytes.
     */
    mem::Cycles reduceResults(sim::SimContext &ctx, mem::Cycles batch_end,
                              bool windowed);

    /**
     * Remote operands already pulled into one lane this dispatch: an
     * epoch stamp per SetId, so moving to the next lane is an O(1)
     * clear() and a lookup is an indexed compare, not a hash probe.
     */
    class FetchedSet
    {
      public:
        void
        clear()
        {
            if (++epoch_ == 0) { // Wrapped: old stamps could alias.
                for (auto &page : pages_) {
                    if (page)
                        std::fill_n(page.get(), page_size, 0);
                }
                epoch_ = 1;
            }
        }

        /** Add @p id; true iff it was not yet in the set. */
        bool
        insert(SetId id)
        {
            const std::size_t p = id / page_size;
            if (p >= pages_.size())
                pages_.resize(p + 1);
            if (!pages_[p])
                pages_[p] = std::make_unique<std::uint32_t[]>(page_size);
            std::uint32_t &stamp = pages_[p][id % page_size];
            if (stamp == epoch_)
                return false;
            stamp = epoch_;
            return true;
        }

      private:
        // Paged, so growing never copies into a bigger block and
        // frees the old one: on tc-hub a flat doubling vector left
        // holes in the heap that cost up to ~10 MB of peak RSS.
        static constexpr std::size_t page_size = 4096;
        std::vector<std::unique_ptr<std::uint32_t[]>> pages_;
        std::uint32_t epoch_ = 1;
    };

    /**
     * The accounting half of batched op @p i: the remote co-operand
     * transfer (deduped per lane by serialFetched_) and the op's
     * cached charges, billed into serialCtx_. Returns the op's lane
     * cycles, the cost layLanes lays out.
     */
    mem::Cycles chargeLaneOp(std::uint32_t i);

    // --- Async dispatch window (dispatchAsync) ------------------------

    /**
     * Bind-or-drain: an active window belongs to exactly one
     * (ctx, tid); any other context/thread arriving at the SCU
     * drains it first (charging the bound thread).
     */
    void ensureWindowContext(sim::SimContext &ctx, sim::ThreadId tid);

    /**
     * WAR/WAW edge from a serial mutation (insert/remove/destroy) of
     * @p id: stall to max(pending def, last pending read) of @p id.
     */
    void syncWrite(sim::SimContext &ctx, sim::ThreadId tid, SetId id);

    /** Virtual now: the bound thread's cycles past the window base. */
    mem::Cycles nowV() const
    {
        return windowCtx_->threadCycles(windowTid_) - windowBase_;
    }

    // --- Pure Section 8.3 cost predictors (no side effects) -----------

    mem::Cycles pumCost(std::uint64_t n_bits,
                        std::uint32_t row_ops) const;
    mem::Cycles streamCost(std::uint64_t max_elems) const;
    /** DB word streams are priced at 8 bytes per word. */
    mem::Cycles streamDbWordsCost(std::uint64_t words) const;
    mem::Cycles randomCost(std::uint64_t probes) const;

    struct MixedPlan
    {
        Backend backend = Backend::PnmRandom;
        mem::Cycles cycles = 0;
    };

    /**
     * SA-vs-DB plan: bit-probe each of @p array_size elements, or
     * stream the bitvector past the array -- whichever the models
     * predict cheaper, with both plans priced in bytes.
     */
    MixedPlan mixedProbePlan(std::uint64_t array_size) const;

    /** Charge the SMB/SM lookup for @p id's metadata. */
    void chargeMetadata(sim::SimContext &ctx, sim::ThreadId tid, SetId id);

    /** Charge a PUM bulk op over @p n_bits, @p row_ops rows deep. */
    void chargePum(sim::SimContext &ctx, sim::ThreadId tid,
                   std::uint64_t n_bits, std::uint32_t row_ops);

    void chargePnmStream(sim::SimContext &ctx, sim::ThreadId tid,
                         std::uint64_t max_elems);

    void chargePnmRandom(sim::SimContext &ctx, sim::ThreadId tid,
                         std::uint64_t probes);

    void recordWork(sim::SimContext &ctx, const sets::OpWork &work);

    /** Record @p op into the attached trace, if any. */
    void
    traceOp(SisaOp op, SetId rd, SetId rs1,
            SetId rs2 = invalid_set)
    {
        if (trace_)
            trace_->record(op, rd, rs1, rs2);
    }

    /**
     * Block in the scheduler until this query may dispatch. On a
     * cancellation verdict (deadline / shed) the
     * dispatch must not run: the async window is cancel-drained --
     * its pending modeled completions are charged to (@p ctx, @p
     * tid) and priced in scu.cancel_drains / setops.cancelled_cycles
     * so abandoned work is never silently dropped -- and
     * QueryCancelledError unwinds to the session's finish(). Every
     * later gated dispatch of the cancelled query rethrows without
     * re-entering the scheduler.
     */
    void admitDispatch(sim::SimContext &ctx, sim::ThreadId tid);

    /**
     * Retire the async window on a cancellation: identical timing
     * settlement to drainWindow (the bound thread pays the pending
     * completions), but the charge is booked as cancellation cost.
     */
    void cancelWindow();

    /**
     * The settlement drainWindow and cancelWindow share: stall the
     * bound thread to the latest pending completion and reset the
     * window. Returns the stall charged (the caller books it).
     */
    mem::Cycles closeWindow();

    /** Close the grant: report the dispatch's demand (see bindQuery). */
    void reportDispatch(const sim::SimContext &ctx);

    /** Accumulate shared-vault busy time into the pending demand. */
    void
    noteVaultBusy(std::uint32_t vault, mem::Cycles cycles)
    {
        if (sched_ && cycles)
            demand_.addLane(vault, cycles);
    }

    /**
     * Result footprint of @p outcome in bytes, as moved by the
     * cross-vault reduction tree (SA payloads at 4 B/element, DB
     * payloads at denseBytes(), scalars at 8 B).
     */
    std::uint64_t resultBytes(const OpOutcome &outcome) const;

    /** Footprint of operand @p id when fetched from a remote vault. */
    std::uint64_t operandBytes(SetId id) const;

    SetStore &store_;
    ScuConfig config_;
    std::shared_ptr<const PlacementPolicy> placement_;
    /**
     * Result overlay over the placement policy: adopted intermediates
     * pinned to the vault that produced them (policies with
     * placesResults()). Consulted by vaultOf before the policy;
     * entries die with their set (destroy) or the policy
     * (setPlacement).
     */
    std::unordered_map<SetId, std::uint32_t> overlay_;
    std::vector<std::unique_ptr<mem::Cache>> smbs_;
    Backend lastBackend_ = Backend::None;
    InstructionTrace *trace_ = nullptr;
    // --- Serving attachment (all dead while sched_ is null) -----------
    QueryScheduler *sched_ = nullptr;
    sim::QueryId query_ = sim::no_query;
    /** Session ctx all-thread cycle total at the last report. */
    mem::Cycles schedBase_ = 0;
    /** Per-vault busy cycles accumulating toward the next report. */
    DispatchDemand demand_;
    /** Set once the scheduler cancelled the bound query. */
    bool cancelled_ = false;
    /** The cancellation verdict (valid while cancelled_). */
    QueryState cancelVerdict_ = QueryState::Running;

    // Scratch reused across dispatches so a small batch does
    // not pay fresh allocations (instruction issue on one SCU is not
    // reentrant, like the SMB state above). Bounded by the shrink-to-
    // high-watermark policy in maybeShrinkScratch.
    std::vector<std::uint32_t> vaultLane_; ///< vault -> lane or ~0u.
    std::vector<std::uint32_t> laneVault_; ///< lane -> vault (reset list).
    std::vector<std::vector<std::uint32_t>> laneOps_;
    std::vector<OpOutcome> outcomes_;
    std::vector<OpRoute> routes_; ///< op -> routing decision.
    std::vector<std::uint64_t> laneResultBytes_;
    /** Balanced scheduler state: per-vault queued cycles ... */
    VaultLoads schedLoads_;
    /** ... op indices in LPT (descending cost) order ... */
    std::vector<std::uint32_t> schedOrder_;
    /** ... and (vault << 32 | operand) pairs already paid for. */
    std::unordered_set<std::uint64_t> schedFetched_;
    /**
     * Reverse index of schedFetched_ for the byte-harvesting pass:
     * operand -> vaults already paying its transfer this dispatch
     * (the candidate "rider" lanes for ops sharing the operand).
     */
    std::unordered_map<SetId, std::vector<std::uint32_t>>
        schedFetchedVaults_;
    /**
     * Lane accounting of every dispatch: a context reset per
     * dispatch and the fetched-operand set of the lane being laid
     * out.
     */
    sim::SimContext serialCtx_{1};
    FetchedSet serialFetched_;
    std::size_t scratchPeak_ = 0;       ///< Max batch size this window.
    std::uint32_t scratchDispatches_ = 0;
    static constexpr std::uint32_t scratch_window = 32;

    // --- Async dispatch window state (all dead while windowCtx_ is
    // null; a windowed dispatch opens it lazily and drainWindow /
    // any foreign context / a barriered dispatch closes it). Modeled
    // time inside the window is VIRTUAL: cycles past windowBase_ on
    // the bound thread, so front-end charges and serial ops keep
    // advancing "now" while lane clocks run ahead.
    sim::SimContext *windowCtx_ = nullptr; ///< Bound context or null.
    sim::ThreadId windowTid_ = 0;          ///< Bound modeled thread.
    mem::Cycles windowBase_ = 0;  ///< Bound thread cycles at open.
    /** Per-vault virtual lane clocks (busy-until, window lifetime). */
    std::vector<mem::Cycles> laneClockV_;
    mem::Cycles maxCompletionV_ = 0; ///< Latest pending completion.
    /** Reduction-tree serialization point (one tree at a time). */
    mem::Cycles reduceEndV_ = 0;
    /** RAW/WAR scoreboard over unretired defs and payload reads. */
    DependencyWindow deps_;
    /** In-flight completions in dispatch order (the ROB). */
    std::deque<mem::Cycles> pendingCompletions_;
    /** Dispatched-but-uncollected results (survive the drain). */
    std::unordered_map<std::uint64_t, BatchResult> pendingResults_;
    std::uint64_t nextTicket_ = 0;
};

} // namespace sisa::isa

#endif // SISA_SISA_SCU_HPP
