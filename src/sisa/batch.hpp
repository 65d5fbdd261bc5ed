/**
 * @file
 * Batched SISA instruction dispatch (the SISA-PNM throughput model of
 * Sections 5-6). A BatchRequest carries N independent binary set
 * operations that the SCU decodes ONCE and executes concurrently
 * across its vaults: each operation is routed to an execution vault
 * by ScuConfig.routing (its primary operand's vault by default, or
 * the vault the makespan-driven LPT batch scheduler picks under
 * Balanced),
 * operations mapped to the same vault serialize, and the batch's
 * simulated cost is the makespan of the slowest vault -- exactly the
 * cross-vault load-balance behaviour the paper's evaluation studies. Engines expose this through
 * SetEngine::executeBatch (core/set_engine.hpp); batched and serial
 * dispatch are bit-identical in their functional results and in their
 * total setops.* work counters, only the cycle model differs.
 */

#ifndef SISA_SISA_BATCH_HPP
#define SISA_SISA_BATCH_HPP

#include <cstdint>
#include <vector>

#include "sisa/isa.hpp"

namespace sisa::isa {

/** Which binary set operation a batch entry performs. */
enum class BatchOpKind : std::uint8_t
{
    Intersect,     ///< A cap B -> new set.
    Union,         ///< A cup B -> new set.
    Difference,    ///< A setminus B -> new set.
    IntersectCard, ///< |A cap B| (no materialization).
    UnionCard,     ///< |A cup B| (no materialization).
};

/**
 * One operation inside a batch.
 *
 * HAZARD CONTRACT -- what dispatchBatch assumes about independence.
 * The N operations of one BatchRequest issue concurrently with NO
 * ordering among them; the SCU routes them to vault lanes and only
 * lane membership serializes. A batch is well-formed iff:
 *
 *  1. Every operand id (`a`, and `b` where the kind reads two
 *     sources) names a set that is LIVE when the batch is dispatched.
 *     No operand may be the result of another op in the same batch --
 *     result ids are allocated at adoption, after every lane retired,
 *     so such a forward reference cannot even be expressed.
 *  2. No op in the batch releases, mutates, or converts a set another
 *     op in the same batch reads. Batch ops are read-only over their
 *     operands (intersect/union/difference/cardinalities), so this
 *     holds by construction today; it becomes load-bearing the moment
 *     a mutating kind is added.
 *  3. Operand ids resolve to vaults within config().pim.vaults under
 *     the installed placement policy.
 *
 * Rule 1 is enforced at dispatch: reading a dead operand trips
 * SetStore's liveness assert ("metadata of a dead set"), which aborts
 * the run in every build type. Rule 2 holds by construction. Rule 3
 * is enforced by Scu::setPlacement, which replaces a policy built for
 * a different vault count with a correct-width HashPlacement.
 * Issuing the same scalar op twice in one batch is legal but wastes
 * a lane.
 *
 * CROSS-BATCH HAZARDS -- what the async window adds on top. With
 * ScuConfig.asyncDepth > 0 the SCU keeps up to asyncDepth dispatches
 * in flight (Scu::dispatchAsync), so batches may OVERLAP in modeled
 * time. The in-order front end preserves the contract: every dispatch
 * still executes functionally, adopts result ids, records its trace,
 * and bumps its counters in program order at dispatch time, and the
 * window's scoreboard (DependencyWindow) joins each new
 * batch's operands against the unretired defs so that
 *
 *  - RAW: an op reading a pending result cannot start before the
 *    producing batch's modeled completion;
 *  - WAR: a serial mutation (insert/remove/destroy) of a set that a
 *    pending op reads stalls to the last modeled read of that set;
 *  - WAW: destroy forgets the id from the scoreboard, so a recycled
 *    id starts with a clean dependency slate.
 *
 * Because the functional front end is in-order, each batch's
 * operands are checked for liveness against the store state produced
 * by every earlier dispatch and serial op, exactly as in barriered
 * mode. Overlap moves cycle charges only; results, ids, traces, and
 * functional counters are bit-identical to asyncDepth = 0.
 *
 * CROSS-QUERY NON-INTERFERENCE -- what multi-tenant serving adds on
 * top. Under a QueryScheduler (core/query_session.hpp) several
 * queries dispatch batches against shared modeled vaults, but every
 * session owns its engine and SetStore, so no batch can ever name a
 * co-tenant's set: the hazard rules above remain strictly per query,
 * and the scoreboard never sees a cross-query edge. Admission
 * scheduling moves MODELED TIME only -- grant order changes when a
 * query's lanes land on the shared vault clocks, never what its ops
 * compute -- so a query's results, result ids, and functional
 * counters are bit-identical solo vs co-tenant (the `serving` CTest
 * label enforces this across routing x placement x async).
 *
 * The guarantee survives the query lifecycle (sisa/serving.hpp):
 * deadlines, admission control, and overload shedding cancel a query
 * only BETWEEN its dispatches (QueryCancelledError out of the gated
 * admit), and a cancellation drains only the victim's own async
 * window, charging the drain to the victim (`scu.cancel_drains`,
 * `setops.cancelled_cycles`). So under any mix of deadlines,
 * arrivals, and shedding, every query that COMPLETES still reports
 * results, ids, and setops.* totals bit-identical to its solo run,
 * and the lifecycle verdicts themselves (TimedOut / Shed, and the
 * lifecycle log recording them) are pure functions of modeled time
 * -- independent of host thread timing.
 *
 * Operand `a` is the PRIMARY operand: under Routing::Primary the SCU
 * routes the op to `a`'s vault, and ops on the same vault
 * serialize. When a loop batches many ops
 * against one shared set, pass the VARYING set as `a` (the symmetric
 * ops -- intersect*, union* -- don't care about order) so the batch
 * spreads across vaults instead of piling onto one. Routing::
 * Balanced makes that guidance soft -- its scheduler weighs both
 * operands' vaults (and rider lanes already holding the shared
 * co-operand) against per-vault load -- but ties still favor `a`,
 * so the convention remains worth following.
 */
struct BatchOp
{
    BatchOpKind kind = BatchOpKind::Intersect;
    SetId a = invalid_set;
    SetId b = invalid_set;
    /** Variant knob (merge/gallop forcing), as in the serial issue. */
    SisaOp variant = SisaOp::IntersectAuto;
};

/** N set operations issued to the SCU as one dispatch. */
struct BatchRequest
{
    std::vector<BatchOp> ops;

    std::size_t size() const { return ops.size(); }
    bool empty() const { return ops.empty(); }
    void clear() { ops.clear(); }
    void reserve(std::size_t n) { ops.reserve(n); }

    void
    intersect(SetId a, SetId b, SisaOp variant = SisaOp::IntersectAuto)
    {
        ops.push_back({BatchOpKind::Intersect, a, b, variant});
    }

    void
    setUnion(SetId a, SetId b, SisaOp variant = SisaOp::UnionAuto)
    {
        ops.push_back({BatchOpKind::Union, a, b, variant});
    }

    void
    difference(SetId a, SetId b,
               SisaOp variant = SisaOp::DifferenceAuto)
    {
        ops.push_back({BatchOpKind::Difference, a, b, variant});
    }

    void
    intersectCard(SetId a, SetId b,
                  SisaOp variant = SisaOp::IntersectAuto)
    {
        ops.push_back({BatchOpKind::IntersectCard, a, b, variant});
    }

    void
    unionCard(SetId a, SetId b)
    {
        ops.push_back({BatchOpKind::UnionCard, a, b,
                       SisaOp::IntersectAuto});
    }
};

/** Per-operation outcome of a batch dispatch, in request order. */
struct BatchEntry
{
    /** Result set id for materializing ops; invalid_set otherwise. */
    SetId set = invalid_set;
    /**
     * Scalar result: the cardinality for IntersectCard/UnionCard, and
     * (for convenience) the result cardinality of materializing ops.
     */
    std::uint64_t value = 0;
};

/** Results of one batch dispatch, entry i matching request op i. */
struct BatchResult
{
    std::vector<BatchEntry> entries;

    std::size_t size() const { return entries.size(); }
};

/**
 * Ticket for one in-flight async dispatch (Scu::dispatchAsync /
 * SetEngine::executeBatchAsync). The functional BatchResult is
 * complete the moment the ticket is issued -- the front end executes
 * in order -- so collectBatch() forwards it without charging cycles
 * (ROB-style value forwarding); modeled time settles when the batch
 * retires (window overflow, a dependent read, or drainBatches).
 * Tickets are single-use: collecting one invalidates it.
 */
struct BatchHandle
{
    static constexpr std::uint64_t invalid_ticket = UINT64_MAX;

    std::uint64_t ticket = invalid_ticket;

    bool valid() const { return ticket != invalid_ticket; }
};

} // namespace sisa::isa

#endif // SISA_SISA_BATCH_HPP
