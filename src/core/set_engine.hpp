/**
 * @file
 * The execution interface of the set-centric programming model. A
 * SetEngine executes set operations functionally against a SetStore
 * while charging modeled cycles; the two implementations mirror the
 * paper's evaluation bars:
 *
 *  - SisaEngine   ("_sisa"):      offloads to the SCU and the PIM
 *                                 backends (Section 8);
 *  - CpuSetEngine ("_set-based"): runs the same set algorithms in
 *                                 software on the out-of-order CPU +
 *                                 cache-hierarchy model (Section 9.1).
 *
 * Set-centric algorithm formulations are written once against this
 * interface and evaluated under either cost model.
 */

#ifndef SISA_CORE_SET_ENGINE_HPP
#define SISA_CORE_SET_ENGINE_HPP

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/context.hpp"
#include "sisa/batch.hpp"
#include "sisa/isa.hpp"
#include "sisa/serving.hpp"
#include "sisa/set_store.hpp"
#include "support/logging.hpp"

namespace sisa::core {

class QuerySession; // core/query_session.hpp

using isa::BatchEntry;
using isa::BatchHandle;
using isa::BatchOp;
using isa::BatchOpKind;
using isa::BatchRequest;
using isa::BatchResult;
using isa::SetId;
using isa::SetStore;
using isa::SisaOp;
using sets::Element;
using sets::SetRepr;

/** Abstract executor of set operations with cycle accounting. */
class SetEngine
{
  public:
    virtual ~SetEngine() = default;

    /** The store holding all live sets (functional ground truth). */
    virtual SetStore &store() = 0;
    virtual const SetStore &store() const = 0;

    /** Short name for reports ("sisa" / "set-based"). */
    virtual const char *name() const = 0;

    // --- Multi-tenant sessions (core/query_session.hpp) --------------------

    /**
     * Attach this engine to a serving session. From here on the
     * engine no longer assumes sole ownership of the modeled
     * hardware: batch dispatches gate through the session's
     * QueryScheduler (SisaEngine binds its SCU; CpuSetEngine gates
     * executeBatch directly). Binding never changes results, ids, or
     * setops.* totals -- only whose timeline the cycles land on.
     * The base implementation records the handle only; an engine
     * without admission hardware runs ungated and settles its whole
     * served time in the unbindSession() tail.
     */
    virtual void bindSession(QuerySession &session)
    {
        sisa_assert(!session_, "bindSession: engine already bound");
        session_ = &session;
    }

    /**
     * Detach from the session and return the demand tail still
     * unreported to the scheduler (own cycles since the last gated
     * dispatch) -- the argument of QueryScheduler::leave().
     */
    virtual isa::DispatchDemand unbindSession()
    {
        sisa_assert(session_, "unbindSession: engine not bound");
        session_ = nullptr;
        return {};
    }

    /** The bound serving session, or nullptr when running solo. */
    QuerySession *session() const { return session_; }

    // --- Binary set operations -------------------------------------------

    virtual SetId intersect(sim::SimContext &ctx, sim::ThreadId tid,
                            SetId a, SetId b,
                            SisaOp variant = SisaOp::IntersectAuto) = 0;

    virtual SetId setUnion(sim::SimContext &ctx, sim::ThreadId tid,
                           SetId a, SetId b,
                           SisaOp variant = SisaOp::UnionAuto) = 0;

    virtual SetId difference(sim::SimContext &ctx, sim::ThreadId tid,
                             SetId a, SetId b,
                             SisaOp variant = SisaOp::DifferenceAuto) = 0;

    virtual std::uint64_t
    intersectCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                  SetId b, SisaOp variant = SisaOp::IntersectAuto) = 0;

    virtual std::uint64_t unionCard(sim::SimContext &ctx,
                                    sim::ThreadId tid, SetId a,
                                    SetId b) = 0;

    // --- Batched operations -------------------------------------------------

    /**
     * Issue every operation of @p batch in ONE dispatch and return
     * per-operation results in request order. Batched execution is
     * bit-identical to issuing the operations serially (same result
     * sets, same ids, same setops.* work totals); only the cycle
     * model differs: the SISA engine decodes once and spreads the
     * batch across its vaults (paying the slowest vault's makespan),
     * while the CPU engine runs the batch serially as software would.
     */
    virtual BatchResult executeBatch(sim::SimContext &ctx,
                                     sim::ThreadId tid,
                                     const BatchRequest &batch) = 0;

    /**
     * executeBatch without the barrier: issue @p batch and get a
     * single-use ticket for its result. The functional results are
     * complete at issue (the front end is in-order), so collectBatch
     * may be called immediately and never charges cycles; what the
     * async form buys is MODELED overlap -- an engine with an
     * in-flight window (the SISA engine with ScuConfig.asyncDepth >
     * 0) retires the batch's makespan lazily, letting independent
     * batches share vault lanes in time. Engines without a window
     * (the CPU engine, or the SCU with asyncDepth = 0) degrade to
     * executeBatch plus an immediately-retired ticket, so algorithms
     * can use this API unconditionally: results, ids, traces, and
     * work counters are bit-identical either way.
     */
    virtual BatchHandle
    executeBatchAsync(sim::SimContext &ctx, sim::ThreadId tid,
                      const BatchRequest &batch)
    {
        const std::uint64_t ticket = nextImmediateTicket_++;
        immediateResults_.emplace(ticket,
                                  executeBatch(ctx, tid, batch));
        return BatchHandle{ticket};
    }

    /**
     * Redeem a ticket from executeBatchAsync (single use). Never
     * charges cycles -- value forwarding, not synchronization.
     */
    virtual BatchResult
    collectBatch(sim::SimContext &ctx, sim::ThreadId tid,
                 BatchHandle handle)
    {
        (void)ctx;
        (void)tid;
        const auto it = immediateResults_.find(handle.ticket);
        sisa_assert(it != immediateResults_.end(),
                    "collectBatch: unknown or already-collected "
                    "ticket");
        BatchResult out = std::move(it->second);
        immediateResults_.erase(it);
        return out;
    }

    /**
     * Retire every in-flight async batch, charging (ctx, tid) any
     * pending modeled wait. Algorithms call this where the barriered
     * formulation had its last implicit barrier (e.g. after a
     * per-thread work loop), so async and barriered runs end at the
     * same synchronization points. A no-op on engines without a
     * window.
     */
    virtual void drainBatches(sim::SimContext &ctx, sim::ThreadId tid)
    {
        (void)ctx;
        (void)tid;
    }

    // --- Element operations -----------------------------------------------

    virtual std::uint64_t cardinality(sim::SimContext &ctx,
                                      sim::ThreadId tid, SetId a) = 0;

    virtual bool member(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                        Element x) = 0;

    virtual void insert(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                        Element x) = 0;

    virtual void remove(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                        Element x) = 0;

    // --- Lifecycle ----------------------------------------------------------

    virtual SetId create(sim::SimContext &ctx, sim::ThreadId tid,
                         std::vector<Element> elems, SetRepr repr) = 0;

    virtual SetId createEmpty(sim::SimContext &ctx, sim::ThreadId tid,
                              SetRepr repr) = 0;

    virtual SetId createFull(sim::SimContext &ctx, sim::ThreadId tid) = 0;

    virtual SetId clone(sim::SimContext &ctx, sim::ThreadId tid,
                        SetId a) = 0;

    virtual void destroy(sim::SimContext &ctx, sim::ThreadId tid,
                         SetId a) = 0;

    // --- Iteration -----------------------------------------------------------

    /**
     * Materialize the sorted elements of @p a on the host core,
     * charging a streaming read of the set.
     */
    virtual std::vector<Element> elements(sim::SimContext &ctx,
                                          sim::ThreadId tid, SetId a) = 0;

  protected:
    /** Serving session this engine dispatches for (or nullptr). */
    QuerySession *session_ = nullptr;

  private:
    /** Backing store of the default (immediate) async-batch API. */
    std::unordered_map<std::uint64_t, BatchResult> immediateResults_;
    std::uint64_t nextImmediateTicket_ = 0;
};

} // namespace sisa::core

#endif // SISA_CORE_SET_ENGINE_HPP
