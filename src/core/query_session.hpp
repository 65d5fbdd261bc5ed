/**
 * @file
 * One tenant of a multi-query serving run. A QuerySession bundles
 * everything that must be PER QUERY when several queries share the
 * modeled hardware: the SimContext whose charges are tagged with the
 * session's QueryId, the engine executing on the query's behalf, and
 * the admission scheduler enrollment. The serving layer
 * (serve/scenario.hpp) creates K sessions against one
 * QueryScheduler; the headline invariant is that a query's functional
 * results, ids, and setops.* totals are bit-identical whether it runs
 * solo or co-tenant -- scheduling moves modeled time only.
 *
 * Lifecycle:
 *   1. Construct (enrolls with the scheduler; the session's ctx tags
 *      every charge with the new QueryId from the start, so even
 *      setup counters land in the query's account).
 *   2. Build the query's working state (graphs, set materialization)
 *      -- ungated, so do it before co-tenants start dispatching.
 *   3. attach(engine): dispatches now gate through the scheduler and
 *      the served timeline starts (setup cycles stay outside it).
 *   4. Run the query's algorithm against session.ctx().
 *   5. finish(): drains in-flight async batches, detaches, and
 *      retires the query -- its completion time freezes in the
 *      scheduler's ServingModel.
 */

#ifndef SISA_CORE_QUERY_SESSION_HPP
#define SISA_CORE_QUERY_SESSION_HPP

#include <cstdint>
#include <string>
#include <utility>

#include "core/set_engine.hpp"
#include "sim/context.hpp"
#include "sisa/serving.hpp"
#include "support/logging.hpp"

namespace sisa::core {

/** Per-query state threaded through engine, SCU, and scheduler. */
class QuerySession
{
  public:
    /**
     * Enroll a new query with @p sched. @p threads is the session's
     * modeled thread count (its private SimContext); @p spec is its
     * lifecycle contract (arrival offset, deadline).
     * The scheduler's ServingModel owns the resulting lifecycle
     * verdict; query it via state() after finish().
     */
    QuerySession(std::string label, isa::QueryScheduler &sched,
                 std::uint32_t threads, const isa::AdmissionSpec &spec = {})
        : label_(std::move(label)), sched_(&sched),
          id_(sched.enroll(spec)), ctx_(threads)
    {
        ctx_.bindQuery(id_);
    }

    // The engine and scheduler hold pointers to this session.
    QuerySession(const QuerySession &) = delete;
    QuerySession &operator=(const QuerySession &) = delete;

    /**
     * Bind @p engine to this session: its dispatches gate through
     * the scheduler from here on, and the served timeline's baseline
     * is the session ctx's CURRENT cycle total (setup excluded).
     */
    void
    attach(SetEngine &engine)
    {
        sisa_assert(!engine_, "attach: session already attached");
        engine_ = &engine;
        servedBase_ = ctx_.totalCycles();
        engine.bindSession(*this);
    }

    /**
     * Retire the query: drain the engine's async window (the drain
     * stall lands in this session's timeline), detach, and hand the
     * unreported demand tail to the scheduler's leave(). The tail's
     * own-cycle component is settled from the session ctx here, so
     * an engine without admission hardware (whose gated reports
     * never happened) still accounts its full served time.
     */
    void
    finish()
    {
        sisa_assert(engine_, "finish: session not attached");
        engine_->drainBatches(ctx_, 0);
        isa::DispatchDemand tail = engine_->unbindSession();
        tail.own = (ctx_.totalCycles() - servedBase_) -
                   sched_->ownCycles(id_);
        engine_ = nullptr;
        sched_->leave(id_, std::move(tail));
    }

    sim::QueryId id() const { return id_; }
    const std::string &label() const { return label_; }
    sim::SimContext &ctx() { return ctx_; }
    const sim::SimContext &ctx() const { return ctx_; }
    isa::QueryScheduler &scheduler() { return *sched_; }

    /** The attached engine (between attach() and finish() only). */
    SetEngine &
    engine()
    {
        sisa_assert(engine_, "engine(): session not attached");
        return *engine_;
    }

    bool attached() const { return engine_ != nullptr; }

    /** Makespan in the shared virtual timeline (after finish()). */
    mem::Cycles
    completion() const
    {
        return sched_->model().completion(id_);
    }

    /** Terminal lifecycle verdict (after finish()). */
    isa::QueryState
    state() const
    {
        return sched_->model().state(id_);
    }

  private:
    std::string label_;
    isa::QueryScheduler *sched_;
    SetEngine *engine_ = nullptr;
    sim::QueryId id_;
    sim::SimContext ctx_;
    /** Session ctx cycle total at attach() (served-time baseline). */
    mem::Cycles servedBase_ = 0;
};

} // namespace sisa::core

#endif // SISA_CORE_QUERY_SESSION_HPP
