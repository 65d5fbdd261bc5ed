#include "core/sisa_engine.hpp"

#include <utility>

#include "core/query_session.hpp"
#include "mem/pim.hpp"

namespace sisa::core {

SisaEngine::SisaEngine(Element universe, const isa::ScuConfig &config,
                       std::uint32_t num_threads)
    : store_(std::make_shared<SetStore>(universe)),
      scu_(*store_, config, num_threads)
{
}

SisaEngine::SisaEngine(std::shared_ptr<const SetStore> base,
                       const isa::ScuConfig &config,
                       std::uint32_t num_threads)
    : store_(std::make_shared<SetStore>(std::move(base))),
      scu_(*store_, config, num_threads)
{
}

void
SisaEngine::bindSession(QuerySession &session)
{
    SetEngine::bindSession(session);
    scu_.bindQuery(session.scheduler(), session.id(), session.ctx());
}

isa::DispatchDemand
SisaEngine::unbindSession()
{
    isa::DispatchDemand tail = scu_.unbindQuery(session_->ctx());
    SetEngine::unbindSession();
    return tail;
}

SetId
SisaEngine::intersect(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                      SetId b, SisaOp variant)
{
    return scu_.intersect(ctx, tid, a, b, variant);
}

SetId
SisaEngine::setUnion(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                     SetId b, SisaOp variant)
{
    return scu_.setUnion(ctx, tid, a, b, variant);
}

SetId
SisaEngine::difference(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                       SetId b, SisaOp variant)
{
    return scu_.difference(ctx, tid, a, b, variant);
}

std::uint64_t
SisaEngine::intersectCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                          SetId b, SisaOp variant)
{
    return scu_.intersectCard(ctx, tid, a, b, variant);
}

std::uint64_t
SisaEngine::unionCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                      SetId b)
{
    return scu_.unionCard(ctx, tid, a, b);
}

BatchResult
SisaEngine::executeBatch(sim::SimContext &ctx, sim::ThreadId tid,
                         const BatchRequest &batch)
{
    return scu_.dispatchBatch(ctx, tid, batch);
}

BatchHandle
SisaEngine::executeBatchAsync(sim::SimContext &ctx, sim::ThreadId tid,
                              const BatchRequest &batch)
{
    return scu_.dispatchAsync(ctx, tid, batch);
}

BatchResult
SisaEngine::collectBatch(sim::SimContext &ctx, sim::ThreadId tid,
                         BatchHandle handle)
{
    return scu_.collectBatch(ctx, tid, handle);
}

void
SisaEngine::drainBatches(sim::SimContext &ctx, sim::ThreadId tid)
{
    scu_.drainWindow(ctx, tid);
}

std::uint64_t
SisaEngine::cardinality(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    return scu_.cardinality(ctx, tid, a);
}

bool
SisaEngine::member(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   Element x)
{
    return scu_.member(ctx, tid, a, x);
}

void
SisaEngine::insert(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   Element x)
{
    scu_.insert(ctx, tid, a, x);
}

void
SisaEngine::remove(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   Element x)
{
    scu_.remove(ctx, tid, a, x);
}

SetId
SisaEngine::create(sim::SimContext &ctx, sim::ThreadId tid,
                   std::vector<Element> elems, SetRepr repr)
{
    return scu_.create(ctx, tid, std::move(elems), repr);
}

SetId
SisaEngine::createEmpty(sim::SimContext &ctx, sim::ThreadId tid,
                        SetRepr repr)
{
    return scu_.createEmpty(ctx, tid, repr);
}

SetId
SisaEngine::createFull(sim::SimContext &ctx, sim::ThreadId tid)
{
    return scu_.createFull(ctx, tid);
}

SetId
SisaEngine::clone(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    return scu_.clone(ctx, tid, a);
}

void
SisaEngine::destroy(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    scu_.destroy(ctx, tid, a);
}

std::vector<Element>
SisaEngine::elements(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    // A pending async result cannot stream out before its batch's
    // modeled completion: RAW edge into the SCU's in-flight window.
    scu_.syncRead(ctx, tid, a);
    // The host core streams the set out of the vault at b_M: all of a
    // DB's 8-byte words (rounded up -- sub-word universes still move
    // one word), or the SA's 4-byte elements.
    const std::uint64_t card = store_->cardinality(a);
    const std::uint64_t bytes =
        store_->isDense(a)
            ? sets::dbWords(store_->universe()) * sets::db_word_bytes
            : card * sizeof(Element);
    ctx.chargeBusy(tid,
                   mem::pnmStreamBytesCycles(scu_.config().pim, bytes));
    return store_->elementsOf(a);
}

} // namespace sisa::core
