/**
 * @file
 * SetEngine implementation backed by the SISA hardware model: all set
 * operations become SISA instructions dispatched through the SCU to
 * SISA-PUM / SISA-PNM (the "_sisa" bars of the evaluation).
 */

#ifndef SISA_CORE_SISA_ENGINE_HPP
#define SISA_CORE_SISA_ENGINE_HPP

#include <memory>

#include "core/set_engine.hpp"
#include "sisa/scu.hpp"

namespace sisa::core {

/** Offloads every set operation to the simulated SISA hardware. */
class SisaEngine : public SetEngine
{
  public:
    /**
     * @param universe    Vertex-universe size n.
     * @param config      SCU / PIM configuration.
     * @param num_threads Simulated thread count (for private SMBs).
     */
    SisaEngine(Element universe, const isa::ScuConfig &config,
               std::uint32_t num_threads);

    /**
     * An engine whose store reads the sets of @p base in place
     * (isa::SetStore's shared-base constructor): same ids, same
     * locations, no copy of the payloads.
     */
    SisaEngine(std::shared_ptr<const SetStore> base,
               const isa::ScuConfig &config, std::uint32_t num_threads);

    SetStore &store() override { return *store_; }
    const SetStore &store() const override { return *store_; }
    const char *name() const override { return "sisa"; }

    /**
     * This engine's store, as a read-only base for other engines.
     * Once shared, the store must not change while they live: use
     * the engine for nothing but building the shared sets.
     */
    std::shared_ptr<const SetStore> sharedStore() const { return store_; }

    isa::Scu &scu() { return scu_; }

    /**
     * Session binding plugs the SCU into the session's scheduler:
     * every batch dispatch gates through admission and reports its
     * DispatchDemand (own cycles + per-vault busy time).
     */
    void bindSession(QuerySession &session) override;
    isa::DispatchDemand unbindSession() override;

    SetId intersect(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                    SetId b,
                    SisaOp variant = SisaOp::IntersectAuto) override;
    SetId setUnion(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   SetId b,
                   SisaOp variant = SisaOp::UnionAuto) override;
    SetId difference(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                     SetId b,
                     SisaOp variant = SisaOp::DifferenceAuto) override;
    std::uint64_t
    intersectCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                  SetId b,
                  SisaOp variant = SisaOp::IntersectAuto) override;
    std::uint64_t unionCard(sim::SimContext &ctx, sim::ThreadId tid,
                            SetId a, SetId b) override;
    BatchResult executeBatch(sim::SimContext &ctx, sim::ThreadId tid,
                             const BatchRequest &batch) override;
    BatchHandle executeBatchAsync(sim::SimContext &ctx,
                                  sim::ThreadId tid,
                                  const BatchRequest &batch) override;
    BatchResult collectBatch(sim::SimContext &ctx, sim::ThreadId tid,
                             BatchHandle handle) override;
    void drainBatches(sim::SimContext &ctx, sim::ThreadId tid) override;
    std::uint64_t cardinality(sim::SimContext &ctx, sim::ThreadId tid,
                              SetId a) override;
    bool member(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x) override;
    void insert(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x) override;
    void remove(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                Element x) override;
    SetId create(sim::SimContext &ctx, sim::ThreadId tid,
                 std::vector<Element> elems, SetRepr repr) override;
    SetId createEmpty(sim::SimContext &ctx, sim::ThreadId tid,
                      SetRepr repr) override;
    SetId createFull(sim::SimContext &ctx, sim::ThreadId tid) override;
    SetId clone(sim::SimContext &ctx, sim::ThreadId tid, SetId a) override;
    void destroy(sim::SimContext &ctx, sim::ThreadId tid,
                 SetId a) override;
    std::vector<Element> elements(sim::SimContext &ctx, sim::ThreadId tid,
                                  SetId a) override;

  private:
    std::shared_ptr<SetStore> store_;
    isa::Scu scu_;
};

} // namespace sisa::core

#endif // SISA_CORE_SISA_ENGINE_HPP
